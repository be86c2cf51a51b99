"""Heralded single-photon absorption by a trapped ion: simulation and analysis.

Subpackages: polarization (state algebra), biphoton (source and arm
statistics), sim (event-stream Monte Carlo and event files), records
(event-file record text), correlate (coincidence histograms), fringes
(visibility fits), tomography (state reconstruction), presets
(paper-calibrated configurations), cli (batch front-end).
"""

__version__ = "0.1.0"

from .errors import ConfigError, ConvergenceError, DataError, IonHeraldError
from .polarization import (BASES, DA, HV, RL, PolarizationBasis,
                           PolarizationState, TwoQubitDensityMatrix,
                           maximally_mixed, overlap, singlet, to_poincare,
                           werner)
from .biphoton import (AbsorberSetting, AnalyzerSetting, SourceModel,
                       absorber_for, arm_probabilities, scan_analyzer)
from .sim import (EventStream, RateConfig, RunManifest, SequenceConfig,
                  read_events, simulate_run, write_events)
from .correlate import (CoincidenceHistogram, CoincidenceResult, extract,
                        histogram_from_stream, histogram_of_blocks)
from .fringes import FringeFit, FringeScan, ScanPoint, fit_fringe
from .tomography import (CountsRow, CountsTable, EntanglementMetrics,
                         TomographySetting, bootstrap_metrics, concurrence,
                         fidelity_singlet, linear_inversion, metrics,
                         mle_reconstruct)

__all__ = [
    "ConfigError", "ConvergenceError", "DataError", "IonHeraldError",
    "__version__",
    "BASES", "DA", "HV", "RL", "PolarizationBasis", "PolarizationState",
    "TwoQubitDensityMatrix", "maximally_mixed", "overlap", "singlet",
    "to_poincare", "werner",
    "AbsorberSetting", "AnalyzerSetting", "SourceModel", "absorber_for",
    "arm_probabilities", "scan_analyzer",
    "EventStream", "RateConfig", "RunManifest",
    "SequenceConfig", "read_events", "simulate_run", "write_events",
    "CoincidenceHistogram", "CoincidenceResult", "extract",
    "histogram_from_stream", "histogram_of_blocks",
    "FringeFit", "FringeScan", "ScanPoint", "fit_fringe",
    "CountsRow", "CountsTable", "EntanglementMetrics", "TomographySetting",
    "bootstrap_metrics", "concurrence", "fidelity_singlet",
    "linear_inversion", "metrics", "mle_reconstruct",
]
