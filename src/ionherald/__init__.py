"""Heralded single-photon absorption by a trapped ion: simulation and analysis.

Subpackages: polarization (state algebra), biphoton (source and arm
statistics), sim (event-stream Monte Carlo), correlate (coincidence
histograms), fringes (visibility fits), tomography (state reconstruction),
presets (paper-calibrated configurations), cli (batch front-end).
"""

__version__ = "0.1.0"

from .errors import ConfigError, ConvergenceError, DataError, IonHeraldError
from .polarization import (BASES, DA, HV, RL, PoincareVector,
                           PolarizationBasis, PolarizationState,
                           TwoQubitDensityMatrix, joint_projection_probability,
                           maximally_mixed, overlap, singlet, to_poincare,
                           werner)
from .biphoton import (AbsorberSetting, AnalyzerSetting, SourceModel,
                       absorber_for, arm_probabilities, scan_analyzer)
from .sim import (EventStream, RateConfig, RunManifest, SequenceConfig,
                  read_events, simulate_run, write_events)
from .correlate import (CoincidenceHistogram, CoincidenceResult, extract,
                        histogram, histogram_from_stream)
from .fringes import FringeFit, FringeScan, ScanPoint, fit_fringe, \
    subtract_background
from .tomography import (CountsRow, CountsTable, EntanglementMetrics,
                         TomographySetting, bootstrap_metrics, concurrence,
                         design_16, fidelity_singlet, linear_inversion,
                         metrics, mle_reconstruct, trace_distance)

__all__ = [
    "ConfigError", "ConvergenceError", "DataError", "IonHeraldError",
    "__version__",
    "BASES", "DA", "HV", "RL", "PoincareVector", "PolarizationBasis",
    "PolarizationState", "TwoQubitDensityMatrix",
    "joint_projection_probability", "maximally_mixed", "overlap", "singlet",
    "to_poincare", "werner",
    "AbsorberSetting", "AnalyzerSetting", "SourceModel", "absorber_for",
    "arm_probabilities", "scan_analyzer",
    "EventStream", "RateConfig", "RunManifest",
    "SequenceConfig", "read_events", "simulate_run", "write_events",
    "CoincidenceHistogram", "CoincidenceResult", "extract", "histogram",
    "histogram_from_stream",
    "FringeFit", "FringeScan", "ScanPoint", "fit_fringe",
    "subtract_background",
    "CountsRow", "CountsTable", "EntanglementMetrics", "TomographySetting",
    "bootstrap_metrics", "concurrence", "design_16", "fidelity_singlet",
    "linear_inversion", "metrics", "mle_reconstruct", "trace_distance",
]
