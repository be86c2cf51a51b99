"""Batch front-end: simulate runs, correlate event files, fit fringes,
reconstruct the two-photon state, and reproduce all published numbers.

Exit codes: 0 success, 2 configuration error, 3 data/validation error,
4 convergence error.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, ConvergenceError, DataError
from . import polarization as pol
from . import presets
from .biphoton import (SourceModel, absorber_for, fringe_params,
                       scan_analyzer)
from .correlate import (DEFAULT_BIN_US, DEFAULT_WINDOW_BINS, extract,
                        histogram_from_stream, histogram_of_blocks,
                        write_histogram)
from .fringes import (FringeScan, ScanPoint, fit_fringe, write_fit_record,
                      write_plot_data, write_scan)
# perfbench/tracing.py wraps read_events by its name on this module
from .sim import (RateConfig, RunManifest, SequenceConfig,  # noqa
                  _parsed_blocks, _simulate_blocks, read_events,
                  simulate_run, write_events)
from . import tomography as tom

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_CONVERGENCE = 4


# --- config files -------------------------------------------------------------

_CONFIG_KEYS = {
    "run": {"seed", "duration_s"},
    "source": {"singlet_weight"},
    "sequence": {f.name for f in fields(SequenceConfig)},
    "rates": {f.name for f in fields(RateConfig)},
    "absorber": {"basis", "allowed"},
    "analyzer": {"basis", "hwp_deg", "theta_ref_deg"},
}


def load_manifest_config(path) -> RunManifest:
    """Build a RunManifest from a flat sectioned key=value config file.

    [run], [absorber] and [analyzer] give the base manifest; the [source],
    [sequence] and [rates] entries apply to it as `section.key=value`
    overrides, so unset keys keep the dataclass defaults. Every error is a
    ConfigError that names the file.
    """
    # no [section] header can name the empty string, so a [DEFAULT] section
    # is an ordinary, and unknown, section rather than one copied into all
    cp = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        read = cp.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    try:
        return _manifest_from_config(cp)
    # a DataError here comes from a value of the file, such as a NaN angle
    except (ConfigError, DataError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _manifest_from_config(cp: configparser.ConfigParser) -> RunManifest:
    """The manifest of a parsed config file; its errors leave the path to
    the caller."""
    for section in cp.sections():
        if section not in _CONFIG_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp[section]:
            if key not in _CONFIG_KEYS[section]:
                raise ConfigError(f"unknown key {section}.{key}")

    def getf(section, key, default):
        try:
            return cp.getfloat(section, key, fallback=default)
        except ValueError:
            raise ConfigError(f"{section}.{key} = "
                              f"{cp.get(section, key)!r} is not a number")

    seed = getf("run", "seed", 0)
    if not float(seed).is_integer():
        raise ConfigError("run.seed must be an integer")
    ab_basis = cp.get("absorber", "basis", fallback="RL")
    if ab_basis not in pol.BASES:
        raise ConfigError("absorber.basis must be one of RL/HV/DA")
    absorber = absorber_for(pol.BASES[ab_basis],
                            cp.get("absorber", "allowed", fallback="plus"))
    an_basis = cp.get("analyzer", "basis", fallback=ab_basis)
    if an_basis not in pol.BASES:
        raise ConfigError("analyzer.basis must be one of RL/HV/DA")
    analyzer = scan_analyzer(pol.BASES[an_basis],
                             getf("analyzer", "hwp_deg", 45.0),
                             getf("analyzer", "theta_ref_deg", 0.0))
    manifest = RunManifest(int(seed), getf("run", "duration_s", 60.0),
                           absorber, analyzer, SourceModel())
    overrides = {f"{section}.{key}": value
                 for section in ("source", "sequence", "rates")
                 if cp.has_section(section)
                 for key, value in cp[section].items()}
    return _apply_overrides(manifest, overrides)


def _apply_overrides(manifest: RunManifest, overrides: dict) -> RunManifest:
    """Apply `section.key=value` overrides to a manifest; each section is
    replaced, and so validated, once, with all of its overrides."""
    if not overrides:
        return manifest
    changes = {"source": {}, "sequence": {}, "rates": {}}
    for dotted, value in overrides.items():
        try:
            section, key = dotted.split(".", 1)
        except ValueError:
            raise ConfigError(f"override {dotted!r} is not section.key=value")
        if section not in changes or key not in _CONFIG_KEYS[section]:
            raise ConfigError(f"unknown override key {dotted!r}")
        try:
            changes[section][key] = float(value)
        except ValueError:
            raise ConfigError(f"{dotted} = {value!r} is not a number")
    return replace(manifest, **{
        section: replace(getattr(manifest, section), **values)
        for section, values in changes.items()})


def _parse_override_args(pairs) -> dict:
    out = {}
    for item in pairs or []:
        if "=" not in item:
            raise ConfigError(f"--override needs key=value, got {item!r}")
        k, v = item.split("=", 1)
        out[k.strip()] = v.strip()
    return out


# --- commands -------------------------------------------------------------------

def cmd_simulate(args) -> int:
    if args.config:
        manifest = load_manifest_config(args.config)
        if args.seed is not None:
            manifest = replace(manifest, seed=args.seed)
    elif args.preset:
        manifest = presets.preset_manifest(
            args.preset, args.seed if args.seed is not None else 0,
            angle_deg=args.angle, minutes=args.minutes)
    else:
        raise ConfigError("simulate needs --config or --preset")
    manifest = _apply_overrides(manifest, _parse_override_args(args.override))
    # the stream goes to the file a block at a time, as it is drawn
    n_apd, n_onsets, blocks = _simulate_blocks(manifest)
    write_events(blocks, args.out)
    print(f"simulated {manifest.n_trials} trials: "
          f"{n_apd} APD, {n_onsets} onsets -> {args.out}")
    return EXIT_OK


def cmd_g2(args) -> int:
    # one read of the file, from a pipe too: each block is checked and its
    # pairs binned as it is read, and the file's first fault is named from
    # its block. A lag window that is refused reads no record
    with open(args.events, "rb") as fh:
        manifest, blocks = _parsed_blocks(fh, args.events)
        hist = histogram_of_blocks(blocks, args.bin_us, args.window_bins,
                                   manifest.duration_s)
    result = write_g2(hist, manifest, args.out_prefix)
    print(f"tau=0 coincidences {result.coincidences} "
          f"(background {result.background_per_bin:.2f}/bin) "
          f"-> {args.out_prefix}.res.txt")
    return EXIT_OK


def write_g2(hist, manifest: RunManifest, prefix: str):
    """Write g2's histogram, prefix.hist.txt, and its extracted counts with
    the run's settings, prefix.res.txt; return the extracted counts."""
    result = extract(hist)
    write_histogram(hist, prefix + ".hist.txt")
    record = {
        "coincidences": result.coincidences,
        "coincidence_err": f"{result.coincidence_err:.9g}",
        "background_per_bin": f"{result.background_per_bin:.9g}",
        "background_err": f"{result.background_err:.9g}",
        "signal_is_peak": result.signal_is_peak,
        "total_apd": hist.total_apd,
        "total_onsets": hist.total_onsets,
        "duration_s": manifest.duration_s,
        "basis": manifest.absorber.basis.label,
        "hwp_angle_deg": manifest.analyzer.hwp_angle,
    }
    with open(prefix + ".res.txt", "w", encoding="utf-8") as fh:
        for k, v in record.items():
            fh.write(f"{k}={v}\n")
    return result


def _read_kv(path) -> dict:
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line and "=" in line:
                    k, v = line.split("=", 1)
                    out[k] = v
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from exc
    return out


def cmd_fringe(args) -> int:
    if not np.isfinite(args.theta0):
        raise DataError(f"--theta0 {args.theta0} is not a finite angle")
    res_files = sorted(Path(args.scan_dir).glob("*.res.txt"))
    if len(res_files) < 4:
        raise DataError(f"{args.scan_dir}: found {len(res_files)} scan points,"
                        " need at least 4")
    pts, basis_label, basis_file = [], None, None
    for f in res_files:
        kv = _read_kv(f)
        try:
            pts.append(ScanPoint(float(kv["hwp_angle_deg"]),
                                 float(kv["coincidences"]),
                                 float(kv["background_per_bin"]),
                                 float(kv["duration_s"])))
        except (KeyError, ValueError) as exc:
            raise DataError(f"{f}: incomplete scan-point record: {exc}")
        except DataError as exc:
            raise DataError(f"{f}: {exc}") from exc
        if "basis" in kv:
            label = kv["basis"]
            if label not in pol.BASES:
                raise DataError(f"{f}: unknown basis {label!r}; expected "
                                f"one of {sorted(pol.BASES)}")
            if basis_file is not None and label != basis_label:
                raise DataError(f"{f}: basis {label!r} differs from "
                                f"{basis_label!r} in {basis_file}")
            basis_label, basis_file = label, f
    scan = FringeScan(pol.BASES.get(basis_label, pol.RL), tuple(pts))
    fit = fit_fringe(scan, args.theta0)
    write_fit_record(fit, args.out_prefix + ".fit.txt",
                     extra={"basis": basis_label})
    write_plot_data(scan, fit, args.out_prefix + ".plot.txt")
    print(f"visibility {fit.visibility:.3f} +- {fit.visibility_err:.3f} "
          f"(amplitude {fit.amplitude:.1f}, offset {fit.offset:.1f}) "
          f"-> {args.out_prefix}.fit.txt")
    return EXIT_OK


def cmd_tomo(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed {args.seed} must be >= 0")
    # the spread of the replicas needs two of them
    if args.bootstrap < 0 or args.bootstrap == 1:
        raise ConfigError(f"--bootstrap {args.bootstrap} must be 0 (none) "
                          "or >= 2")
    counts = tom.read_counts_table(args.counts)
    rho = tom.mle_reconstruct(counts)
    if args.bootstrap:
        m = tom.bootstrap_metrics(counts, rho, args.bootstrap, args.seed)
    else:
        m = tom.metrics(rho)
    tom.write_density_matrix(rho, args.out_prefix + ".rho.txt")
    with open(args.out_prefix + ".metrics.txt", "w", encoding="utf-8") as fh:
        fh.write(f"fidelity_singlet={m.fidelity_singlet:.9g}\n")
        fh.write(f"concurrence={m.concurrence:.9g}\n")
        fh.write(f"tangle={m.tangle:.9g}\n")
        if m.fidelity_err is not None:
            fh.write(f"fidelity_err={m.fidelity_err:.9g}\n")
            fh.write(f"concurrence_err={m.concurrence_err:.9g}\n")
            fh.write(f"tangle_err={m.tangle_err:.9g}\n")
    print(f"F = {m.fidelity_singlet:.3f}  C = {m.concurrence:.3f}  "
          f"T = {m.tangle:.3f} -> {args.out_prefix}.metrics.txt")
    return EXIT_OK


# --- reproduce: the full published-number pipeline -----------------------------

def _spawned_seeds(master_seed: int, n: int, stream_id: int) -> list[int]:
    """Deterministic per-run seeds: one spawned child per (stage, run)."""
    children = np.random.SeedSequence(master_seed).spawn(stream_id + 1)
    grand = children[stream_id].spawn(n)
    return [int(c.generate_state(1, np.uint64)[0]) for c in grand]


def _extract_run(manifest: RunManifest, overrides: dict):
    """tau=0 coincidences and background of one overridden, simulated run."""
    return extract(histogram_from_stream(simulate_run(
        _apply_overrides(manifest, overrides), counting=True)))


def run_scan(plan: presets.FringePlan, seeds, minutes: float,
             overrides: dict) -> FringeScan:
    """Simulate and correlate one fringe scan, one seed per scan angle."""
    pts = []
    for ang, seed in zip(plan.angles, seeds, strict=True):
        res = _extract_run(
            presets.manifest_for_angle(plan, ang, seed, minutes), overrides)
        pts.append(ScanPoint(ang, res.coincidences, res.background_per_bin,
                             minutes * 60.0))
    return FringeScan(plan.absorber.basis, tuple(pts))


def run_tomography(plan: presets.TomoPlan, seeds, minutes: float,
                   overrides: dict) -> tom.CountsTable:
    """Simulate and correlate the tomography settings, one seed per setting;
    the table holds background-subtracted counts clamped at zero."""
    rows = []
    for setting, seed in zip(plan.settings, seeds, strict=True):
        res = _extract_run(
            presets.manifest_for_setting(plan, setting, seed, minutes),
            overrides)
        corrected = max(0.0, res.coincidences - res.background_per_bin)
        rows.append(tom.CountsRow(setting, corrected, res.coincidences,
                                  res.background_per_bin, minutes * 60.0))
    return tom.CountsTable(tuple(rows))


def reproduce_paper(master_seed: int, out_dir, scale: float = 1.0,
                    overrides: dict | None = None, quiet: bool = False):
    """Run the calibrated fringe scans and the 16-setting tomography, compare
    every reproduced number against its published value, and write a report.

    ``scale`` shrinks all run durations (and the count targets with them) for
    cheap smoke runs; 1.0 is the paper scale. The whole result is computed
    before ``out_dir`` is made: a scan that cannot be fit or a tomography
    that cannot be reconstructed raises DataError or ConvergenceError, as in
    `fringe` and `tomo`, and writes nothing. Unless ``quiet``, prints the
    report table. Returns the report rows.
    """
    if master_seed < 0:
        raise ConfigError("seed must be a non-negative integer")
    if not 0.0 < scale < np.inf:
        raise ConfigError("scale must be finite and > 0")
    overrides = overrides or {}
    fringes, rows = [], []
    for stage, name in enumerate(("rl", "hv", "da")):
        plan = presets.fringe_plan(name)
        seeds = _spawned_seeds(master_seed, len(plan.angles), stage)
        scan = run_scan(plan, seeds, plan.point_minutes * scale, overrides)
        fit = fit_fringe(scan, fringe_params(plan.source, plan.absorber,
                                             plan.theta_ref_deg))
        fringes.append((name, plan, scan, fit))

        t = plan.targets
        at_max = scan.points[list(plan.angles).index(
            presets.ORTHOGONAL_ANGLE_DEG)]
        c_target = t.coincidences * scale
        b_target = t.background * scale
        rows.append((f"{name}_coincidences", at_max.coincidences, c_target,
                     3.0 * np.sqrt(c_target)))
        rows.append((f"{name}_background", at_max.background, b_target,
                     3.0 * np.sqrt(b_target)))
        # a fringe not resolved at 3 sigma has no visibility to compare; its
        # row reads 0, which lies below every target less its tolerance
        resolved = fit.visibility > 3.0 * fit.visibility_err
        rows.append((f"{name}_visibility",
                     fit.visibility if resolved else 0.0, t.visibility,
                     3.0 * presets.PAPER_VISIBILITY_QUOTED_ERR[name]))

    plan = presets.tomo_plan()
    seeds = _spawned_seeds(master_seed, len(plan.settings), 3)
    counts = run_tomography(plan, seeds, plan.setting_minutes * scale,
                            overrides)
    rho = tom.mle_reconstruct(counts)
    m = tom.metrics(rho)
    for key, measured in (("fidelity", m.fidelity_singlet),
                          ("concurrence", m.concurrence),
                          ("tangle", m.tangle)):
        rows.append((key, measured, presets.PAPER_METRIC_TARGETS[key],
                     3.0 * presets.PAPER_METRIC_QUOTED_ERR[key]))

    lines = [f"{'quantity':<18}{'measured':>12}{'published':>12}"
             f"{'tolerance':>12}  verdict"]
    kv_lines = [f"master_seed={master_seed}", f"scale={scale:.9g}"]
    all_pass = True
    for key, measured, target, tol in rows:
        verdict = "PASS" if abs(measured - target) <= tol else "FAIL"
        all_pass &= verdict == "PASS"
        lines.append(f"{key:<18}{measured:>12.3f}{target:>12.3f}"
                     f"{tol:>12.3f}  {verdict}")
        kv_lines += [f"{key}_measured={measured:.9g}",
                     f"{key}_target={target:.9g}",
                     f"{key}_tol={tol:.9g}",
                     f"{key}_verdict={verdict}"]
    kv_lines.append(f"all_pass={all_pass}")
    report = "\n".join(lines)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, plan, scan, fit in fringes:
        write_scan(scan, out / f"scan_{name}.txt")
        write_fit_record(fit, out / f"fit_{name}.txt",
                         extra={"basis": plan.targets.basis_label})
        write_plot_data(scan, fit, out / f"fit_{name}.plot.txt")
    tom.write_counts_table(counts, out / "tomo_counts.txt")
    tom.write_density_matrix(rho, out / "tomo_rho.txt")
    (out / "report.txt").write_text(report + "\n", encoding="utf-8")
    (out / "report.kv").write_text("\n".join(kv_lines) + "\n",
                                   encoding="utf-8")
    if not quiet:
        print(report)
    return rows


def cmd_reproduce(args) -> int:
    reproduce_paper(args.seed, args.out_dir, args.scale,
                    _parse_override_args(args.override), quiet=args.quiet)
    return EXIT_OK


# --- entry point -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ionherald",
        description="Simulate and analyze heralded single-photon absorption "
                    "of polarization-entangled pairs by a trapped ion.")
    sub = p.add_subparsers(dest="command", required=True)

    config_help = "config file sections and keys: " + "; ".join(
        f"[{sec}] {', '.join(sorted(keys))}"
        for sec, keys in _CONFIG_KEYS.items())
    ps = sub.add_parser("simulate", help="generate a time-tagged event file",
                        epilog=config_help)
    ps.add_argument("--config", help="sectioned key=value config file")
    ps.add_argument("--preset", help="named preset (paper-rl, paper-hv, paper-da)")
    ps.add_argument("--angle", type=float, default=None,
                    help="HWP dial angle in degrees (presets only)")
    ps.add_argument("--minutes", type=float, default=None,
                    help="run duration in minutes (presets only)")
    ps.add_argument("--seed", type=int, default=None)
    ps.add_argument("--override", action="append", metavar="SECTION.KEY=V")
    ps.add_argument("--out", required=True)
    ps.set_defaults(func=cmd_simulate)

    pg = sub.add_parser("g2", help="coincidence histogram from an event file")
    pg.add_argument("--events", required=True)
    pg.add_argument("--bin-us", type=float, default=DEFAULT_BIN_US)
    pg.add_argument("--window-bins", type=int, default=DEFAULT_WINDOW_BINS)
    pg.add_argument("--out-prefix", required=True)
    pg.set_defaults(func=cmd_g2)

    pf = sub.add_parser("fringe", help="fit a scan directory of g2 results")
    pf.add_argument("--scan-dir", required=True)
    pf.add_argument("--theta0", type=float, default=0.0,
                    help="fixed offset angle of the fit in degrees")
    pf.add_argument("--out-prefix", required=True)
    pf.set_defaults(func=cmd_fringe)

    pt = sub.add_parser("tomo", help="reconstruct the state from a counts table")
    pt.add_argument("--counts", required=True)
    pt.add_argument("--bootstrap", type=int, default=0,
                    help="parametric bootstrap replicas for error bars "
                         "(0 for none, else at least 2)")
    pt.add_argument("--seed", type=int, default=0)
    pt.add_argument("--out-prefix", required=True)
    pt.set_defaults(func=cmd_tomo)

    pr = sub.add_parser("reproduce",
                        help="run all paper presets and compare to the "
                             "published numbers")
    pr.add_argument("--seed", type=int, default=42)
    pr.add_argument("--out-dir", required=True)
    pr.add_argument("--scale", type=float, default=1.0,
                    help="duration scale factor (1.0 = paper scale)")
    pr.add_argument("--override", action="append", metavar="SECTION.KEY=V")
    pr.add_argument("--quiet", action="store_true")
    pr.set_defaults(func=cmd_reproduce)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except MemoryError as exc:
        # numpy names the allocation it could not make
        print(f"config error: the run is too large to simulate in this "
              f"memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
