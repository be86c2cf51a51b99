import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ionherald import sim
from ionherald.cli import (EXIT_CONFIG, EXIT_CONVERGENCE, EXIT_DATA, EXIT_OK,
                           load_manifest_config, main, reproduce_paper)
from ionherald.errors import DataError
from ionherald.sim import FILE_MAGIC, read_events


# report.kv of `ionherald reproduce --seed 42 --scale 0.1`, recorded with
# numpy 2.4.6. Another numpy release may draw different Poisson streams from
# the same seeds.
GOLDEN_NUMPY = "2.4.6"
GOLDEN_REPORT_KV = """\
master_seed=42
scale=0.1
rl_coincidences_measured=5
rl_coincidences_target=7.3
rl_coincidences_tol=8.10555365
rl_coincidences_verdict=PASS
rl_background_measured=1.38613861
rl_background_target=1.5
rl_background_tol=3.67423461
rl_background_verdict=PASS
rl_visibility_measured=0
rl_visibility_target=0.56
rl_visibility_tol=0.18
rl_visibility_verdict=FAIL
hv_coincidences_measured=8
hv_coincidences_target=9.2
hv_coincidences_tol=9.09945053
hv_coincidences_verdict=PASS
hv_background_measured=2.37623762
hv_background_target=2.4
hv_background_tol=4.64758002
hv_background_verdict=PASS
hv_visibility_measured=0.588235294
hv_visibility_target=0.52
hv_visibility_tol=0.33
hv_visibility_verdict=PASS
da_coincidences_measured=9
da_coincidences_target=6.7
da_coincidences_tol=7.76530746
da_coincidences_verdict=PASS
da_background_measured=1.93069307
da_background_target=2.1
da_background_tol=4.34741302
da_background_verdict=PASS
da_visibility_measured=0.741935484
da_visibility_target=0.5
da_visibility_tol=0.27
da_visibility_verdict=PASS
fidelity_measured=0.660766793
fidelity_target=0.93
fidelity_tol=0.12
fidelity_verdict=FAIL
concurrence_measured=0.62888879
concurrence_target=0.93
concurrence_tol=0.18
concurrence_verdict=FAIL
tangle_measured=0.395501111
tangle_target=0.86
tangle_tol=0.33
tangle_verdict=FAIL
all_pass=False
"""


CONFIG_TEXT = """\
[run]
seed = 5
duration_s = 30

[source]
singlet_weight = 0.9

[rates]
pair_rate = 40
eta_trigger = 0.4
eta_herald = 0.07
dark_trigger_rate = 100
false_onset_rate = 1.0

[absorber]
basis = HV
allowed = plus

[analyzer]
basis = HV
hwp_deg = 45
"""


def read_kv(path):
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if "=" in line:
                k, v = line.strip().split("=", 1)
                out[k] = v
    return out


class TestConfig:
    def test_load_manifest(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(CONFIG_TEXT, encoding="utf-8")
        m = load_manifest_config(cfg)
        assert m.seed == 5
        assert m.source.singlet_weight == pytest.approx(0.9)
        assert m.rates.pair_rate == pytest.approx(40.0)
        assert m.rates.dark_trigger_rate == pytest.approx(100.0)
        assert m.absorber.basis.label == "HV"

    @pytest.mark.parametrize("entry", [
        "[rates]\neta_trigger = abc", "[run]\nseed = nan",
        "[run]\nseed = 1.5", "seed = 5", "[rates]\neta_trigger = 10%",
        "[run]\nseed = 1\nseed = 2", "[run]\nseed = 1\n[run]\nseed = 2",
        "[absorber]\nbasis = H\xff", "[analyzer]\nhwp_deg = nan",
        "[absorber]\nallowed = sideways", "[run]\nduration_s = -1",
        "[run]\nseed = abc", "[absorber]\nbasis = XY",
        "[analyzer]\nbasis = XY"])
    def test_bad_config_value(self, tmp_path, capsys, entry):
        cfg = tmp_path / "bad.ini"
        # latin-1 turns the one non-ASCII character into a non-UTF-8 byte
        cfg.write_bytes((entry + "\n").encode("latin-1"))
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "e.txt")]) == EXIT_CONFIG
        assert "bad.ini" in capsys.readouterr().err

    def test_default_section_rejected_by_name(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[DEFAULT]\nseed = 3\n[rates]\neta_trigger = 0.1\n",
                       encoding="utf-8")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "e.txt")]) == EXIT_CONFIG
        assert "bad.ini: unknown section [DEFAULT]" in capsys.readouterr().err

    def test_config_sections_validated_whole(self, tmp_path):
        # 20 Hz fits 30 + 15 + 5 ms, but not the 100 ms default phases
        cfg = tmp_path / "run.ini"
        cfg.write_text("[sequence]\nrep_rate = 20\nprep_ms = 15\n"
                       "detect_ms = 5\n[rates]\npair_rate = 3\n",
                       encoding="utf-8")
        m = load_manifest_config(cfg)
        assert (m.sequence.rep_rate, m.sequence.detect_ms) == (20.0, 5.0)
        assert m.rates.pair_rate == 3.0

    def test_unknown_key_named_in_error(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[rates]\nnot_a_knob = 3\n", encoding="utf-8")
        rc = main(["simulate", "--config", str(cfg),
                   "--out", str(tmp_path / "x.txt")])
        assert rc == EXIT_CONFIG

    def test_unknown_key_message(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[rates]\nnot_a_knob = 3\n", encoding="utf-8")
        main(["simulate", "--config", str(cfg),
              "--out", str(tmp_path / "x.txt")])
        assert "not_a_knob" in capsys.readouterr().err

    @pytest.mark.parametrize("override", [
        "rates.eta_trigger=abc", "rates.dark_trigger_rate=nan",
        "sequence.rep_rate=nan", "rates.onset_latency_us=inf",
        "source.pair_rate=inf", "rates.dark_trigger_rate=1e300",
        "rates.false_onset_rate=1e300", "source.pair_rate=3",
        "rates.pair_rate=0"])
    def test_bad_override_value(self, tmp_path, override):
        assert main(["simulate", "--preset", "paper-rl", "--minutes", "1",
                     "--override", override,
                     "--out", str(tmp_path / "e.txt")]) == EXIT_CONFIG

    def test_negative_zero_latency(self, tmp_path):
        # -0.0 passes RateConfig; numpy's exponential refuses its sign
        assert main(["simulate", "--preset", "paper-rl", "--minutes", "1",
                     "--override", "rates.onset_latency_us=-0",
                     "--out", str(tmp_path / "e.txt")]) == 0

    def test_lag_window_wider_than_any_stamp(self, tmp_path):
        # found by the argv fuzz, as were the two below: each ended in a
        # raw exception
        events = str(tmp_path / "e.txt")
        assert main(["simulate", "--preset", "paper-rl", "--minutes", "0.05",
                     "--out", events]) == 0
        assert main(["g2", "--events", events, "--bin-us", "1e300",
                     "--out-prefix", str(tmp_path / "g")]) == EXIT_DATA

    def test_lag_window_of_too_many_bins(self, tmp_path, capsys):
        events = str(tmp_path / "e.txt")
        assert main(["simulate", "--preset", "paper-rl", "--minutes", "0.05",
                     "--out", events]) == 0
        assert main(["g2", "--events", events, "--bin-us", "0.001",
                     "--window-bins", "10000000000000",
                     "--out-prefix", str(tmp_path / "g")]) == EXIT_DATA
        assert "bins" in capsys.readouterr().err

    def test_lag_window_of_no_side_bin(self, tmp_path, capsys):
        events = str(tmp_path / "e.txt")
        assert main(["simulate", "--preset", "paper-rl", "--minutes", "0.05",
                     "--out", events]) == 0
        assert main(["g2", "--events", events, "--window-bins", "0",
                     "--out-prefix", str(tmp_path / "g")]) == EXIT_DATA
        assert "no side bin" in capsys.readouterr().err
        assert not (tmp_path / "g.res.txt").exists()

    def test_negative_bootstrap_seed(self, tmp_path):
        from ionherald import tomography as tom
        from ionherald import polarization as pol
        counts = str(tmp_path / "counts.txt")
        tom.write_counts_table(tom.counts_table_from_values(
            tom.expected_counts(pol.singlet(), normalization=100.0)), counts)
        assert main(["tomo", "--counts", counts, "--bootstrap", "2",
                     "--seed", "-1", "--out-prefix",
                     str(tmp_path / "t")]) == EXIT_CONFIG

    @pytest.mark.parametrize("replicas, code", [
        ("-1", EXIT_CONFIG), ("1", EXIT_CONFIG), ("0", EXIT_OK),
        ("2", EXIT_OK)])
    def test_bootstrap_replicas(self, tmp_path, monkeypatch, capsys,
                                replicas, code):
        # the spread of the replicas needs two of them: a negative count or
        # one replica is refused before the table is read, and none is no
        # bootstrap
        from ionherald import tomography as tom
        from ionherald import polarization as pol
        counts = tmp_path / "counts.txt"
        tom.write_counts_table(tom.counts_table_from_values(
            tom.expected_counts(pol.singlet(), normalization=100.0)), counts)
        read = tom.read_counts_table
        calls = []
        monkeypatch.setattr(tom, "read_counts_table",
                            lambda *a: calls.append(1) or read(*a))
        assert main(["tomo", "--counts", str(counts), "--bootstrap",
                     replicas, "--out-prefix", str(tmp_path / "t")]) == code
        if code == EXIT_CONFIG:
            assert capsys.readouterr().err == (
                f"config error: --bootstrap {replicas} must be 0 (none) or "
                ">= 2\n")
            assert not calls
            assert [p.name for p in tmp_path.iterdir()] == ["counts.txt"]
        else:
            kv = read_kv(tmp_path / "t.metrics.txt")
            assert ("fidelity_err" in kv) == (replicas == "2")

    def test_trial_windows_below_one_ns_apart(self, tmp_path, capsys):
        assert main(["simulate", "--preset", "paper-rl", "--minutes", "1",
                     "--override", "sequence.cooling_ms=4e-7",
                     "--override", "sequence.prep_ms=4e-7",
                     "--out", str(tmp_path / "e.txt")]) == EXIT_CONFIG
        assert "cooling_ms + prep_ms" in capsys.readouterr().err

    def test_clicks_per_run_beyond_numpy(self, tmp_path, capsys):
        # legal per 50 ms window (5e17), not over the run's 600 trials
        assert main(["simulate", "--preset", "paper-rl", "--minutes", "1",
                     "--override", "rates.dark_trigger_rate=1e19",
                     "--out", str(tmp_path / "e.txt")]) == EXIT_CONFIG
        assert "events per run" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("theta0", ["inf", "-inf", "nan", "1e300"])
    def test_fringe_theta0_not_finite(self, tmp_path, capsys, theta0):
        # inf and nan are refused by name; 1e300 leaves one distinct
        # regressor value, which the fit refuses
        scan = tmp_path / "scan"
        scan.mkdir()
        for angle, counts in zip((0, 15, 30, 45, 60, 75),
                                 (9, 30, 70, 95, 72, 28)):
            (scan / f"p{angle}.res.txt").write_text(
                f"coincidences={counts}\nbackground_per_bin=4.5\n"
                f"duration_s=3600.0\nbasis=RL\nhwp_angle_deg={angle}.0\n",
                encoding="utf-8")
        assert main(["fringe", "--scan-dir", str(scan), f"--theta0={theta0}",
                     "--out-prefix", str(tmp_path / "f")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert ("--theta0" in err) == (theta0 != "1e300")

    @pytest.mark.parametrize("argv", [
        ["simulate", "--preset", "paper-rl", "--minutes", "nan", "--out"],
        ["reproduce", "--scale", "inf", "--quiet", "--out-dir"]])
    def test_non_finite_duration(self, tmp_path, argv):
        assert main(argv + [str(tmp_path / "out")]) == EXIT_CONFIG

    @pytest.mark.parametrize("angle", ["nan", "inf", "-inf"])
    def test_non_finite_angle(self, tmp_path, capsys, angle):
        # a command-line setting: a config error that names the angle, and
        # no file
        out = tmp_path / "e.txt"
        assert main(["simulate", "--preset", "paper-hv", "--minutes", "1",
                     f"--angle={angle}", "--out", str(out)]) == EXIT_CONFIG
        assert f"angle {float(angle)} is not a finite" in capsys.readouterr().err
        assert not out.exists()


class TestSimulateCommand:
    def test_config_run(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(CONFIG_TEXT, encoding="utf-8")
        out = tmp_path / "ev.txt"
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(out)]) == 0
        stream = read_events(out)
        assert len(stream.apd_times()) > 0

    def test_zero_duration(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(CONFIG_TEXT.replace("duration_s = 30",
                                           "duration_s = 0"),
                       encoding="utf-8")
        out = tmp_path / "empty.txt"
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(out)]) == 0
        assert len(read_events(out)) == 0

    def test_same_seed_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        for p in (p1, p2):
            assert main(["simulate", "--preset", "paper-rl", "--minutes",
                         "2", "--seed", "9", "--out", str(p)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("at", ["draws", "far blocks"])
    def test_run_too_large_is_a_config_error(self, tmp_path, monkeypatch,
                                             capsys, at):
        # an allocation numpy cannot make, before the file is opened (the
        # regions) or while its blocks are written (the second stamping,
        # the far clicks'): exit 2 and neither the file nor its part left
        name, calls = ("_regions", 1) if at == "draws" else ("_stamp_part", 2)
        real = getattr(sim, name)

        def short_of_memory(*args):
            nonlocal calls
            calls -= 1
            if not calls:
                assert (at == "draws") == (os.listdir(tmp_path) == [])
                raise MemoryError("Unable to allocate 7.28 TiB")
            return real(*args)

        monkeypatch.setattr(sim, name, short_of_memory)
        out = tmp_path / "huge.events"
        assert main(["simulate", "--preset", "paper-hv", "--minutes", "1",
                     "--out", str(out)]) == EXIT_CONFIG
        assert "too large to simulate" in capsys.readouterr().err
        assert not calls
        assert os.listdir(tmp_path) == []

    def test_reproduce_too_large_is_a_config_error(self, tmp_path,
                                                   monkeypatch, capsys):
        def short_of_memory(*args):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr(sim, "_regions", short_of_memory)
        out = tmp_path / "reproduce"
        assert main(["reproduce", "--scale", "1e6", "--quiet", "--out-dir",
                     str(out)]) == EXIT_CONFIG
        assert "too large to simulate" in capsys.readouterr().err
        assert not out.exists()


def edit_header(data: bytes, section: str, key: str | None, value) -> bytes:
    """An event file whose manifest has `value` at section[.key]."""
    header, body = data.split(b"\n", 1)
    manifest = json.loads(header[len(FILE_MAGIC):])
    if key is None:
        manifest[section] = value
    else:
        manifest[section][key] = value
    return (FILE_MAGIC + json.dumps(manifest)).encode() + b"\n" + body


class TestG2BadEventFile:
    """`g2 --events` on a broken file names the line and exits 3."""

    @pytest.fixture(scope="class")
    def valid(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("ev") / "ok.txt"
        assert main(["simulate", "--preset", "paper-hv", "--minutes", "0.5",
                     "--seed", "3", "--out", str(path)]) == 0
        return path.read_bytes()

    @pytest.mark.parametrize("edit, line", [
        (lambda d: d + b"9223372036854775808\tAPD\t5\tDETECT\n", "line 4"),
        (lambda d: d + b"1\tAPD\t5\xff\tDETECT\n", "line 4"),
        (lambda d: d.replace(b'"HV"', b'"H\xffV"', 1), "line 1"),
        (lambda d: edit_header(d, "source", "ideal_state_re", [[0.0, 1.0]]),
         "line 1"),
        (lambda d: edit_header(d, "absorber", "allowed", [[1.0, 0.0]]),
         "line 1"),
        (lambda d: edit_header(d, "duration_s", None, -1), "line 1"),
        (lambda d: edit_header(d, "seed", None, 1.5), "line 1"),
        # a 0.5 min run has trials 0 to 299
        (lambda d: d + b"300\tAPD\t5\tDETECT\n", "line 4"),
        # trial 0 detects from 50 to 100 ms, trial 1 from 150 to 200 ms
        (lambda d: d.replace(d.split(b"\n")[1], b"0\tAPD\t5\tDETECT"),
         "line 2"),
        (lambda d: d + b"1\tAPD\t250000000\tDETECT\n", "line 4"),
    ], ids=["field_above_int64", "non_utf8_record", "non_utf8_header",
            "ideal_state_shape", "one_element_state", "negative_duration",
            "fractional_seed", "trial_outside_manifest",
            "stamp_before_window", "stamp_after_window"])
    def test_exits_3(self, tmp_path, capsys, valid, edit, line):
        # keep the first two records, so a record added is line 4
        kept = b"\n".join(valid.split(b"\n")[:3]) + b"\n"
        path = tmp_path / "bad.txt"
        path.write_bytes(edit(kept))
        assert main(["g2", "--events", str(path),
                     "--out-prefix", str(tmp_path / "g")]) == EXIT_DATA
        assert f"bad.txt: {line}: " in capsys.readouterr().err


class TestG2OneRead:
    """`g2` reads its file once, from its first byte to its last: a pipe
    reads as the file does, a refused lag window reads no record, and a
    file's first record at fault in file order is named."""

    @pytest.fixture(scope="class")
    def five_minutes(self, tmp_path_factory):
        # a 5-min paper-hv run, ~4 MB: several read blocks
        path = tmp_path_factory.mktemp("ev") / "hv.events"
        assert main(["simulate", "--preset", "paper-hv", "--angle", "45",
                     "--minutes", "5", "--seed", "7", "--out",
                     str(path)]) == 0
        return path

    def test_pipe_reads_as_the_file(self, tmp_path, five_minutes):
        # the file through a pipe on stdin: the same histogram and result
        assert main(["g2", "--events", str(five_minutes), "--out-prefix",
                     str(tmp_path / "file")]) == 0
        src = Path(sim.__file__).parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "ionherald.cli", "g2", "--events",
             "/dev/stdin", "--out-prefix", str(tmp_path / "pipe")],
            input=five_minutes.read_bytes(), capture_output=True,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        for suffix in (".hist.txt", ".res.txt"):
            assert (tmp_path / f"pipe{suffix}").read_bytes() \
                == (tmp_path / f"file{suffix}").read_bytes()

    def test_refused_lag_window_reads_no_record(self, tmp_path, capsys,
                                                monkeypatch, five_minutes):
        def no_read(*args):
            raise AssertionError("a record was read")
        monkeypatch.setattr(sim, "_shaped_lines", no_read)
        monkeypatch.setattr(sim, "_parse_records", no_read)
        assert main(["g2", "--events", str(five_minutes), "--bin-us",
                     "1e300", "--out-prefix", str(tmp_path / "g")]) \
            == EXIT_DATA
        assert capsys.readouterr().err == (
            "data error: lag window of 50 bins of 1e+300 us is wider than "
            "1e+18 ns\n")

    def test_first_of_two_faults_is_named(self, tmp_path, capsys,
                                          five_minutes):
        # an APD stamp before trial 0's window on line 2, and a trial past
        # the manifest's on the last line: line 2 is named, by read_events
        # and g2 alike
        header, first, rest = five_minutes.read_bytes().split(b"\n", 2)
        assert first.startswith(b"0\tAPD\t")
        rest = rest.rstrip(b"\n").rsplit(b"\n", 1)
        last = rest[1].split(b"\t")
        path = tmp_path / "two.events"
        path.write_bytes(b"\n".join([
            header, b"0\tAPD\t1\tDETECT", rest[0],
            b"\t".join([b"999999999", *last[1:]])]) + b"\n")
        message = (f"{path}: line 2: APD stamp 1 outside the detection "
                   "window of trial 0")
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            read_events(path)
        assert main(["g2", "--events", str(path), "--out-prefix",
                     str(tmp_path / "g")]) == EXIT_DATA
        assert capsys.readouterr().err == f"data error: {message}\n"


class TestUnknownHeaderKeys:
    """A key of the manifest that the reader does not know is passed over,
    in every section and at the top level alike."""

    @pytest.mark.parametrize("section", ["source", "absorber", "analyzer",
                                         "sequence", "rates", None])
    def test_passed_over(self, tmp_path, section):
        path = tmp_path / "run.events"
        assert main(["simulate", "--preset", "paper-hv", "--minutes", "0.5",
                     "--seed", "3", "--out", str(path)]) == 0
        assert main(["g2", "--events", str(path),
                     "--out-prefix", str(tmp_path / "plain")]) == 0
        data = path.read_bytes()
        typo = tmp_path / "typo.events"
        typo.write_bytes(edit_header(data, "typo_key", None, 1.0)
                         if section is None
                         else edit_header(data, section, "typo_key", 1.0))
        assert main(["g2", "--events", str(typo),
                     "--out-prefix", str(tmp_path / "typo")]) == 0
        for suffix in (".hist.txt", ".res.txt"):
            assert (tmp_path / f"typo{suffix}").read_bytes() \
                == (tmp_path / f"plain{suffix}").read_bytes()
        assert read_events(typo) == read_events(path)


def write_scan_dir(path, edit):
    """Six g2 result files of a clean fringe; ``edit`` rewrites the bytes of
    the 30-degree one."""
    for angle, counts in zip((0, 15, 30, 45, 60, 75), (9, 30, 70, 95, 72, 28)):
        data = (f"coincidences={counts}\nbackground_per_bin=4.5\n"
                f"duration_s=3600.0\nbasis=RL\nhwp_angle_deg={angle}.0\n"
                ).encode()
        if angle == 30:
            data = edit(data)
        (path / f"p{angle}.res.txt").write_bytes(data)


class TestReadersExit3:
    """`fringe --scan-dir` and `tomo --counts` on a broken file name it and
    exit 3, never with a traceback or a NaN result."""

    @pytest.mark.parametrize("edit", [
        lambda d: d.replace(b"basis=RL", b"basis=R\xffL"),
        lambda d: d.replace(b"hwp_angle_deg=30.0", b"hwp_angle_deg=nan"),
        lambda d: d.replace(b"coincidences=70", b"coincidences=inf"),
        lambda d: d.replace(b"background_per_bin=4.5",
                            b"background_per_bin=-inf"),
        lambda d: d.replace(b"basis=RL", b"basis=HV"),
        lambda d: d.replace(b"basis=RL", b"basis=XY"),
    ], ids=["non_utf8", "nan_angle", "inf_counts", "inf_background",
            "mixed_bases", "unknown_basis"])
    def test_fringe(self, tmp_path, capsys, edit):
        write_scan_dir(tmp_path, edit)
        assert main(["fringe", "--scan-dir", str(tmp_path),
                     "--out-prefix", str(tmp_path / "f")]) == EXIT_DATA
        assert "p30.res.txt: " in capsys.readouterr().err
        assert not (tmp_path / "f.fit.txt").exists()

    def test_tomo_non_utf8(self, tmp_path, capsys):
        from ionherald import tomography as tom
        from ionherald import polarization as pol
        lam = tom.expected_counts(pol.singlet(), normalization=100.0) + 5.0
        table = tom.counts_table_from_values(lam - 5.0,
                                             raw=np.rint(lam).astype(int),
                                             background=np.full(16, 5.0))
        path = tmp_path / "counts.txt"
        tom.write_counts_table(table, path)
        path.write_bytes(path.read_bytes().replace(b"\tH\t", b"\tH\xe9\t", 1))
        assert main(["tomo", "--counts", str(path),
                     "--out-prefix", str(tmp_path / "t")]) == EXIT_DATA
        assert "counts.txt: not UTF-8" in capsys.readouterr().err


class TestPipeline:
    def test_simulate_g2_fringe(self, tmp_path):
        # a fast, bright synthetic scan through the file-based pipeline
        for i, angle in enumerate((0.0, 15.0, 30.0, 45.0, 60.0, 75.0)):
            assert main([
                "simulate", "--preset", "paper-rl", "--minutes", "6",
                "--angle", str(angle), "--seed", str(100 + i),
                "--override", "rates.pair_rate=120",
                "--override", "rates.eta_herald=0.5",
                "--out", str(tmp_path / f"ev{i}.txt")]) == 0
            assert main([
                "g2", "--events", str(tmp_path / f"ev{i}.txt"),
                "--out-prefix", str(tmp_path / f"g{i}")]) == 0
        assert main(["fringe", "--scan-dir", str(tmp_path), "--theta0", "0",
                     "--out-prefix", str(tmp_path / "fit")]) == 0
        kv = read_kv(tmp_path / "fit.fit.txt")
        # bright scan: visibility ~ singlet weight over the accidental floor
        assert 0.6 < float(kv["visibility"]) <= 1.0
        assert float(kv["amplitude"]) > 4 * float(kv["offset"])

    def test_g2_on_missing_file(self, tmp_path):
        assert main(["g2", "--events", str(tmp_path / "nope.txt"),
                     "--out-prefix", str(tmp_path / "x")]) == EXIT_DATA

    def test_tomo_command(self, tmp_path):
        from ionherald import tomography as tom
        from ionherald import polarization as pol
        rng = np.random.default_rng(8)
        lam = tom.expected_counts(pol.werner(0.95), normalization=400.0) + 10.0
        raw = rng.poisson(lam)
        table = tom.counts_table_from_values(np.maximum(0.0, raw - 10.0),
                                             raw=raw,
                                             background=np.full(16, 10.0))
        tom.write_counts_table(table, tmp_path / "counts.txt")
        assert main(["tomo", "--counts", str(tmp_path / "counts.txt"),
                     "--out-prefix", str(tmp_path / "t")]) == 0
        kv = read_kv(tmp_path / "t.metrics.txt")
        assert 0.7 < float(kv["fidelity_singlet"]) <= 1.0
        assert float(kv["tangle"]) == pytest.approx(
            float(kv["concurrence"]) ** 2, abs=1e-6)
        assert (tmp_path / "t.rho.txt").exists()

    def test_tomo_bootstrap_errors(self, tmp_path):
        from ionherald import tomography as tom
        from ionherald import polarization as pol
        rng = np.random.default_rng(9)
        lam = tom.expected_counts(pol.singlet(), normalization=130.0) + 14.0
        raw = rng.poisson(lam)
        table = tom.counts_table_from_values(np.maximum(0.0, raw - 14.0),
                                             raw=raw,
                                             background=np.full(16, 14.0))
        tom.write_counts_table(table, tmp_path / "counts.txt")
        assert main(["tomo", "--counts", str(tmp_path / "counts.txt"),
                     "--bootstrap", "40", "--seed", "1",
                     "--out-prefix", str(tmp_path / "tb")]) == 0
        kv = read_kv(tmp_path / "tb.metrics.txt")
        assert 0.0 < float(kv["fidelity_err"]) < 0.2
        assert 0.0 < float(kv["tangle_err"]) < 0.4

    def test_tomo_bootstrap_fits_the_table_once(self, tmp_path, monkeypatch):
        # N replicas and the table itself: N + 1 fits
        from ionherald import tomography as tom
        from ionherald import polarization as pol
        lam = tom.expected_counts(pol.singlet(), normalization=130.0)
        table = tom.counts_table_from_values(
            np.random.default_rng(9).poisson(lam).astype(float))
        tom.write_counts_table(table, tmp_path / "counts.txt")
        fit = tom.mle_reconstruct
        calls = []
        monkeypatch.setattr(tom, "mle_reconstruct",
                            lambda *a, **k: calls.append(1) or fit(*a, **k))
        assert main(["tomo", "--counts", str(tmp_path / "counts.txt"),
                     "--bootstrap", "5", "--out-prefix",
                     str(tmp_path / "tb")]) == 0
        assert len(calls) == 6

    @pytest.mark.parametrize("failed, code", [({2, 5}, EXIT_OK),
                                              ({1, 3, 4, 6, 8, 10},
                                               EXIT_CONVERGENCE)])
    def test_tomo_bootstrap_failed_replicas(self, tmp_path, monkeypatch,
                                            capsys, failed, code):
        # fit 0 is the table itself, fits 1..10 the replicas: a failed
        # replica is skipped, and fewer than half converged is an error
        from ionherald import tomography as tom
        from ionherald import polarization as pol
        from ionherald.errors import ConvergenceError
        lam = tom.expected_counts(pol.singlet(), normalization=130.0)
        table = tom.counts_table_from_values(
            np.random.default_rng(9).poisson(lam).astype(float))
        tom.write_counts_table(table, tmp_path / "counts.txt")
        fit = tom.mle_reconstruct
        calls = []

        def failing(*a, **k):
            calls.append(1)
            if len(calls) - 1 in failed:
                raise ConvergenceError("replica did not converge")
            return fit(*a, **k)
        monkeypatch.setattr(tom, "mle_reconstruct", failing)
        assert main(["tomo", "--counts", str(tmp_path / "counts.txt"),
                     "--bootstrap", "10", "--out-prefix",
                     str(tmp_path / "tb")]) == code
        assert len(calls) == 11
        if code == EXIT_OK:
            kv = read_kv(tmp_path / "tb.metrics.txt")
            assert 0.0 < float(kv["fidelity_err"]) < 0.2
        else:
            assert "only 4/10 replicas converged" in capsys.readouterr().err
            assert not (tmp_path / "tb.metrics.txt").exists()

    def test_tomo_rows_in_any_order(self, tmp_path):
        # the seed-42 paper-scale table of `reproduce`, rows shuffled
        from ionherald import presets
        from ionherald import tomography as tom
        from ionherald.cli import _spawned_seeds, run_tomography
        plan = presets.tomo_plan()
        tom.write_counts_table(run_tomography(
            plan, _spawned_seeds(42, len(plan.settings), 3),
            plan.setting_minutes, {}), tmp_path / "counts.txt")
        header, *rows = (tmp_path / "counts.txt").read_text().splitlines()
        order = np.random.default_rng(1).permutation(len(rows))
        (tmp_path / "shuffled.txt").write_text(
            "\n".join([header] + [rows[i] for i in order]) + "\n")
        for name in ("counts", "shuffled"):
            assert main(["tomo", "--counts", str(tmp_path / f"{name}.txt"),
                         "--bootstrap", "3",
                         "--out-prefix", str(tmp_path / name)]) == 0
        for suffix in (".rho.txt", ".metrics.txt"):
            assert (tmp_path / f"shuffled{suffix}").read_bytes() == \
                (tmp_path / f"counts{suffix}").read_bytes()

    def test_tomo_non_numeric_cell(self, tmp_path, capsys):
        from ionherald import tomography as tom
        from ionherald import polarization as pol
        lam = tom.expected_counts(pol.singlet(), normalization=100.0) + 5.0
        table = tom.counts_table_from_values(lam - 5.0,
                                             raw=np.rint(lam).astype(int),
                                             background=np.full(16, 5.0))
        path = tmp_path / "counts.txt"
        tom.write_counts_table(table, path)
        lines = path.read_text().splitlines()
        cells = lines[3].split("\t")
        cells[3] = "abc"
        lines[3] = "\t".join(cells)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["tomo", "--counts", str(path),
                     "--out-prefix", str(tmp_path / "t")]) == EXIT_DATA
        assert "counts.txt: line 4:" in capsys.readouterr().err

    def test_console_entry_point(self, tmp_path):
        # the installed package is callable as a subprocess module
        proc = subprocess.run(
            [sys.executable, "-m", "ionherald.cli", "simulate",
             "--preset", "paper-rl", "--minutes", "1", "--seed", "0",
             "--out", str(tmp_path / "e.txt")],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "simulated" in proc.stdout


class TestReproduce:
    # at half scale every verdict passes for most master seeds, not all:
    # over master seeds 0-199 some row fails for 46 (23 %), most often
    # rl_visibility (21) and da_visibility (14), and the concurrence row
    # for 6, so the seeds are fixed like any other golden input
    SCALE = 0.5

    def test_verdicts_identical_across_seeds(self, tmp_path):
        rows_a = reproduce_paper(202, tmp_path / "a", scale=self.SCALE,
                                 quiet=True)
        rows_b = reproduce_paper(303, tmp_path / "b", scale=self.SCALE,
                                 quiet=True)
        verdicts_a = [abs(m - t) <= tol for _, m, t, tol in rows_a]
        verdicts_b = [abs(m - t) <= tol for _, m, t, tol in rows_b]
        assert verdicts_a == verdicts_b
        assert all(verdicts_a)
        kv = read_kv(tmp_path / "a" / "report.kv")
        assert kv["scale"] == "0.5"

    def test_corrupted_preset_fails_visibility(self, tmp_path):
        rows = reproduce_paper(7, tmp_path / "bad", scale=0.25,
                               overrides={"rates.eta_herald": "0"},
                               quiet=True)
        by_key = {k: (m, t, tol) for k, m, t, tol in rows}
        for key in ("rl_visibility", "hv_visibility", "da_visibility"):
            m, t, tol = by_key[key]
            assert abs(m - t) > tol, f"{key} should FAIL with no signal"

    def test_outputs_written(self, tmp_path):
        reproduce_paper(11, tmp_path / "r", scale=0.05, quiet=True)
        for name in ("report.txt", "report.kv", "scan_rl.txt", "fit_hv.txt",
                     "tomo_counts.txt", "tomo_rho.txt"):
            assert (tmp_path / "r" / name).exists()

    @pytest.mark.parametrize("argv", [["--seed", "-1"],
                                      ["--scale", "nan"], ["--scale", "inf"]])
    def test_bad_seed_or_scale_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "r"
        assert main(["reproduce", "--out-dir", str(out), "--quiet",
                     *argv]) == EXIT_CONFIG
        assert "Traceback" not in capsys.readouterr().err
        # refused before the output directory is made
        assert not out.exists()

    @pytest.mark.parametrize("seed, error", [
        ("1", "degenerate fit: all counts are zero"),
        ("3", "normalization subset has no counts")])
    def test_degenerate_run_writes_nothing(self, tmp_path, capsys, seed,
                                           error):
        # seed 1 leaves a fringe scan that cannot be fit, seed 3 a
        # tomography that cannot be reconstructed: both are data errors
        out = tmp_path / "r"
        assert main(["reproduce", "--seed", seed, "--scale", "0.004",
                     "--quiet", "--out-dir", str(out)]) == EXIT_DATA
        assert error in capsys.readouterr().err
        assert not out.exists()

    def test_deterministic(self, tmp_path):
        r1 = reproduce_paper(33, tmp_path / "x", scale=0.05, quiet=True)
        r2 = reproduce_paper(33, tmp_path / "y", scale=0.05, quiet=True)
        assert r1 == r2
        assert (tmp_path / "x" / "report.kv").read_bytes() == \
            (tmp_path / "y" / "report.kv").read_bytes()


class TestGoldenReport:
    def test_seed_42_report_is_pinned(self, tmp_path):
        if np.__version__.split(".")[:2] != GOLDEN_NUMPY.split(".")[:2]:
            pytest.skip(f"golden report recorded with numpy {GOLDEN_NUMPY}, "
                        f"this is numpy {np.__version__}")
        reproduce_paper(42, tmp_path, scale=0.1, quiet=True)
        text = (tmp_path / "report.kv").read_text(encoding="utf-8")
        assert text == GOLDEN_REPORT_KV, f"recorded with numpy {GOLDEN_NUMPY}"
