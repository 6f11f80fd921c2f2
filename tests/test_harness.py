import json
import math
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import run_cli

from fracpme import energy as energy_mod
from fracpme import evolve, harness, transport
from fracpme.grid import Grid, normalize
from fracpme.harness import main
from fracpme.steady import barenblatt, c_star, discrete_minimizer

def readme_stats_keys() -> set[str]:
    """The keys of the first column of the README's stats.json table."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = text.split("`simulate` also writes `stats.json`", 1)[1].split("\n\n", 2)[1]
    rows = [line.split("|")[1] for line in table.splitlines() if line.startswith("| `")]
    return {key for cell in rows for key in re.findall(r"`([^`]+)`", cell)}


class TestExitCodes:
    def test_invalid_s_is_config_error(self, tmp_path):
        code = main(
            ["simulate", "--s", "1.5", "--grid-n", "64", "--t-end", "0.1", "--out-dir", str(tmp_path)]
        )
        assert code == 2

    def test_nonfinite_eps_is_config_error(self, tmp_path):
        # a NaN eps passed every sign check, and the march then never reached t_end
        args = ["simulate", "--s", "0.25", "--grid-n", "128", "--eps", "nan", "--out-dir", str(tmp_path)]
        res = run_cli(args, timeout=60)
        assert res.returncode == 2
        assert "eps must be finite" in res.stderr

    def test_unknown_suite_is_config_error(self):
        assert main(["verify", "--suite", "bogus", "--samples", "2"]) == 2

    def test_bad_flag_is_config_error(self):
        assert main(["simulate", "--no-such-flag", "1"]) == 2

    @pytest.mark.parametrize("lam", ["--lambda=-0.4", "--lambda=0"])
    def test_nonpositive_lambda_is_config_error(self, tmp_path, lam):
        assert main(["verify", lam, "--samples", "1", "--out", str(tmp_path / "report.json")]) == 2

    @pytest.mark.parametrize(
        "line, name",
        [
            ("verify --lambda nan --samples 2", "lam"),
            ("verify --lambda inf --samples 2", "lam"),
            ("steady --s 0.25 --lambda nan", "lam"),
            ("steady --s 0.25 --lambda inf", "lam"),
            ("steady --s 0.25 --mass nan", "mass"),
            ("steady --s 0.25 --radius nan", "radius"),
            ("steady --s 0.25 --x0 nan", "x0"),
            ("steady --s 0.25 --x0 inf", "x0"),
        ],
        ids=lambda p: p.replace(" --", "-").replace(" ", "-") if " " in p else None,
    )
    def test_nonfinite_profile_parameter_is_named(self, tmp_path, capsys, line, name):
        # a NaN passed every sign check and failed later with another message
        args = line.split()
        out = ["--out-dir", str(tmp_path)] if args[0] == "steady" else ["--out", str(tmp_path / "report.json")]
        assert main(args + out) == 2
        assert f"{name} must be finite" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("suite", [",", "", " , "])
    def test_empty_suite_list_is_config_error(self, tmp_path, capsys, suite):
        out = tmp_path / "report.json"
        assert main(["verify", "--suite", suite, "--samples", "1", "--out", str(out)]) == 2
        assert "--suite names no suite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("eps", ["0.07", "-0.01"])
    def test_eps_outside_the_window_is_config_error(self, tmp_path, capsys, eps):
        # at lambda 0.4 the window is (0, lambda / (2 pi)) = (0, 0.0637)
        out = tmp_path / "report.json"
        assert main(["verify", "--lambda", "0.4", f"--eps={eps}", "--samples", "1", "--out", str(out)]) == 2
        assert "eps must be in (0, lam/(2 pi))" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_unusable_samples_is_config_error(self, tmp_path, capsys, samples):
        assert main(["verify", "--samples", samples, "--out", str(tmp_path / "report.json")]) == 2
        assert "--samples" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("command", ["simulate", "steady"])
    def test_infinite_xmax_is_named(self, tmp_path, capsys, command):
        # an infinite bound made every center NaN and stopped on the density check's message
        args = [command, "--s", "0.25", "--xmax", "inf", "--out-dir", str(tmp_path)]
        assert main(args) == 2
        assert "grid bounds and their width must be finite" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "line, message",
        [
            ("simulate --s 0.25 --xmax 1e-300 --grid-n 64 --t-end 0.2", "x_min=-1e-300, x_max=1e-300, n=64"),
            ("steady --s 0.25 --radius 1e300", "radius 1e+300 is too large"),
            ("steady --s 0.25 --x0 1e300", "has no mass on the grid [-4.0, 4.0]"),
        ],
        ids=["h-squared-underflows", "radius-overflows", "x0-far-off-the-grid"],
    )
    def test_overflow_or_underflow_is_refused(self, tmp_path, capsys, line, message):
        # h**2 was 0 in the stepper (ZeroDivisionError), R ** (3 - 2s) raised OverflowError, and
        # (x - x0)**2 overflowed with a RuntimeWarning into an all-zero profile.csv reported as M = 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*line.split(), "--out-dir", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("every", ["1e-300", "1e-12"])
    def test_snapshot_spacing_below_the_clock_slack_is_config_error(self, tmp_path, every):
        # at --t-end 5e-11, 1e-12 wrote 46 of 51 rows; 1e-300 did not end at all
        args = ["simulate", "--s", "0.25", "--grid-n", "64", "--t-end", "0.01", "--snapshot-every", every]
        res = run_cli([*args, "--out-dir", str(tmp_path)], timeout=60)
        assert res.returncode == 2
        assert f"snapshot_every must be at least {2 * evolve.SNAPSHOT_SLACK:g}" in res.stderr
        assert not any(tmp_path.iterdir())

    def test_snapshot_spacing_at_the_floor_writes_every_row(self, tmp_path):
        every = 2 * evolve.SNAPSHOT_SLACK
        args = ["simulate", "--s", "0.25", "--grid-n", "64", "--t-end", repr(25 * every)]
        assert main([*args, "--snapshot-every", repr(every), "--out-dir", str(tmp_path)]) == 0
        rows = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert len(rows) == 1 + 26


WRITER_PAYLOADS = {
    "empty-dict": {},
    "empty-list": [],
    "empty-at-depth": {"a": {}, "b": [], "c": {"d": {}, "e": [[], {}]}},
    "empty-row-among-rows": {"rows": [{"x": 1}, {}, {"x": 2}]},
    "non-finite": {"nan": math.nan, "inf": math.inf, "-inf": -math.inf},
    "negative-zero": {"z": -0.0, "rows": [{"z": -0.0}, {"z": 0.0}]},
    "bool-and-int": {"t": True, "f": False, "i": -7, "big": 10**30, "rows": [{"b": True, "i": 3}] * 3},
    "none": {"n": None, "list": [None, 1, None]},
    "quotes": {'say "hi"': 'a "quoted" \\ value'},
    "newlines": {"k\nk": "line\nbreak", "rows": [{"s": "\n"}, {"s": "\r\n"}]},
    "non-ascii": {"ρ_∞": "naïve 中文", "rows": [{"é": "ü"}]},
    "row-boundary-in-strings": {"rows": [{"s": "},\n      {", "t": "},\n    {"} for _ in range(40)]},
    "rows-over-several-chunks": {"a": {"rows": [{"i": i, "x": i / 7} for i in range(3 * harness.JSON_CHUNK_ROWS + 3)]}},
    "mixed-lists": [1, [2, [3, {"a": [4, {"b": ()}]}]], ({"c": 5},), "end"],
    "scalar": 0.1,
    "non-string-keys": {2: "int", 1.5: {"x": [1]}, True: None},
}


class TestWriteJson:
    """_write_json writes json.dump(payload, indent=2, sort_keys=True) plus a newline, byte for byte."""

    @pytest.mark.parametrize("payload", WRITER_PAYLOADS.values(), ids=WRITER_PAYLOADS.keys())
    def test_bytes_equal_json_dumps(self, tmp_path, payload):
        harness._write_json(tmp_path / "x.json", payload)
        assert (tmp_path / "x.json").read_bytes() == (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()

    def test_every_file_the_commands_write_is_json_dumps_of_itself(self, sim_dir, tmp_path):
        fit = tmp_path / "fit.json"
        assert main(["verify", "--samples", "3", "--out", str(tmp_path / "report.json")]) == 0
        assert main(["steady", "--s", "0.25", "--out-dir", str(tmp_path)]) == 0
        argv = ["decay-fit", "--traj", str(sim_dir / "trajectory.csv"), "--quantity", "W2", "--window", "0.2:1.0"]
        assert main([*argv, "--out", str(fit)]) == 0
        files = [tmp_path / "report.json", tmp_path / "steady.json", fit]
        files += [sim_dir / "stats.json", sim_dir / "manifest.json"]
        for path in files:
            text = path.read_text(encoding="utf-8")
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", path.name

    def test_peak_memory_is_no_more_than_json_dump(self, tmp_path):
        # a verify report's shape: eight suites of 200 rows; the writer holds one chunk of text at a time
        rows = [{"seed": k, "margin": k / 3, "lhs": k / 7, "rhs": k / 11, "pass": True} for k in range(200)]
        report = {"suites": {f"suite{j}": {"pass": True, "samples": rows} for j in range(8)}}

        def peak(write):
            tracemalloc.start()
            try:
                write()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def dump():
            with open(tmp_path / "dump.json", "w", encoding="utf-8") as f:
                json.dump(report, f, indent=2, sort_keys=True)

        writer = peak(lambda: harness._write_json(tmp_path / "writer.json", report))
        assert writer <= peak(dump)
        assert writer < (tmp_path / "writer.json").stat().st_size / 4


def test_first_violating_seed_is_reported_even_if_zero(monkeypatch):
    samples = list(harness.fuzz_corpus(0, 3, Grid.symmetric(4.0, 256)))
    remainders = {id(rho): -1.0 if spec.seed in (0, 1) else 1.0 for spec, rho in samples}
    monkeypatch.setattr(energy_mod, "remainder_R", lambda rho, s, lam: remainders[id(rho)])
    result = harness.run_suites(samples, None, 0.25, 0.4, 0.0, ["remainder"])["remainder"]
    assert result["pass"] is False
    assert result["violating_seed"] == 0


def test_nan_fails_its_suite_and_names_the_seed(monkeypatch):
    samples = list(harness.fuzz_corpus(0, 4, Grid.symmetric(4.0, 256)))
    nan_id = id(samples[2][1])
    original = energy_mod.remainder_R
    monkeypatch.setattr(
        energy_mod, "remainder_R", lambda rho, s, lam: float("nan") if id(rho) == nan_id else original(rho, s, lam)
    )
    result = harness.run_suites(samples, None, 0.25, 0.4, 0.0, ["remainder"])["remainder"]
    assert result["pass"] is False
    assert result["violating_seed"] == samples[2][0].seed


def test_nan_first_margin_fails_the_gap_suite(monkeypatch):
    samples = list(harness.fuzz_corpus(0, 3, Grid.symmetric(4.0, 64)))
    gap_of = iter([float("nan"), 1.0, 1.0])
    monkeypatch.setattr(
        transport,
        "inequality_report",
        lambda rho, s, lam, eps, target: transport.InequalityReport(lsi_gap=next(gap_of)),
    )
    result = harness.run_suites(samples, None, 0.25, 0.4, 0.0, ["lsi"])["lsi"]
    assert result["pass"] is False
    assert result["violating_seed"] == samples[0][0].seed


def test_nan_past_the_first_sample_makes_the_worst_value_nan(monkeypatch):
    """Python's min and max skip a NaN unless it comes first; every suite's
    worst value is NaN when any of its samples is."""
    samples = list(harness.fuzz_corpus(0, 4, Grid.symmetric(4.0, 64)))

    def nan_at_call(k):
        """1.0 on every call but the k-th (from 0), which returns NaN."""
        calls = iter(range(1000))
        return lambda *args: float("nan") if next(calls) == k else 1.0

    monkeypatch.setattr(energy_mod, "remainder_R", nan_at_call(2))
    result = harness.run_suites(samples, None, 0.25, 0.4, 0.0, ["remainder"])["remainder"]
    assert result["violating_seed"] == samples[2][0].seed
    assert np.isnan(result["worst_margin"])

    lhs = nan_at_call(2)
    monkeypatch.setattr(energy_mod, "virial_check", lambda rho, s: (lhs(), 1.0))
    assert np.isnan(harness.run_suites(samples, None, 0.25, 0.4, 0.0, ["virial"])["virial"]["worst_margin"])

    gap = nan_at_call(2)
    monkeypatch.setattr(
        transport, "inequality_report", lambda rho, s, lam, eps, target: transport.InequalityReport(lsi_gap=gap())
    )
    assert np.isnan(harness.run_suites(samples, None, 0.25, 0.4, 0.0, ["lsi"])["lsi"]["worst_margin"])

    # two family members first, then the four samples
    monkeypatch.setattr(harness, "barenblatt_family", lambda s, grid: iter([((1.0, 1.0, 0.0), None)] * 2))
    monkeypatch.setattr(transport, "gns_ratio", nan_at_call(2 + 2))
    assert np.isnan(harness.run_suites(samples, None, 0.25, 0.4, 0.0, ["gns"])["gns"]["worst_margin"])

    lhs = nan_at_call(2)
    monkeypatch.setattr(transport, "interp_inequality", lambda u, grid, s, alpha, r, nsn=None: (lhs(), 1.0, None))
    assert np.isnan(harness.run_suites(samples, samples[0][1], 0.25, 0.4, 0.0, ["interp"])["interp"]["empirical_constant"])


def test_hwi_names_the_first_sample_failing_margin_or_terms(monkeypatch):
    samples = list(harness.fuzz_corpus(0, 3, Grid.symmetric(4.0, 64)))
    margins = iter([1.0, -1.0, 1.0])  # sample 1 fails its margin
    t1s = iter([1.0, 1.0, -1.0])  # sample 2 fails its T-terms
    monkeypatch.setattr(
        transport,
        "inequality_report",
        lambda rho, s, lam, eps, target: transport.InequalityReport(hwi_gap=next(margins)),
    )
    monkeypatch.setattr(
        transport,
        "hwi_terms",
        lambda rho, target, s, lam, eps: transport.InequalityReport(T1=next(t1s), T2=0.0, T3=0.0),
    )
    result = harness.run_suites(samples, None, 0.25, 0.4, 0.0, ["hwi"])["hwi"]
    assert result["pass"] is False
    assert result["violating_seed"] == samples[1][0].seed


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    code = main(
        [
            "simulate",
            "--s",
            "0.25",
            "--lambda",
            "auto",
            "--grid-n",
            "256",
            "--xmax",
            "4",
            "--dt",
            "cfl:0.5",
            "--t-end",
            "1.0",
            "--init",
            "barenblatt-shift:0.5",
            "--out-dir",
            str(out),
        ]
    )
    assert code == 0
    return out


class TestSimulate:
    def test_trajectory_schema(self, sim_dir):
        lines = (sim_dir / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,E,E_eps,I,I_eps,W2,L2,L1,mass,m2,min_rho"
        assert len(lines) > 10

    def test_snapshots_written(self, sim_dir):
        snaps = sorted(sim_dir.glob("snapshot_*.csv"))
        assert len(snaps) > 5
        header = snaps[0].read_text().splitlines()[0]
        assert header == "x,rho"

    def test_manifest_completeness(self, sim_dir):
        manifest = json.loads((sim_dir / "manifest.json").read_text())
        assert manifest["schema_version"] == 1
        cfg = manifest["config"]
        for key in ("s", "lambda", "eps", "grid_n", "xmax", "dt", "t_end", "init"):
            assert key in cfg
        assert str(sim_dir / "trajectory.csv") in manifest["outputs"]
        assert str(sim_dir / "stats.json") in manifest["outputs"]

    def test_stats_record_the_run(self, sim_dir):
        stats = json.loads((sim_dir / "stats.json").read_text())
        assert set(stats) == {
            "schema_version", "steps", "retries", "dt_min", "dt_median", "dt_max",
            "max_clamped", "max_mass_drift", "max_fft_drift", "min_lyapunov_margin",
            "max_energy_rise", "min_positive", "nonlocal_bound_steps", "max_field_cells",
            "evaluations", "max_stages",
        } == readme_stats_keys()
        assert stats["steps"] > 0
        # one evaluation for the initial state, at least one per step
        assert stats["evaluations"] >= stats["steps"] + stats["retries"] + 1
        assert stats["max_stages"] == 1 or stats["max_stages"] >= 3
        # on this run the nonlocal-diffusive term is the larger share of the step bound
        assert 0 < stats["nonlocal_bound_steps"] <= stats["steps"]
        assert stats["retries"] == 0
        assert 0 < stats["dt_min"] <= stats["dt_median"] <= stats["dt_max"]
        assert stats["max_clamped"] <= 1e-12
        assert stats["max_mass_drift"] <= 1e-12
        assert stats["max_fft_drift"] <= 1e-10
        assert stats["min_lyapunov_margin"] >= 0.0

    def test_stats_of_a_run_whose_only_step_lands_on_t_end(self, tmp_path):
        out = tmp_path / "one_step"
        assert main(["simulate", "--s", "0.25", "--grid-n", "128", "--t-end", "1e-6", "--out-dir", str(out)]) == 0
        stats = json.loads((out / "stats.json").read_text())
        assert stats["steps"] == 1
        assert stats["dt_min"] is stats["dt_median"] is stats["dt_max"] is None

    def test_stats_of_a_run_with_no_step_are_strict_json(self, tmp_path):
        # t_end below the 1e-12 landing tolerance: the march ends before its first step
        out = tmp_path / "no_step"
        assert main(["simulate", "--s", "0.25", "--grid-n", "128", "--t-end", "1e-13", "--out-dir", str(out)]) == 0

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        stats = json.loads((out / "stats.json").read_text(), parse_constant=reject)
        assert stats["steps"] == 0
        assert stats["min_lyapunov_margin"] is stats["dt_min"] is None

    def test_manifest_replay_reproduces_outputs_bitwise(self, sim_dir, tmp_path):
        cfg = json.loads((sim_dir / "manifest.json").read_text())["config"]
        replay = tmp_path / "replay"
        code = main(
            [
                "simulate",
                "--s", str(cfg["s"]),
                "--lambda", str(cfg["lambda"]),
                "--eps", str(cfg["eps"]),
                "--grid-n", str(cfg["grid_n"]),
                "--xmax", str(cfg["xmax"]),
                "--dt", str(cfg["dt"]),
                "--t-end", str(cfg["t_end"]),
                "--init", cfg["init"],
                "--snapshot-every", str(cfg["snapshot_every"]),
                "--out-dir", str(replay),
            ]
        )
        assert code == 0
        assert (replay / "trajectory.csv").read_bytes() == (sim_dir / "trajectory.csv").read_bytes()
        first = sorted(sim_dir.glob("snapshot_*.csv"))[0].name
        assert (replay / first).read_bytes() == (sim_dir / first).read_bytes()

    def test_decay_fit_on_output(self, sim_dir, tmp_path):
        out = tmp_path / "fit.json"
        code = main(
            [
                "decay-fit",
                "--traj",
                str(sim_dir / "trajectory.csv"),
                "--quantity",
                "E_gap",
                "--window",
                "0.2:1.0",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        fit = json.loads(out.read_text())
        assert fit["bound_rate"] == pytest.approx(0.8)
        assert fit["bound_satisfied"] is True
        assert fit["rate"] == pytest.approx(-0.8, abs=0.05)

    def test_decay_fit_of_w2_takes_the_talagrand_prefactor(self, sim_dir, tmp_path):
        out = tmp_path / "fit.json"
        argv = ["decay-fit", "--traj", str(sim_dir / "trajectory.csv"), "--quantity", "W2"]
        assert main([*argv, "--window", "0.2:1.0", "--out", str(out)]) == 0
        fit = json.loads(out.read_text())
        cfg = json.loads((sim_dir / "manifest.json").read_text())["config"]
        s, lam = cfg["s"], cfg["lambda"]
        _, dens = barenblatt(s, lam, mass=1.0, grid=Grid.symmetric(cfg["xmax"], cfg["grid_n"]))
        e_target = energy_mod.energy(normalize(dens), s, lam, 0.0).total
        e0 = float((sim_dir / "trajectory.csv").read_text().splitlines()[1].split(",")[1])
        assert fit["prefactor"] == np.sqrt(2 / lam * max(e0 - e_target, 0.0))
        assert fit["prefactor"] == pytest.approx(0.5, rel=1e-6)  # the shift of the initial profile
        assert fit["bound_rate"] == lam

    def test_solver_invariant_failure_exits_3_and_writes_no_results(self, tmp_path, capsys):
        out = tmp_path / "cfl"
        argv = ["simulate", "--s", "0.25", "--grid-n", "128", "--dt", "0.5", "--t-end", "1", "--out-dir", str(out)]
        assert main(argv) == 3
        assert "solver invariant failure (CflViolation)" in capsys.readouterr().err
        assert not (out / "trajectory.csv").exists()
        assert not (out / "stats.json").exists()

    def test_eps_run_and_fixed_dt(self, tmp_path):
        out = tmp_path / "eps"
        code = main(
            [
                "simulate",
                "--s",
                "0.25",
                "--eps",
                "0.01",
                "--grid-n",
                "256",
                "--dt",
                "0.0005",
                "--t-end",
                "0.3",
                "--init",
                "barenblatt-shift:0.3",
                "--out-dir",
                str(out),
            ]
        )
        assert code == 0
        data = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
        assert np.all(np.diff(data[:, 2]) <= 1e-10)  # E_eps column
        assert np.min(data[:, 10]) >= 0.0

    def test_csv_init(self, tmp_path):
        from fracpme.grid import DensitySpec, Grid, random_density, save_density_csv

        g = Grid.symmetric(4.0, 256)
        rho = random_density(DensitySpec(seed=4), g)
        init_path = tmp_path / "init.csv"
        save_density_csv(init_path, rho)
        out = tmp_path / "run"
        code = main(
            [
                "simulate",
                "--s",
                "0.25",
                "--grid-n",
                "256",
                "--t-end",
                "0.2",
                "--init",
                str(init_path),
                "--out-dir",
                str(out),
            ]
        )
        assert code == 0

    @pytest.mark.parametrize("grid_n, xmax", [(128, 4.0), (256, 2.0)])
    def test_csv_init_on_another_grid_is_config_error(self, tmp_path, capsys, grid_n, xmax):
        from fracpme.grid import DensitySpec, random_density, save_density_csv

        init_path = tmp_path / "init.csv"
        save_density_csv(init_path, random_density(DensitySpec(seed=4), Grid.symmetric(4.0, 256)))
        out = tmp_path / "run"
        code = main(
            [
                "simulate", "--s", "0.25", "--grid-n", str(grid_n), "--xmax", str(xmax),
                "--t-end", "0.2", "--init", str(init_path), "--out-dir", str(out),
            ]
        )
        assert code == 2
        assert "init density" in capsys.readouterr().err
        assert not (out / "trajectory.csv").exists()

    def test_csv_init_with_a_nan_is_config_error(self, tmp_path, capsys):
        from fracpme.grid import DensitySpec, random_density, save_density_csv

        init_path = tmp_path / "init.csv"
        save_density_csv(init_path, random_density(DensitySpec(seed=4), Grid.symmetric(4.0, 128)))
        lines = init_path.read_text(encoding="utf-8").splitlines()
        lines[40] = lines[40].split(",")[0] + ",nan"
        init_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "run"
        code = main(
            ["simulate", "--s", "0.25", "--grid-n", "128", "--t-end", "0.05",
             "--init", str(init_path), "--out-dir", str(out)]
        )
        assert code == 2
        assert "finite and nonnegative" in capsys.readouterr().err
        assert not out.exists()

    def test_init_with_no_mass_on_the_grid_is_config_error(self, tmp_path, capsys):
        # the support [9 - R, 9 + R] of this profile lies beyond xmax = 4
        out = tmp_path / "run"
        code = main(
            ["simulate", "--s", "0.25", "--grid-n", "64", "--t-end", "0.1",
             "--init", "barenblatt-shift:9", "--out-dir", str(out)]
        )
        assert code == 2
        assert "has no mass on the grid" in capsys.readouterr().err
        assert not out.exists()

    def test_lemmaE_suite_needs_sharp_minimizer(self, tmp_path):
        code = main(
            ["verify", "--suite", "lemmaE", "--samples", "2", "--eps", "0.01",
             "--out", str(tmp_path / "x.json")]
        )
        assert code == 2

    def test_steady_init_retries_rejected_steps(self, tmp_path):
        # the step-size rule overshoots the Lyapunov gate on this run; each
        # rejected trial step is retaken at half the dt instead of aborting
        out = tmp_path / "retry"
        args = ["simulate", "--s", "0.25", "--grid-n", "256", "--init", "barenblatt", "--t-end", "0.1"]
        assert main(args + ["--out-dir", str(out)]) == 0
        stats = json.loads((out / "stats.json").read_text())
        assert stats["retries"] > 0
        grid = Grid.symmetric(4.0, 256)
        lam = evolve.self_similar_exponent(0.25)
        _, dens = barenblatt(0.25, lam, mass=1.0, grid=grid)
        target = normalize(dens)
        cfg = evolve.SolverConfig(s=0.25, grid=grid, lam=lam, t_end=0.1, init=dens)
        traj = evolve.integrate(cfg, target)
        assert (traj.stats.steps, traj.stats.retries) == (stats["steps"], stats["retries"])
        assert np.max(np.diff(traj.step_energy)) <= 1e-10

    def test_steady_init_keeps_diagnostics_flat(self, tmp_path):
        out = tmp_path / "flat"
        code = main(
            [
                "simulate",
                "--s",
                "0.25",
                "--grid-n",
                "512",
                "--t-end",
                "0.3",
                "--init",
                "barenblatt",
                "--out-dir",
                str(out),
            ]
        )
        assert code == 0
        data = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
        e = data[:, 1]
        assert np.max(np.abs(e - e[0])) <= 1e-5


class TestDecayFitCli:
    @pytest.mark.parametrize("quantity", ["foo", "mass"])
    def test_unknown_quantity_is_config_error(self, sim_dir, tmp_path, capsys, quantity):
        out = tmp_path / "fit.json"
        code = main(
            ["decay-fit", "--traj", str(sim_dir / "trajectory.csv"), "--quantity", quantity, "--out", str(out)]
        )
        assert code == 2
        assert "--quantity" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("manifest", [{}, [], {"config": {"s": 0.25, "lambda": 0.4, "eps": 0.0, "xmax": 4.0}}])
    def test_manifest_without_config_is_config_error(self, sim_dir, tmp_path, capsys, manifest):
        path, out = tmp_path / "manifest.json", tmp_path / "fit.json"
        path.write_text(json.dumps(manifest))
        traj = str(sim_dir / "trajectory.csv")
        assert main(["decay-fit", "--traj", traj, "--manifest", str(path), "--out", str(out)]) == 2
        assert "has no config" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["", "t,E,E_eps,I,I_eps,W2,L2,L1,mass,m2,min_rho\n\n", "x,E\n0,1\n1,2\n"])
    def test_trajectory_without_rows_is_config_error(self, sim_dir, tmp_path, capsys, text):
        traj, out = tmp_path / "trajectory.csv", tmp_path / "fit.json"
        traj.write_text(text)
        manifest = str(sim_dir / "manifest.json")
        assert main(["decay-fit", "--traj", str(traj), "--manifest", manifest, "--out", str(out)]) == 2
        assert "has no rows" in capsys.readouterr().err
        assert not out.exists()

    def test_eps_gap_is_measured_against_the_eps_energy(self, tmp_path):
        from fracpme.steady import barenblatt

        s, lam, eps = 0.25, 0.4, 1e-2
        run = tmp_path / "eps"
        code = main(
            [
                "simulate", "--s", str(s), "--lambda", str(lam), "--eps", str(eps), "--grid-n", "128",
                "--t-end", "0.6", "--out-dir", str(run),
            ]
        )
        assert code == 0
        out = tmp_path / "fit.json"
        code = main(
            [
                "decay-fit", "--traj", str(run / "trajectory.csv"), "--quantity", "E_eps_gap",
                "--window", "0.0:0.5", "--out", str(out),
            ]
        )
        assert code in (0, 3)
        _, dens = barenblatt(s, lam, mass=1.0, grid=Grid.symmetric(4.0, 128))
        target = normalize(dens)
        e_eps0 = np.loadtxt(run / "trajectory.csv", delimiter=",", skiprows=1)[0, 2]
        prefactor = json.loads(out.read_text())["prefactor"]
        assert prefactor == e_eps0 - energy_mod.energy(target, s, lam, eps).total
        assert prefactor != e_eps0 - energy_mod.energy(target, s, lam, 0.0).total


class TestVerifyCli:
    def test_small_pass(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "verify",
                "--suite",
                "lsi,remainder,virial",
                "--samples",
                "8",
                "--seed",
                "42",
                "--s",
                "0.25",
                "--lambda",
                "0.4",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["pass"] is True
        assert report["schema_version"] == 1
        assert set(report["suites"]) == {"lsi", "remainder", "virial"}
        assert len(report["suites"]["lsi"]["samples"]) == 8

    def test_full_corpus_inequalities_pass(self, tmp_path):
        out = tmp_path / "full.json"
        code = main(
            [
                "verify",
                "--suite",
                "hwi,lsi,talagrand",
                "--samples",
                "200",
                "--seed",
                "42",
                "--s",
                "0.25",
                "--lambda",
                "0.4",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["pass"] is True
        assert all(len(report["suites"][k]["samples"]) == 200 for k in ("hwi", "lsi", "talagrand"))

    @pytest.mark.parametrize("s", ["0.1", "0.4"])
    def test_all_suites_at_other_orders(self, tmp_path, s):
        # the small-s lane exercises the near-nonintegrable kernel derivative
        out = tmp_path / f"v{s}.json"
        code = main(
            [
                "verify",
                "--suite",
                ",".join(("hwi", "lsi", "talagrand", "gns", "lemmaE", "interp", "remainder", "virial")),
                "--samples",
                "25",
                "--seed",
                "42",
                "--s",
                s,
                "--lambda",
                "0.4",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert json.loads(out.read_text())["pass"] is True

    def test_eps_default_suites_leave_out_lemmaE(self, tmp_path, monkeypatch):
        # stub the ~2 s eps march with the sharp minimizer; only the suite list is under test
        calls = []

        def fake_steady_state_eps(cfg):
            calls.append(cfg.eps)
            return normalize(discrete_minimizer(cfg.s, cfg.lam, cfg.grid))

        monkeypatch.setattr(evolve, "steady_state_eps", fake_steady_state_eps)
        out = tmp_path / "eps.json"
        assert main(["verify", "--eps", "0.01", "--samples", "3", "--out", str(out)]) == 0
        assert calls == [0.01]
        assert set(json.loads(out.read_text())["suites"]) == set(harness.VERIFY_SUITES) - {"lemmaE"}

    def test_each_suite_reports_alone_what_it_reports_with_all(self, tmp_path):
        """verify runs every suite on a sample before the next one, and the
        density keeps its fields for all of them: neither couples
        the suites, so each entry of an all-suites report is the report of
        that suite run alone."""

        def suites_of(names):
            out = tmp_path / f"{names}.json"
            assert main(["verify", "--suite", names, "--samples", "3", "--seed", "42", "--out", str(out)]) == 0
            return json.loads(out.read_text())["suites"]

        every = suites_of(",".join(harness.VERIFY_SUITES))
        assert set(every) == set(harness.VERIFY_SUITES)
        for name in harness.VERIFY_SUITES:
            assert suites_of(name) == {name: every[name]}

    def test_failing_suite_exits_3_and_names_its_first_seed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(harness, "VIRIAL_TOL", 0.0)
        out = tmp_path / "report.json"
        assert main(["verify", "--suite", "lsi,virial", "--samples", "2", "--seed", "42", "--out", str(out)]) == 3
        report = json.loads(out.read_text())
        assert report["pass"] is False
        assert report["suites"]["lsi"]["pass"] is True
        virial = report["suites"]["virial"]
        assert virial["pass"] is False and virial["violating_seed"] == 42
        err = capsys.readouterr().err
        assert "suite virial violated at sample seed 42" in err and "suite lsi" not in err

    def test_report_names_corpus(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify", "--suite", "virial", "--samples", "3", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["corpus"]["seed"] == 42
        assert report["corpus"]["samples"] == 3


class TestRieszConvergenceCli:
    def test_order_csv(self, tmp_path):
        out = tmp_path / "conv.csv"
        code = main(["riesz-convergence", "--s", "0.25", "--levels", "3", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "h,err_Linf,err_L2,order"
        rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
        errs = [r[1] for r in rows]
        assert errs[0] > errs[1] > errs[2]
        assert rows[-1][3] >= 1.0

    def test_same_contract_at_other_orders(self, tmp_path):
        out = tmp_path / "conv4.csv"
        code = main(["riesz-convergence", "--s", "0.4", "--levels", "3", "--out", str(out)])
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        assert float(rows[-1].split(",")[3]) >= 1.0

    def test_same_contract_above_half(self, tmp_path):
        out = tmp_path / "conv75.csv"
        assert main(["riesz-convergence", "--s", "0.75", "--levels", "3", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert float(rows[-1].split(",")[3]) >= 1.0

    @pytest.mark.parametrize("levels", ["0", "1"])
    def test_too_few_levels_is_config_error(self, tmp_path, capsys, levels):
        out = tmp_path / "conv.csv"
        assert main(["riesz-convergence", "--s", "0.25", "--levels", levels, "--out", str(out)]) == 2
        assert "--levels" in capsys.readouterr().err
        assert not out.exists()

    def test_log_kernel_reference(self, tmp_path):
        out = tmp_path / "conv_half.csv"
        code = main(["riesz-convergence", "--s", "0.5", "--levels", "2", "--out", str(out)])
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        errs = [float(r.split(",")[1]) for r in rows]
        assert errs[-1] <= 1e-3


class TestSteadyCli:
    def test_report_fields(self, tmp_path):
        code = main(["steady", "--s", "0.25", "--lambda", "0.4", "--out-dir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "steady.json").read_text())
        assert report["R"] == pytest.approx(1.3981537245940195, rel=1e-12)
        assert report["C_star"] == pytest.approx(0.4 * report["R"] ** 2 / (2 * (1 - 0.5)))
        assert (tmp_path / "profile.csv").exists()

    def test_radius_spec(self, tmp_path):
        code = main(
            ["steady", "--s", "0.25", "--lambda", "0.4", "--radius", "1.0", "--out-dir", str(tmp_path)]
        )
        assert code == 0
        report = json.loads((tmp_path / "steady.json").read_text())
        assert report["R"] == 1.0
        assert report["M"] == pytest.approx(0.43262607364306223, rel=1e-12)

    @pytest.mark.parametrize("s", [0.5, 0.75])
    def test_closed_form_constant_at_s_half_and_above(self, tmp_path, s):
        code = main(["steady", "--s", str(s), "--lambda", "0.4", "--out-dir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "steady.json").read_text())
        prof, _ = barenblatt(s, 0.4, mass=1.0)
        assert report["C_star"] == c_star(prof)
        assert (report["C_star"] < 0) == (s > 0.5)
        assert (tmp_path / "profile.csv").exists()


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    assert "simulate" in capsys.readouterr().out


class TestConfigFile:
    def test_flags_win_over_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("samples = 3\nseed = 7\n")
        out = tmp_path / "r.json"
        code = main(
            [
                "verify",
                "--config",
                str(cfg),
                "--suite",
                "virial",
                "--samples",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["corpus"]["samples"] == 2  # flag beats file
        assert report["corpus"]["seed"] == 7  # file fills the gap

    def test_missing_path_is_config_error(self, capsys):
        assert main(["verify", "--config"]) == 2
        assert "--config" in capsys.readouterr().err

    def test_unreadable_file_is_config_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.cfg"
        assert main(["verify", "--config", str(missing)]) == 2
        assert "missing.cfg" in capsys.readouterr().err


class TestDeterminism:
    def test_verify_bitwise_identical_across_thread_counts(self, tmp_path):
        args = [
            "verify",
            "--suite",
            "lsi,virial",
            "--samples",
            "4",
            "--seed",
            "11",
            "--s",
            "0.25",
            "--lambda",
            "0.4",
        ]
        outs = []
        for threads, name in (("1", "a.json"), ("4", "b.json")):
            out = tmp_path / name
            res = run_cli(args + ["--out", str(out)], threads)
            assert res.returncode == 0, res.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
