import json
import subprocess
import sys

import numpy as np
import pytest

from fracpme import energy as energy_mod
from fracpme import harness
from fracpme.grid import Grid
from fracpme.harness import main

RUN = [sys.executable, "-m", "fracpme.harness"]


def run_cli(args, env_extra=None):
    import os

    env = os.environ.copy()
    env.update(env_extra or {})
    return subprocess.run(RUN + args, capture_output=True, text=True, env=env)


class TestExitCodes:
    def test_invalid_s_is_config_error(self, tmp_path):
        code = main(
            ["simulate", "--s", "1.5", "--grid-n", "64", "--t-end", "0.1", "--out-dir", str(tmp_path)]
        )
        assert code == 2

    def test_unknown_suite_is_config_error(self):
        assert main(["verify", "--suite", "bogus", "--samples", "2"]) == 2

    def test_bad_flag_is_config_error(self):
        assert main(["simulate", "--no-such-flag", "1"]) == 2

    @pytest.mark.parametrize("lam", ["--lambda=-0.4", "--lambda=0"])
    def test_nonpositive_lambda_is_config_error(self, tmp_path, lam):
        assert main(["verify", lam, "--samples", "1", "--out", str(tmp_path / "report.json")]) == 2


def test_first_violating_seed_is_reported_even_if_zero(monkeypatch):
    samples = list(harness.fuzz_corpus(0, 3, Grid.symmetric(4.0, 256)))
    remainders = {id(rho): -1.0 if spec.seed in (0, 1) else 1.0 for spec, rho in samples}
    monkeypatch.setattr(energy_mod, "remainder_R", lambda rho, s, lam: remainders[id(rho)])
    result = harness._suite_remainder(samples, 0.25, 0.4)
    assert result["pass"] is False
    assert result["violating_seed"] == 0


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

    def test_lemmaE_suite_needs_sharp_minimizer(self, tmp_path):
        code = main(
            ["verify", "--suite", "lemmaE", "--samples", "2", "--eps", "0.01",
             "--out", str(tmp_path / "x.json")]
        )
        assert code == 2

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
            # OpenBLAS reads OPENBLAS_NUM_THREADS before OMP_NUM_THREADS
            env = {"OMP_NUM_THREADS": threads, "OPENBLAS_NUM_THREADS": threads}
            res = run_cli(args + ["--out", str(out)], env)
            assert res.returncode == 0, res.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
