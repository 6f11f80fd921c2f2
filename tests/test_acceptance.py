"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion. Heavy runs are shared through session fixtures.
"""

import time

import numpy as np
import pytest
from conftest import run_cli

from fracpme.energy import energy, remainder_R, virial_check
from fracpme.evolve import SolverConfig, fit_decay, integrate, steady_state_eps
from fracpme.grid import Grid, GridDensity, moment, normalize
from fracpme.harness import barenblatt_family, fuzz_corpus
from fracpme.riesz import riesz_potential
from fracpme.steady import barenblatt, c_star, discrete_minimizer, euler_lagrange_check, steady_potential
from fracpme.transport import gns_ratio, hwi_terms, inequality_report, interp_inequality, interp_sigmas, w2

S_SET = (0.1, 0.25, 0.4)
LAM = 0.4
GAP_TOL = 1e-8


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num:2d}] {name}: {status}" + (f"  ({detail})" if detail else ""))


# ---------------------------------------------------------------- criterion 1


@pytest.mark.parametrize("s", S_SET)
def test_criterion_1_riesz_closed_form_oracle(s):
    t0 = time.time()
    prof, _ = barenblatt(s, LAM, radius=1.0)
    errs = []
    for n in (256, 512, 1024, 2048, 4096):
        grid = Grid.symmetric(2.0, n)
        dens = prof.sample(grid)
        pot = riesz_potential(dens, s)
        mask = np.abs(grid.centers) <= 0.9
        exact = steady_potential(prof, grid.centers[mask])
        errs.append(float(np.max(np.abs(pot[mask] - exact)) / np.max(np.abs(exact))))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    elapsed = time.time() - t0
    ok = errs[-1] <= 1e-3 and bool(np.all(orders >= 1.0)) and elapsed <= 60.0
    report(1, f"riesz closed-form oracle s={s}", ok,
           f"relLinf(n=4096)={errs[-1]:.2e}, min order={orders.min():.2f}, {elapsed:.1f}s")
    assert errs[-1] <= 1e-3
    assert np.all(orders >= 1.0)
    assert elapsed <= 60.0


# ---------------------------------------------------------------- criterion 2


@pytest.mark.parametrize("s", S_SET)
def test_criterion_2_steady_state_consistency(s):
    grid = Grid.symmetric(3.0, 4096)
    prof, dens = barenblatt(s, LAM, mass=1.0, grid=grid)
    rho = normalize(dens)
    from fracpme.energy import dissipation

    i_val = dissipation(rho, s, LAM)
    m2 = moment(rho, 2)
    rep = euler_lagrange_check(rho, s, LAM)
    cs = c_star(prof)
    ok = (
        i_val <= 1e-6 * LAM**2 * m2
        and rep.max_dev_on_support <= 1e-3 * rep.C_star
        and abs(rep.C_star - cs) <= 1e-3 * cs
    )
    report(2, f"steady-state consistency s={s}", ok,
           f"I={i_val:.2e} (<= {1e-6*LAM**2*m2:.2e}), dev={rep.max_dev_on_support/rep.C_star:.2e}, "
           f"C*err={(rep.C_star-cs)/cs:.2e}")
    assert i_val <= 1e-6 * LAM**2 * m2
    assert rep.max_dev_on_support <= 1e-3 * rep.C_star
    assert abs(rep.C_star - cs) <= 1e-3 * cs
    assert rep.min_excess_off_support >= -1e-3 * rep.C_star


# -------------------------------------------------- criterion 3 shared runs


@pytest.fixture(scope="session")
def decay_runs():
    runs = {}
    for s in S_SET:
        grid = Grid.symmetric(4.0, 1024)
        _, dens = barenblatt(s, LAM, mass=1.0, grid=grid)
        target = normalize(dens)
        _, shifted = barenblatt(s, LAM, mass=1.0, x0=0.5, grid=grid)
        cfg = SolverConfig(s=s, grid=grid, lam=LAM, t_end=5.0, cfl=0.5, init=shifted,
                           snapshot_every=0.05)
        t0 = time.time()
        traj = integrate(cfg, target)
        runs[s] = (traj, time.time() - t0)
    return runs


@pytest.mark.parametrize("s", S_SET)
def test_criterion_3_decay_envelopes(decay_runs, s):
    traj, elapsed = decay_runs[s]
    t = traj.times
    sel = t >= 0.5
    egap = traj.series("E_gap")
    env_e = 1.05 * egap[0] * np.exp(-2 * LAM * t)
    ok_e = bool(np.all(egap[sel] <= env_e[sel]))
    wpref = np.sqrt(2 / LAM * egap[0])
    dist = traj.series("W2")
    env_w = 1.05 * wpref * np.exp(-LAM * t)
    ok_w = bool(np.all(dist[sel] <= env_w[sel]))
    ok = ok_e and ok_w and elapsed <= 300.0
    report(3, f"decay envelopes s={s}", ok,
           f"E rate fit={fit_decay(traj, 'E_gap', (0.5, 5.0)).rate:.4f}, "
           f"W2 rate fit={fit_decay(traj, 'W2', (0.5, 5.0), prefactor=wpref).rate:.4f}, {elapsed:.0f}s")
    assert ok_e and ok_w
    assert elapsed <= 300.0


# ---------------------------------------------------------------- criterion 4


def _dissipation_residual(dt: float) -> float:
    grid = Grid.symmetric(4.0, 1024)
    _, dens = barenblatt(0.25, LAM, mass=1.0, grid=grid)
    target = normalize(dens)
    _, shifted = barenblatt(0.25, LAM, mass=1.0, x0=0.5, grid=grid)
    cfg = SolverConfig(s=0.25, grid=grid, lam=LAM, dt=dt, t_end=5.0, cfl=1.0, init=shifted)
    traj = integrate(cfg, target)
    tt, e, i = traj.step_times, traj.step_energy, traj.step_dissipation
    de = np.diff(e) / np.diff(tt)
    resid = np.abs(de + i[:-1]) / i[:-1]
    sel = (tt[:-1] >= 0.5) & (tt[:-1] <= 5.0)
    return float(np.max(resid[sel]))


def test_criterion_4_lyapunov_dissipation_consistency():
    # r(dt) = b dt + floor: the upwind flux leaves a dt-independent spatial
    # floor, so first-order consistency in dt is certified by the Richardson
    # difference quotient, which cancels the floor exactly.
    dts = (1e-3, 5e-4, 2.5e-4)
    r = [_dissipation_residual(dt) for dt in dts]
    factor = (r[0] - r[1]) / (r[1] - r[2])
    b = (r[0] - r[2]) / (dts[0] - dts[2])
    floor = r[2] - b * dts[2]
    ok = 1.7 <= factor <= 2.3 and b > 0 and r[0] <= b * dts[0] + floor + 1e-12 and floor <= 2e-3
    report(4, "energy-dissipation consistency", ok,
           f"r={r[0]:.2e}/{r[1]:.2e}/{r[2]:.2e}, Richardson diff factor={factor:.3f}, "
           f"C={b:.3f}, floor={floor:.2e}")
    assert 1.7 <= factor <= 2.3
    assert b > 0 and floor <= 2e-3


# ---------------------------------------------------------------- criterion 5


@pytest.fixture(scope="session")
def corpus200():
    grid = Grid.symmetric(4.0, 1024)
    return grid, list(fuzz_corpus(42, 200, grid))


def test_criterion_5_inequality_fuzz(corpus200):
    t0 = time.time()
    grid, corpus = corpus200
    target = normalize(discrete_minimizer(0.25, LAM, grid))
    worst = {"hwi": np.inf, "lsi": np.inf, "talagrand": np.inf, "lemmaE": np.inf,
             "T1": np.inf, "T3": np.inf, "R": np.inf}
    worst_t2 = 0.0
    worst_virial = 0.0
    for _, rho in corpus:
        rep = inequality_report(rho, 0.25, LAM, 0.0, target)
        worst["hwi"] = min(worst["hwi"], rep.hwi_gap / rep.scale)
        worst["lsi"] = min(worst["lsi"], rep.lsi_gap / rep.scale)
        worst["talagrand"] = min(worst["talagrand"], rep.talagrand_gap / rep.scale)
        worst["lemmaE"] = min(worst["lemmaE"], rep.lemmaE_gap / rep.scale)
        terms = hwi_terms(rho, target, 0.25, LAM, 0.0)
        worst["T1"] = min(worst["T1"], terms.T1 / terms.scale)
        worst["T3"] = min(worst["T3"], terms.T3 / terms.scale)
        worst_t2 = max(worst_t2, abs(terms.T2))
        r_val = remainder_R(rho, 0.25, LAM)
        worst["R"] = min(worst["R"], r_val)
        lhs, rhs = virial_check(rho, 0.25)
        worst_virial = max(worst_virial, abs(lhs - rhs) / abs(rhs))
    elapsed = time.time() - t0
    ok = (
        all(v >= -GAP_TOL for k, v in worst.items() if k not in ("R",))
        and worst["R"] >= -1e-10
        and worst_t2 <= 1e-12
        and worst_virial <= 1e-3
        and elapsed <= 600.0
    )
    report(5, "inequality fuzz (200 densities)", ok,
           f"worst gaps/scale: hwi={worst['hwi']:.2e} lsi={worst['lsi']:.2e} "
           f"tal={worst['talagrand']:.2e} lemE={worst['lemmaE']:.2e} T1={worst['T1']:.2e} "
           f"T3={worst['T3']:.2e}; |T2|max={worst_t2:.1e}; Rmin={worst['R']:.1e}; "
           f"virial={worst_virial:.1e}; {elapsed:.0f}s")
    for key in ("hwi", "lsi", "talagrand", "lemmaE", "T1", "T3"):
        assert worst[key] >= -GAP_TOL, key
    assert worst["R"] >= -1e-10
    assert worst_t2 <= 1e-12
    assert worst_virial <= 1e-3
    assert elapsed <= 600.0


# ---------------------------------------------------------------- criterion 6


@pytest.mark.parametrize("eps", [1e-2, 1e-3])
def test_criterion_6_eps_suite(corpus200, eps):
    grid, corpus = corpus200
    assert eps < LAM / (2 * np.pi)
    cfg = SolverConfig(s=0.25, grid=grid, lam=LAM, eps=eps, t_end=80.0, cfl=0.8)
    target_eps = normalize(steady_state_eps(cfg))

    prof, dens = barenblatt(0.25, LAM, mass=1.0, grid=grid)
    target0 = normalize(dens)
    e0 = energy(target0, 0.25, LAM).total
    e_eps = energy(target_eps, 0.25, LAM, eps).total
    m2_eps = moment(target_eps, 2)
    from scipy.integrate import quad

    ent, _ = quad(
        lambda x: prof.evaluate(x) * np.log(max(prof.evaluate(x), 1e-300)),
        -prof.R,
        prof.R,
        limit=200,
        points=[0.0],
    )
    sandwich = (e0 <= e_eps + eps * np.pi * m2_eps + 1e-12) and (e_eps <= e0 + eps * ent + 1e-12)

    worst_hwi, worst_lsi = np.inf, np.inf
    for _, rho in corpus[:20]:
        rep = inequality_report(rho, 0.25, LAM, eps, target_eps)
        worst_hwi = min(worst_hwi, rep.hwi_gap / rep.scale)
        worst_lsi = min(worst_lsi, rep.lsi_gap / rep.scale)
    ok = sandwich and worst_hwi >= -GAP_TOL and worst_lsi >= -GAP_TOL
    report(6, f"eps-suite eps={eps}", ok,
           f"sandwich {e0 - eps*np.pi*m2_eps:.6f} <= {e_eps:.6f} <= {e0 + eps*ent:.6f}; "
           f"worst hwi={worst_hwi:.2e} lsi={worst_lsi:.2e}")
    assert sandwich
    assert worst_hwi >= -GAP_TOL and worst_lsi >= -GAP_TOL


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_gns_product_form(corpus200):
    _, corpus = corpus200
    fam_grid = Grid.symmetric(4.0, 4096)
    ratios = np.array([gns_ratio(dens, 0.25) for _, dens in barenblatt_family(0.25, fam_grid)])
    spread = float((ratios.max() - ratios.min()) / ratios.mean())
    fam_const = float(ratios.max())
    worst = min(gns_ratio(rho, 0.25) - fam_const * (1 - 1e-3) for _, rho in corpus)
    ok = spread <= 5e-3 and worst >= 0 and len(ratios) == 12
    report(7, "product-form interaction inequality", ok,
           f"family spread={spread:.2e} over 12 members, worst fuzz margin={worst:.2e}")
    assert len(ratios) == 12
    assert spread <= 5e-3
    assert worst >= 0


# ---------------------------------------------------------------- criterion 8


def test_criterion_8_interpolation_inequality(decay_runs, corpus200):
    grid, corpus = corpus200
    # exponent identities
    sums_exact = all(
        sum(interp_sigmas(s, a, 0.3 * a)) == 1.0 for s in S_SET for a in (0.5, 0.75, 1.0)
    )
    _, dens = barenblatt(0.25, LAM, mass=1.0, grid=grid)
    target = normalize(dens)
    u = corpus[0][1].values - target.values
    l1, r1, _ = interp_inequality(u, grid, 0.25, 0.75, 0.3)
    l2, r2, _ = interp_inequality(2.5 * u, grid, 0.25, 0.75, 0.3)
    amp_ok = abs(l1 / r1 - l2 / r2) <= 1e-10 * (l1 / r1)
    dil_ok = True
    for L in (0.5, 2.0):
        ud = np.interp(grid.centers / L, grid.centers, u, left=0.0, right=0.0)
        ld, rd, _ = interp_inequality(ud, grid, 0.25, 0.75, 0.3)
        dil_ok &= abs(ld / rd - l1 / r1) <= 0.01 * (l1 / r1)

    consts = []
    for n in (1024, 2048):
        g = Grid.symmetric(4.0, n)
        _, dn = barenblatt(0.25, LAM, mass=1.0, grid=g)
        tg = normalize(dn)
        worst = 0.0
        for spec, _ in corpus[:20]:
            from fracpme.grid import random_density

            rho = random_density(spec, g)
            lhs, rhs, _ = interp_inequality(rho.values - tg.values, g, 0.25, 0.75, 0.3)
            worst = max(worst, lhs / rhs)
        consts.append(worst)
    const_ok = abs(consts[1] - consts[0]) <= 0.1 * consts[1]

    env_ok = True
    details = []
    for s in S_SET:
        traj, _ = decay_runs[s]
        t = traj.times
        sel = t >= 0.5
        sig1 = fit_decay(traj, "L2", (0.5, 5.0)).bound_rate / LAM
        l2s = traj.series("L2")
        env_ok &= bool(np.all(l2s[sel] <= 1.05 * l2s[0] * np.exp(-LAM * sig1 * t[sel])))
        l1s = traj.series("L1")
        env_ok &= bool(np.all(l1s[sel] <= 1.05 * l1s[0] * np.exp(-0.8 * LAM * sig1 * t[sel])))
        details.append(f"s={s}:sigma1={sig1:.3f}")
    ok = sums_exact and amp_ok and dil_ok and const_ok and env_ok
    report(8, "interpolation inequality", ok,
           f"sigma sums exact={sums_exact}, amp={amp_ok}, dilation={dil_ok}, "
           f"empirical C {consts[0]:.3f}->{consts[1]:.3f}, envelopes={env_ok} [{' '.join(details)}]")
    assert sums_exact and amp_ok and dil_ok and const_ok and env_ok


# ---------------------------------------------------------------- criterion 9


def test_criterion_9_transport_kernel(corpus200):
    grid, corpus = corpus200
    _, dens = barenblatt(0.25, LAM, mass=1.0, grid=grid)
    target = normalize(dens)
    # translation exactness on a compactly supported density
    cells = 128
    a = cells * grid.h
    vals = np.roll(target.values, cells)
    vals[:cells] = 0.0
    shifted = normalize(GridDensity(grid, vals))
    trans_err = abs(w2(target, shifted) - a)
    self_dist = w2(target, target)
    rng = np.random.default_rng(7)
    tri_ok = True
    for _ in range(50):
        i, j, k = rng.choice(len(corpus), size=3, replace=False)
        da, db, dc = corpus[i][1], corpus[j][1], corpus[k][1]
        if w2(da, dc) > w2(da, db) + w2(db, dc) + 5 * grid.h:
            tri_ok = False
            break
    ok = trans_err <= 1e-10 and self_dist == 0.0 and tri_ok
    report(9, "transport kernel", ok,
           f"translation err={trans_err:.1e}, self distance={self_dist}, triangle(50 triples)={tri_ok}")
    assert trans_err <= 1e-10
    assert self_dist == 0.0
    assert tri_ok


# --------------------------------------------------------------- criterion 10


def _run_cli(args, threads: str, out_dir):
    res = run_cli(args, threads, cwd=out_dir)
    assert res.returncode == 0, res.stderr
    return res


def test_criterion_10_determinism(tmp_path):
    commands = {
        "simulate": lambda d: [
            "simulate", "--s", "0.25", "--grid-n", "256", "--t-end", "0.5",
            "--init", "barenblatt-shift:0.5", "--out-dir", str(d / "sim"),
        ],
        "verify": lambda d: [
            "verify", "--suite", "lsi,remainder,virial,gns", "--samples", "6",
            "--seed", "42", "--out", str(d / "verify.json"),
        ],
        "riesz": lambda d: ["riesz-convergence", "--s", "0.25", "--levels", "3",
                            "--out", str(d / "conv.csv")],
    }
    digests = []
    for threads, sub in (("1", "a"), ("4", "b")):
        d = tmp_path / sub
        d.mkdir()
        for name, build in commands.items():
            _run_cli(build(d), threads, d)
        _run_cli(
            ["decay-fit", "--traj", str(d / "sim" / "trajectory.csv"), "--quantity", "E_gap",
             "--window", "0.0:0.5", "--out", str(d / "fit.json")],
            threads,
            d,
        )
        blob = b""
        for rel in sorted(p.relative_to(d).as_posix() for p in d.rglob("*") if p.is_file()):
            if rel.endswith("manifest.json"):
                continue  # carries wall-clock by design
            blob += rel.encode() + (d / rel).read_bytes()
        digests.append(blob)
    ok = digests[0] == digests[1]
    report(10, "determinism across thread counts", ok,
           f"{len(digests[0])} bytes compared")
    assert ok
