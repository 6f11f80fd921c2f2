"""Command-line harness: simulation runs, randomized inequality verification,
kernel convergence studies, decay fits, and steady-profile export.

Exit codes: 0 success, 2 configuration error, 3 invariant/inequality failure.
All numeric output is deterministic for a fixed command line and seed; the
run manifest records wall-clock and is the one non-reproducible file.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np
from scipy.integrate import quad

from . import __version__
from . import energy as energy_mod
from . import evolve, steady, transport
from .errors import FracPMEError
from .grid import (
    DensitySpec,
    Grid,
    GridDensity,
    load_density_csv,
    normalize,
    random_density,
    save_density_csv,
)
from .riesz import workspace

SCHEMA_VERSION = 1
GAP_TOL = 1e-8
T2_TOL = 1e-12
REMAINDER_TOL = 1e-10
VIRIAL_TOL = 1e-3
GNS_FAMILY_TOL = 5e-3
GNS_FUZZ_SLACK = 1e-3

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _manifest(path: Path, command: str, args: dict, seed: int | None, outputs: list[str], t0: float) -> None:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": args,
        "seed": seed,
        "version": __version__,
        "wall_clock_s": time.time() - t0,
        "outputs": outputs,
    }
    _write_json(path, payload)


def corpus_spec(seed: int, k: int) -> DensitySpec:
    """Deterministic per-sample recipe of the fuzz corpus."""
    s = seed + k
    return DensitySpec(seed=s, n_bumps=1 + (s % 6), alpha=0.75, support_scale=1.5)


def fuzz_corpus(seed: int, samples: int, grid: Grid):
    for k in range(samples):
        spec = corpus_spec(seed, k)
        yield spec, random_density(spec, grid)


def _parse_lambda(text: str, s: float) -> float:
    if text == "auto":
        return evolve.self_similar_exponent(s)
    return float(text)


def _parse_dt(text: str) -> tuple[float | None, float]:
    """Returns (fixed_dt or None, cfl)."""
    if text.startswith("cfl:"):
        return None, float(text.split(":", 1)[1])
    return float(text), 0.5


def _build_init(name: str, s: float, lam: float, grid: Grid) -> GridDensity:
    if name in ("barenblatt", "steady", "rho_inf", "ρ_∞"):
        _, dens = steady.barenblatt(s, lam, mass=1.0, grid=grid)
        return dens
    if name.startswith("barenblatt-shift:"):
        x0 = float(name.split(":", 1)[1])
        _, dens = steady.barenblatt(s, lam, mass=1.0, x0=x0, grid=grid)
        return dens
    path = Path(name)
    if path.exists():
        return load_density_csv(path)
    raise ValueError(f"unknown init {name!r} (builtin or CSV path)")


def cmd_simulate(args) -> int:
    t0 = time.time()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lam = _parse_lambda(args.lam, args.s)
    dt, cfl = _parse_dt(args.dt)
    grid = Grid.symmetric(args.xmax, args.grid_n)
    init = _build_init(args.init, args.s, lam, grid)
    cfg = evolve.SolverConfig(
        s=args.s,
        grid=grid,
        lam=lam,
        eps=args.eps,
        dt=dt,
        t_end=args.t_end,
        cfl=cfl,
        init=init,
        snapshot_every=args.snapshot_every,
    )
    _, dens = steady.barenblatt(args.s, lam, mass=1.0, grid=grid)
    target = normalize(dens)

    try:
        traj = evolve.integrate(cfg, target)
    except FracPMEError as exc:
        print(f"solver invariant failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_INVARIANT

    outputs = []
    traj_path = out_dir / "trajectory.csv"
    with open(traj_path, "w", encoding="utf-8") as f:
        f.write("t,E,E_eps,I,I_eps,W2,L2,L1,mass,m2,min_rho\n")
        for i, t in enumerate(traj.times):
            row = [t] + [traj.diagnostics[k][i] for k in evolve.DIAGNOSTIC_KEYS]
            f.write(",".join(_fmt(v) for v in row) + "\n")
    outputs.append(str(traj_path))

    for i, snap in enumerate(traj.snapshots):
        p = out_dir / f"snapshot_{i:05d}.csv"
        save_density_csv(p, snap)
        outputs.append(str(p))

    if traj.max_mass_drift > 1e-12:
        print(f"solver invariant failure (mass drift {traj.max_mass_drift})", file=sys.stderr)
        return EXIT_INVARIANT

    _manifest(
        out_dir / "manifest.json",
        "simulate",
        {
            "s": args.s,
            "lambda": lam,
            "eps": args.eps,
            "grid_n": args.grid_n,
            "xmax": args.xmax,
            "dt": args.dt,
            "t_end": args.t_end,
            "init": args.init,
            "snapshot_every": args.snapshot_every,
        },
        None,
        outputs,
        t0,
    )
    return EXIT_OK


def _suite_inequalities(samples, target, s, lam, eps, names):
    """Gap suites sharing one inequality report per sample."""
    per_sample: dict[str, list] = {n: [] for n in names}
    attr = {"hwi": "hwi_gap", "lsi": "lsi_gap", "talagrand": "talagrand_gap", "lemmaE": "lemmaE_gap"}
    want_terms = "hwi" in names
    for spec, rho in samples:
        rep = transport.inequality_report(rho, s, lam, eps, target)
        terms = transport.hwi_terms(rho, target, s, lam, eps) if want_terms else None
        for name in names:
            gap = getattr(rep, attr[name])
            entry = {"seed": spec.seed, "gap": gap, "scale": rep.scale}
            entry["margin"] = gap / rep.scale
            if name == "hwi" and terms is not None:
                entry.update(
                    T1=terms.T1,
                    T2=terms.T2,
                    T3=terms.T3,
                    t_scale=terms.scale,
                )
            per_sample[name].append(entry)
    out = {}
    for name in names:
        rows = per_sample[name]
        worst = min(r["margin"] for r in rows)
        ok = worst >= -GAP_TOL
        offender = None
        if name == "hwi":
            for r in rows:
                t_ok = (
                    r["T1"] >= -GAP_TOL * r["t_scale"]
                    and r["T3"] >= -GAP_TOL * r["t_scale"]
                    and (abs(r["T2"]) <= T2_TOL if eps == 0 else r["T2"] >= -GAP_TOL * r["t_scale"])
                )
                if not t_ok:
                    ok = False
                    offender = r["seed"]
                    break
        if not ok and offender is None:
            offender = next(r["seed"] for r in rows if r["margin"] < -GAP_TOL)
        out[name] = {"pass": ok, "worst_margin": worst, "violating_seed": offender, "samples": rows}
    return out


def _suite_remainder(samples, s, lam):
    rows = []
    ok = True
    offender = None
    for spec, rho in samples:
        val = energy_mod.remainder_R(rho, s, lam)
        rows.append({"seed": spec.seed, "remainder": val})
        if val < -REMAINDER_TOL:
            ok = False
            if offender is None:
                offender = spec.seed
    worst = min(r["remainder"] for r in rows)
    return {"pass": ok, "worst_margin": worst, "violating_seed": offender, "samples": rows}


def _suite_virial(samples, s):
    rows = []
    ok = True
    offender = None
    for spec, rho in samples:
        lhs, rhs = energy_mod.virial_check(rho, s)
        rel = abs(lhs - rhs) / max(abs(rhs), 1e-300)
        rows.append({"seed": spec.seed, "lhs": lhs, "rhs": rhs, "rel_err": rel})
        if rel > VIRIAL_TOL:
            ok = False
            if offender is None:
                offender = spec.seed
    worst = max(r["rel_err"] for r in rows)
    return {"pass": ok, "worst_margin": VIRIAL_TOL - worst, "violating_seed": offender, "samples": rows}


def barenblatt_family(s: float, lam: float, grid: Grid):
    """Twelve-member amplitude/radius/center sweep of the profile shape."""
    members = [(a, r, 0.0) for a in (0.5, 1.0, 2.0) for r in (0.5, 1.0, 2.0)]
    members += [(1.0, 1.0, 0.3), (0.5, 2.0, 0.3), (2.0, 0.5, 0.3)]
    x = grid.centers
    for amp, rad, x0 in members:
        vals = amp * np.maximum(rad**2 - (x - x0) ** 2, 0.0) ** (1 - s)
        yield (amp, rad, x0), GridDensity(grid, vals)


def _suite_gns(samples, s, lam):
    fam_grid = Grid.symmetric(4.0, 4096)
    fam = []
    for (amp, rad, x0), dens in barenblatt_family(s, lam, fam_grid):
        fam.append({"A": amp, "R": rad, "x0": x0, "ratio": transport.gns_ratio(dens, s)})
    ratios = np.array([f["ratio"] for f in fam])
    spread = float((ratios.max() - ratios.min()) / ratios.mean())
    fam_const = float(ratios.max())
    rows = []
    ok = spread <= GNS_FAMILY_TOL
    offender = None
    for spec, rho in samples:
        ratio = transport.gns_ratio(rho, s)
        margin = ratio - fam_const * (1 - GNS_FUZZ_SLACK)
        rows.append({"seed": spec.seed, "ratio": ratio, "margin": margin})
        if margin < 0:
            ok = False
            if offender is None:
                offender = spec.seed
    return {
        "pass": ok,
        "family_spread": spread,
        "family_constant": fam_const,
        "worst_margin": min(r["margin"] for r in rows) if rows else None,
        "violating_seed": offender,
        "family": fam,
        "samples": rows,
    }


def _suite_interp(samples, target, s):
    alpha = 1.0 - s
    r = 0.49 * alpha
    rows = []
    ok = True
    offender = None
    for spec, rho in samples:
        u = rho.values - target.values
        lhs, rhs, sigmas = transport.interp_inequality(u, rho.grid, s, alpha, r)
        ratio = lhs / rhs if rhs > 0 else float("inf")
        rows.append({"seed": spec.seed, "lhs": lhs, "rhs_unnormalized": rhs, "ratio": ratio})
        if not np.isfinite(ratio):
            ok = False
            if offender is None:
                offender = spec.seed
    return {
        "pass": ok,
        "sigmas": list(transport.interp_sigmas(s, alpha, r)),
        "alpha": alpha,
        "r": r,
        "empirical_constant": max(row["ratio"] for row in rows) if rows else None,
        "violating_seed": offender,
        "samples": rows,
    }


VERIFY_SUITES = ("hwi", "lsi", "talagrand", "gns", "lemmaE", "interp", "remainder", "virial")


def cmd_verify(args) -> int:
    t0 = time.time()
    suites = [s.strip() for s in args.suite.split(",") if s.strip()]
    unknown = [s for s in suites if s not in VERIFY_SUITES]
    if unknown:
        print(f"unknown suite(s): {unknown}; choose from {VERIFY_SUITES}", file=sys.stderr)
        return EXIT_CONFIG
    lam = _parse_lambda(args.lam, args.s)
    if args.eps and not 0 < args.eps < lam / (2 * np.pi):
        print(f"eps must be in (0, lam/(2 pi)) = (0, {lam/(2*np.pi)})", file=sys.stderr)
        return EXIT_CONFIG
    if args.eps and "lemmaE" in suites:
        print("the lemmaE suite compares against the sharp minimizer; rerun with eps 0", file=sys.stderr)
        return EXIT_CONFIG
    grid = Grid.symmetric(4.0, 1024)
    corpus = list(fuzz_corpus(args.seed, args.samples, grid))

    if args.eps > 0:
        eps_cfg = evolve.SolverConfig(s=args.s, grid=grid, lam=lam, eps=args.eps, t_end=80.0, cfl=0.8)
        target = normalize(evolve.steady_state_eps(eps_cfg).density)
    else:
        target = normalize(steady.discrete_minimizer(args.s, lam, grid))

    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "params": {"s": args.s, "lambda": lam, "eps": args.eps, "samples": args.samples, "seed": args.seed},
        "corpus": {
            "seed": args.seed,
            "samples": args.samples,
            "rule": "seed+k; n_bumps=1+(seed+k)%6; alpha=0.75; support_scale=1.5; grid [-4,4] n=1024",
        },
        "suites": {},
    }

    gap_suites = [s for s in suites if s in ("hwi", "lsi", "talagrand", "lemmaE")]
    if gap_suites:
        report["suites"].update(_suite_inequalities(corpus, target, args.s, lam, args.eps, gap_suites))
    if "remainder" in suites:
        report["suites"]["remainder"] = _suite_remainder(corpus, args.s, lam)
    if "virial" in suites:
        report["suites"]["virial"] = _suite_virial(corpus, args.s)
    if "gns" in suites:
        report["suites"]["gns"] = _suite_gns(corpus, args.s, lam)
    if "interp" in suites:
        report["suites"]["interp"] = _suite_interp(corpus, target, args.s)

    overall = all(entry["pass"] for entry in report["suites"].values())
    report["pass"] = overall
    out = Path(args.out) if args.out else Path("verify_report.json")
    _write_json(out, report)
    print(f"verify: {'pass' if overall else 'FAIL'} -> {out}")
    if not overall:
        for name, entry in report["suites"].items():
            if not entry["pass"]:
                print(f"  suite {name} violated at sample seed {entry.get('violating_seed')}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def reference_potential(s: float, prof: steady.BarenblattProfile, xs: np.ndarray) -> np.ndarray:
    """Closed form for s < 1/2; adaptive log-kernel quadrature at s = 1/2."""
    if s < 0.5:
        return np.asarray(steady.steady_potential(prof, xs))
    if s == 0.5:
        out = np.empty_like(xs)
        R = prof.R
        for i, x in enumerate(xs):
            f = lambda y: -prof.evaluate(y) * np.log(abs(x - y)) / np.pi
            val, _ = quad(f, -R, R, points=[np.clip(x, -R, R)], limit=400)
            out[i] = val
        return out
    raise ValueError("reference potential only implemented for s <= 1/2")


def cmd_riesz_convergence(args) -> int:
    lam = 0.4
    prof, _ = steady.barenblatt(args.s, lam, radius=1.0)
    rows = []
    prev_linf = None
    order = float("nan")
    for level in range(args.levels):
        n = 256 * 2**level
        grid = Grid.symmetric(2.0, n)
        dens = prof.sample(grid)
        pot = workspace(grid, args.s).potential(dens.values)
        mask = np.abs(grid.centers) <= 0.9 * prof.R
        ref = reference_potential(args.s, prof, grid.centers[mask])
        err = pot[mask] - ref
        scale = float(np.max(np.abs(ref)))
        linf = float(np.max(np.abs(err))) / scale
        l2 = float(np.sqrt(np.mean(err**2))) / scale
        order = float(np.log2(prev_linf / linf)) if prev_linf else float("nan")
        rows.append((grid.h, linf, l2, order))
        prev_linf = linf
    out = Path(args.out) if args.out else Path("riesz_convergence.csv")
    with open(out, "w", encoding="utf-8") as f:
        f.write("h,err_Linf,err_L2,order\n")
        for h, linf, l2, o in rows:
            f.write(f"{_fmt(h)},{_fmt(linf)},{_fmt(l2)},{_fmt(o)}\n")
    print(f"riesz-convergence: finest order {order:.3f} -> {out}")
    if not order >= 1.0:
        print(f"observed order {order} < 1 at finest pair", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def _load_trajectory_csv(path: Path) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    with open(path, encoding="utf-8") as f:
        header = f.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    if data.ndim == 1:
        data = data[None, :]
    cols = {name: data[:, i] for i, name in enumerate(header)}
    return cols.pop("t"), cols


def cmd_decay_fit(args) -> int:
    traj_path = Path(args.traj)
    manifest_path = Path(args.manifest) if args.manifest else traj_path.parent / "manifest.json"
    if not traj_path.exists() or not manifest_path.exists():
        print(f"missing trajectory {traj_path} or manifest {manifest_path}", file=sys.stderr)
        return EXIT_CONFIG
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    cfgd = manifest["config"]
    s, lam = cfgd["s"], cfgd["lambda"]
    grid = Grid.symmetric(cfgd["xmax"], cfgd["grid_n"])
    _, dens = steady.barenblatt(s, lam, mass=1.0, grid=grid)
    target = normalize(dens)
    e_target = energy_mod.energy(target, s, lam, 0.0).total

    times, cols = _load_trajectory_csv(traj_path)
    cfg = evolve.SolverConfig(s=s, grid=grid, lam=lam, t_end=float(times[-1]) or 1.0)
    traj = evolve.Trajectory(
        config=cfg,
        times=times,
        snapshots=[],
        diagnostics=cols,
        target=target,
        e_target=e_target,
        e_eps_target=e_target,
    )
    lo, hi = (float(v) for v in args.window.split(":"))
    prefactor = None
    if args.quantity == "W2":
        egap0 = float(cols["E"][0] - e_target)
        prefactor = float(np.sqrt(2 / lam * max(egap0, 0.0)))
    try:
        fit = evolve.fit_decay(traj, args.quantity, (lo, hi), prefactor=prefactor)
    except FracPMEError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    payload = {
        "schema_version": SCHEMA_VERSION,
        "quantity": fit.quantity,
        "rate": fit.rate,
        "bound_rate": fit.bound_rate,
        "bound_satisfied": fit.bound_satisfied,
        "prefactor": fit.prefactor,
        "window": list(fit.window),
    }
    out = Path(args.out) if args.out else Path("decay_fit.json")
    _write_json(out, payload)
    print(f"decay-fit: rate={fit.rate:.6f} bound_rate={fit.bound_rate} satisfied={fit.bound_satisfied}")
    return EXIT_OK if fit.bound_satisfied else EXIT_INVARIANT


def cmd_steady(args) -> int:
    lam = _parse_lambda(args.lam, args.s)
    grid = Grid.symmetric(args.xmax, args.grid_n)
    if args.mass is None and args.radius is None:
        args.mass = 1.0
    kwargs = {"mass": args.mass} if args.mass is not None else {"radius": args.radius}
    prof, dens = steady.barenblatt(args.s, lam, x0=args.x0, grid=grid, **kwargs)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_density_csv(out_dir / "profile.csv", dens)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "s": prof.s,
        "lambda": prof.lam,
        "R": prof.R,
        "M": prof.M,
        "K": prof.K,
        "C_star": steady.c_star(prof),
    }
    _write_json(out_dir / "steady.json", payload)
    print(f"steady: R={prof.R:.6f} M={prof.M:.6f} -> {out_dir}")
    return EXIT_OK


def _apply_config_file(argv: list[str]) -> list[str]:
    """Prepend key=value pairs from --config as defaults (flags win)."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    path = Path(argv[i + 1])
    rest = argv[:i] + argv[i + 2 :]
    extra: list[str] = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        flag = "--" + key.strip().replace("_", "-")
        if flag not in rest:
            extra += [flag, value.strip()]
    # subcommand stays first; defaults go right after it
    return rest[:1] + extra + rest[1:]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fracpme", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="integrate the flow and write trajectory files")
    sim.add_argument("--s", type=float, required=True)
    sim.add_argument("--lambda", dest="lam", default="auto")
    sim.add_argument("--eps", type=float, default=0.0)
    sim.add_argument("--grid-n", type=int, default=1024)
    sim.add_argument("--xmax", type=float, default=4.0)
    sim.add_argument("--dt", default="cfl:0.5")
    sim.add_argument("--t-end", type=float, default=5.0)
    sim.add_argument("--init", default="barenblatt-shift:0.5")
    sim.add_argument("--snapshot-every", type=float, default=0.05)
    sim.add_argument("--out-dir", required=True)
    sim.set_defaults(func=cmd_simulate)

    ver = sub.add_parser("verify", help="randomized inequality verification")
    ver.add_argument("--suite", default=",".join(VERIFY_SUITES))
    ver.add_argument("--samples", type=int, default=200)
    ver.add_argument("--seed", type=int, default=42)
    ver.add_argument("--s", type=float, default=0.25)
    ver.add_argument("--lambda", dest="lam", default="0.4")
    ver.add_argument("--eps", type=float, default=0.0)
    ver.add_argument("--out", default=None)
    ver.set_defaults(func=cmd_verify)

    rc = sub.add_parser("riesz-convergence", help="kernel accuracy refinement study")
    rc.add_argument("--s", type=float, required=True)
    rc.add_argument("--levels", type=int, default=5)
    rc.add_argument("--out", default=None)
    rc.set_defaults(func=cmd_riesz_convergence)

    df = sub.add_parser("decay-fit", help="exponential-rate fit of a trajectory diagnostic")
    df.add_argument("--traj", required=True)
    df.add_argument("--quantity", default="E_gap")
    df.add_argument("--window", default="0.5:5.0")
    df.add_argument("--manifest", default=None)
    df.add_argument("--out", default=None)
    df.set_defaults(func=cmd_decay_fit)

    st = sub.add_parser("steady", help="export the steady profile and its constants")
    st.add_argument("--s", type=float, required=True)
    st.add_argument("--lambda", dest="lam", default="auto")
    st.add_argument("--mass", type=float, default=None)
    st.add_argument("--radius", type=float, default=None)
    st.add_argument("--x0", type=float, default=0.0)
    st.add_argument("--grid-n", type=int, default=1024)
    st.add_argument("--xmax", type=float, default=4.0)
    st.add_argument("--out-dir", required=True)
    st.set_defaults(func=cmd_steady)

    return p


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    argv = _apply_config_file(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, FracPMEError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
