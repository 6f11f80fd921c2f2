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
from itertools import chain
from pathlib import Path

import numpy as np

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


JSON_INDENT = "  "
JSON_CHUNK_ROWS = 8  # rows a C-encoder call: as fast as 16, and half the text held
JSON_CONTAINERS = (dict, list, tuple)


def _all_scalars(members) -> bool:
    # by the set of their types, not member by member: a suite's samples hold 1,000 values
    return not any(issubclass(t, JSON_CONTAINERS) for t in set(map(type, members)))


def _are_rows(value: list | tuple) -> bool:
    """Non-empty dicts whose members are all scalars, such as a suite's samples."""
    if set(map(type, value)) != {dict} or not all(value):
        return False
    return _all_scalars(chain.from_iterable(map(dict.values, value)))


def _write_json(path: Path, payload: object) -> None:
    """Write the bytes of json.dump(payload, f, indent=2, sort_keys=True) and a
    newline, through the C encoder, which an indent turns off.

    A container whose members are all scalars is one encode call, whose item
    separator carries the indent of its members; the braces and the indents
    around it are written here. A list of rows (see _are_rows) is encoded
    JSON_CHUNK_ROWS rows a call, and the boundaries between its rows are
    re-indented: JSON escapes every newline in a string, so "},\n", the
    indent and "{" occur in a row list's text only there. Only containers that
    hold a container recurse here. The text is streamed a chunk at a time: a
    json.dumps of a 200-sample verify report holds 1.35 MiB and so sets the
    command's peak memory.
    """
    encoders: dict[int, json.JSONEncoder] = {}

    def encode(value, level: int) -> str:
        # members of a container encoded at level sit at that level's indent
        if level not in encoders:
            encoders[level] = json.JSONEncoder(sort_keys=True, separators=(",\n" + JSON_INDENT * level, ": "))
        return encoders[level].encode(value)

    def emit(value, level: int) -> None:
        # value starts at the current position; its members sit at level + 1
        outer, inner = JSON_INDENT * level, JSON_INDENT * (level + 1)
        if not isinstance(value, JSON_CONTAINERS) or not value:
            write(encode(value, level))
        elif _all_scalars(value.values() if isinstance(value, dict) else value):
            text = encode(value, level + 1)
            write(f"{text[0]}\n{inner}{text[1:-1]}\n{outer}{text[-1]}")
        elif isinstance(value, dict):
            sep = "{\n"
            for key, member in sorted(value.items()):
                # the encoder's own spelling of the key (a non-string key becomes a string)
                write(f"{sep}{inner}{encode({key: 0}, 0)[1:-4]}: ")
                emit(member, level + 1)
                sep = ",\n"
            write(f"\n{outer}}}")
        elif _are_rows(value):
            deeper = JSON_INDENT * (level + 2)
            boundary, reindented = "},\n" + deeper + "{", f"\n{inner}}},\n{inner}{{\n{deeper}"
            sep = "[\n"
            for i in range(0, len(value), JSON_CHUNK_ROWS):
                text = encode(value[i : i + JSON_CHUNK_ROWS], level + 2)  # [{...},\n<deeper>{...}]
                write(f"{sep}{inner}{{\n{deeper}{text[2:-2].replace(boundary, reindented)}\n{inner}}}")
                sep = ",\n"
            write(f"\n{outer}]")
        else:
            sep = "[\n"
            for member in value:
                write(sep + inner)
                emit(member, level + 1)
                sep = ",\n"
            write(f"\n{outer}]")

    with open(path, "w", encoding="utf-8") as f:
        write = f.write
        emit(payload, 0)
        write("\n")


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
    return DensitySpec(seed=s, n_bumps=1 + (s % 6))


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


def _run_target(s: float, lam: float, grid: Grid) -> GridDensity:
    """The target a run is measured against, in simulate and decay-fit
    alike: the unit-mass Barenblatt profile sampled on grid, normalized."""
    _, dens = steady.barenblatt(s, lam, mass=1.0, grid=grid)
    return normalize(dens)


def cmd_simulate(args) -> int:
    t0 = time.time()
    lam = _parse_lambda(args.lam, args.s)
    dt, cfl = _parse_dt(args.dt)
    grid = Grid.symmetric(args.xmax, args.grid_n)
    init = _build_init(args.init, args.s, lam, grid)
    if not init.mass > 0:
        raise ValueError(f"--init {args.init} has no mass on the grid [-{args.xmax}, {args.xmax}]")
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
    target = _run_target(args.s, lam, grid)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    try:
        traj = evolve.integrate(cfg, target)
    except FracPMEError as exc:
        print(f"solver invariant failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_INVARIANT

    outputs = []
    traj_path = out_dir / "trajectory.csv"
    with open(traj_path, "w", encoding="utf-8") as f:
        f.write(",".join(("t", *evolve.DIAGNOSTIC_KEYS)) + "\n")
        for i, t in enumerate(traj.times):
            row = [t] + [traj.diagnostics[k][i] for k in evolve.DIAGNOSTIC_KEYS]
            f.write(",".join(_fmt(v) for v in row) + "\n")
    outputs.append(str(traj_path))

    for i, snap in enumerate(traj.snapshots):
        p = out_dir / f"snapshot_{i:05d}.csv"
        save_density_csv(p, snap)
        outputs.append(str(p))

    stats_path = out_dir / "stats.json"
    _write_json(stats_path, {"schema_version": SCHEMA_VERSION, **traj.stats.summary()})
    outputs.append(str(stats_path))

    if traj.stats.max_mass_drift > 1e-12:
        print(f"solver invariant failure (mass drift {traj.stats.max_mass_drift})", file=sys.stderr)
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


def _verdict(rows: list[dict], ok, **summary) -> dict:
    """A suite's verdict on its per-sample rows: it passes when ok(row) holds
    on every sample and names the seed of the first sample where it does
    not. Each ok is written as value >= bound: a comparison with a NaN is
    False, so a NaN fails its suite. The suites take their worst values with
    np.min and np.max, which return NaN when any row holds one (Python's min
    and max skip a NaN unless it comes first)."""
    offender = next((r["seed"] for r in rows if not ok(r)), None)
    return {"pass": offender is None, **summary, "violating_seed": offender, "samples": rows}


GAP_SUITES = {"hwi": "hwi_gap", "lsi": "lsi_gap", "talagrand": "talagrand_gap", "lemmaE": "lemmaE_gap"}


def barenblatt_family(s: float, grid: Grid):
    """Twelve-member amplitude/radius/center sweep of the profile shape."""
    members = [(a, r, 0.0) for a in (0.5, 1.0, 2.0) for r in (0.5, 1.0, 2.0)]
    members += [(1.0, 1.0, 0.3), (0.5, 2.0, 0.3), (2.0, 0.5, 0.3)]
    x = grid.centers
    for amp, rad, x0 in members:
        vals = amp * np.maximum(rad**2 - (x - x0) ** 2, 0.0) ** (1 - s)
        yield (amp, rad, x0), GridDensity(grid, vals)


def _gns_family(s: float) -> dict:
    """The gns ratio of every member of the profile family, their relative
    spread, and the largest, the constant the samples are held to."""
    fam_grid = Grid.symmetric(4.0, 4096)
    fam = []
    for (amp, rad, x0), dens in barenblatt_family(s, fam_grid):
        fam.append({"A": amp, "R": rad, "x0": x0, "ratio": transport.gns_ratio(dens, s)})
    ratios = np.array([f["ratio"] for f in fam])
    spread = float((ratios.max() - ratios.min()) / ratios.mean())
    return {"family_spread": spread, "family_constant": float(ratios.max()), "family": fam}


def _sample_rows(spec, rho, target, s, lam, eps, names, gns) -> dict[str, dict]:
    """The row of every suite in names on one sample.

    The gap suites share one inequality report, and hwi adds its three
    terms. interp takes the negative Sobolev norm of rho - target from the
    report where it holds one.
    """
    rows = {}
    nsn = None
    gap = [name for name in names if name in GAP_SUITES]
    if gap:
        rep = transport.inequality_report(rho, s, lam, eps, target)
        nsn = rep.extras.get("neg_sobolev_norm")
        terms = transport.hwi_terms(rho, target, s, lam, eps) if "hwi" in names else None
        for name in gap:
            value = getattr(rep, GAP_SUITES[name])
            rows[name] = {"seed": spec.seed, "gap": value, "scale": rep.scale, "margin": value / rep.scale}
            if name == "hwi":
                rows[name].update(T1=terms.T1, T2=terms.T2, T3=terms.T3, t_scale=terms.scale)
    if "remainder" in names:
        rows["remainder"] = {"seed": spec.seed, "remainder": energy_mod.remainder_R(rho, s, lam)}
    if "virial" in names:
        lhs, rhs = energy_mod.virial_check(rho, s)
        rel = abs(lhs - rhs) / max(abs(rhs), 1e-300)
        rows["virial"] = {"seed": spec.seed, "lhs": lhs, "rhs": rhs, "rel_err": rel}
    if "gns" in names:
        ratio = transport.gns_ratio(rho, s)
        margin = ratio - gns["family_constant"] * (1 - GNS_FUZZ_SLACK)
        rows["gns"] = {"seed": spec.seed, "ratio": ratio, "margin": margin}
    if "interp" in names:
        alpha, r = evolve.interp_orders(s)
        lhs, rhs, _ = transport.interp_inequality(rho.values - target.values, rho.grid, s, alpha, r, nsn=nsn)
        ratio = lhs / rhs if rhs > 0 else float("inf")
        rows["interp"] = {"seed": spec.seed, "lhs": lhs, "rhs_unnormalized": rhs, "ratio": ratio}
    return rows


def _suite_verdict(name: str, rows: list[dict], s: float, eps: float, gns) -> dict:
    """The verdict of one suite on its rows (see _verdict)."""
    if name in GAP_SUITES:

        def margin_ok(r):
            return r["margin"] >= -GAP_TOL

        def hwi_ok(r):
            tol = -GAP_TOL * r["t_scale"]
            t2_ok = abs(r["T2"]) <= T2_TOL if eps == 0 else r["T2"] >= tol
            return margin_ok(r) and r["T1"] >= tol and r["T3"] >= tol and t2_ok

        worst = float(np.min([r["margin"] for r in rows]))
        return _verdict(rows, hwi_ok if name == "hwi" else margin_ok, worst_margin=worst)
    if name == "remainder":
        worst = float(np.min([r["remainder"] for r in rows]))
        return _verdict(rows, lambda r: r["remainder"] >= -REMAINDER_TOL, worst_margin=worst)
    if name == "virial":
        worst = float(np.max([r["rel_err"] for r in rows]))
        return _verdict(rows, lambda r: r["rel_err"] <= VIRIAL_TOL, worst_margin=VIRIAL_TOL - worst)
    if name == "gns":
        worst = float(np.min([r["margin"] for r in rows])) if rows else None
        out = _verdict(rows, lambda r: r["margin"] >= 0, worst_margin=worst, **gns)
        out["pass"] = out["pass"] and gns["family_spread"] <= GNS_FAMILY_TOL
        return out
    alpha, r = evolve.interp_orders(s)
    return _verdict(
        rows,
        lambda row: np.isfinite(row["ratio"]),
        sigmas=list(transport.interp_sigmas(s, alpha, r)),
        alpha=alpha,
        r=r,
        empirical_constant=float(np.max([row["ratio"] for row in rows])) if rows else None,
    )


def run_suites(samples, target, s, lam, eps, names) -> dict[str, dict]:
    """The verdict of every suite in names on the corpus.

    samples is an iterable of (spec, density) pairs, read once: every suite
    takes its row of one sample before the next is read, and the corpus is
    never held whole. A density keeps its fields (riesz.kept_field), so they
    are computed once for all suites. The verdicts come in the order of names.
    """
    gns = _gns_family(s) if "gns" in names else None
    rows: dict[str, list] = {name: [] for name in names}
    for spec, rho in samples:
        for name, row in _sample_rows(spec, rho, target, s, lam, eps, names, gns).items():
            rows[name].append(row)
    return {name: _suite_verdict(name, suite_rows, s, eps, gns) for name, suite_rows in rows.items()}


VERIFY_SUITES = ("hwi", "lsi", "talagrand", "gns", "lemmaE", "interp", "remainder", "virial")


def cmd_verify(args) -> int:
    if args.samples < 1:
        print(f"--samples must be at least 1, got {args.samples}", file=sys.stderr)
        return EXIT_CONFIG
    if args.suite is None:
        # lemmaE needs the sharp minimizer, so the eps default leaves it out
        suites = [s for s in VERIFY_SUITES if not (args.eps and s == "lemmaE")]
    else:
        suites = [s.strip() for s in args.suite.split(",") if s.strip()]
        if not suites:
            raise ValueError(f"--suite names no suite; choose from {VERIFY_SUITES}")
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

    if args.eps > 0:
        eps_cfg = evolve.SolverConfig(s=args.s, grid=grid, lam=lam, eps=args.eps, t_end=80.0, cfl=0.8)
        target = normalize(evolve.steady_state_eps(eps_cfg))
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
        "suites": run_suites(fuzz_corpus(args.seed, args.samples, grid), target, args.s, lam, args.eps, suites),
    }

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


def cmd_riesz_convergence(args) -> int:
    if args.levels < 2:
        print(f"--levels must be at least 2 to observe an order, got {args.levels}", file=sys.stderr)
        return EXIT_CONFIG
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
        ref = steady.steady_potential(prof, grid.centers[mask])
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
    lines = path.read_text(encoding="utf-8").split()  # a row holds no blank; empty lines drop out
    if len(lines) < 2 or lines[0].split(",")[0] != "t":
        raise ValueError(f"trajectory {path} has no rows under a header that starts with t")
    header = lines[0].split(",")
    data = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    cols = {name: data[:, i] for i, name in enumerate(header)}
    return cols.pop("t"), cols


def cmd_decay_fit(args) -> int:
    traj_path = Path(args.traj)
    manifest_path = Path(args.manifest) if args.manifest else traj_path.parent / "manifest.json"
    if not traj_path.exists() or not manifest_path.exists():
        print(f"missing trajectory {traj_path} or manifest {manifest_path}", file=sys.stderr)
        return EXIT_CONFIG
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    cfgd = manifest.get("config", {}) if isinstance(manifest, dict) else {}
    if not {"s", "lambda", "eps", "xmax", "grid_n"} <= cfgd.keys():
        raise ValueError(f"manifest {manifest_path} has no config s, lambda, eps, xmax and grid_n")
    s, lam, eps = cfgd["s"], cfgd["lambda"], cfgd["eps"]
    grid = Grid.symmetric(cfgd["xmax"], cfgd["grid_n"])
    target = _run_target(s, lam, grid)
    e_target = energy_mod.energy(target, s, lam, 0.0).total

    times, cols = _load_trajectory_csv(traj_path)
    cfg = evolve.SolverConfig(s=s, grid=grid, lam=lam, eps=eps, t_end=float(times[-1]) or 1.0)
    traj = evolve.Trajectory(
        config=cfg,
        times=times,
        snapshots=[],
        diagnostics=cols,
        e_target=e_target,
        e_eps_target=energy_mod.energy(target, s, lam, eps).total,
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
    if i + 1 == len(argv):
        raise ValueError("--config needs a file path")
    path = Path(argv[i + 1])
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read --config file {str(path)!r}: {exc.strerror}") from exc
    rest = argv[:i] + argv[i + 2 :]
    extra: list[str] = []
    for line in text.splitlines():
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
    ver.add_argument("--suite", default=None, help="comma-separated; default all (without lemmaE at eps > 0)")
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
    df.add_argument("--quantity", default="E_gap", choices=list(evolve.BOUND_RATES))
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
    parser = build_parser()
    try:
        args = parser.parse_args(_apply_config_file(argv))
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, FracPMEError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
