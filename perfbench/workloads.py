"""The benchmark's workloads: the fracpme command each one runs, the inputs it
takes from the benchmark seed, and the check its outputs must pass.

Every workload is one `fracpme` CLI command run in a fresh interpreter. The
checks compare against values recorded from the same commands at the commit
that introduced the benchmark (`reference.json`, written by
`record_reference.py`), within the tolerances stated below.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# The verify corpus seed of a workload run is drawn from this fixed table,
# indexed by the benchmark seed plus the run's position in the loop, so
# every corpus the benchmark can use has a recorded reference. Entries are
# 1000 apart because the corpus uses seeds seed .. seed+samples-1.
FUZZ_SEEDS = tuple(42 + 1000 * j for j in range(16))

SIMULATE_ROWS = 101
# Last trajectory row. Halving dt (cfl 0.5 -> 0.25) moves E by 1.9e-7 and
# W2 by 4.6e-5 relative, so these tolerances admit a stepper whose first-order
# time error is up to about 20 times larger, but not a different flow. Mass
# conservation is an invariant of the scheme.
SIMULATE_RTOL = {"E": 1e-5, "W2": 1e-3}
MASS_ATOL = 1e-12
# Per-suite worst margins: |got - ref| <= RTOL |ref| + ATOL. Reordered
# floating-point sums or a steady state solved to round-off instead of
# marched to stationarity stay well inside this.
MARGIN_RTOL = 1e-6
MARGIN_ATOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build_argv: Callable[[int], list[str]]  # corpus seed -> fracpme argv
    observe: Callable[[Path], dict]  # run directory -> observed outputs
    # (observed, reference or None) -> problems; empty when the outputs are
    # correct. Without a reference only the structural part is checked.
    check: Callable[[dict, dict | None], list[str]]
    seeded: bool


def fuzz_seed(seed: int, position: int) -> int:
    return FUZZ_SEEDS[(seed + position) % len(FUZZ_SEEDS)]


def _simulate_argv(_seed: int) -> list[str]:
    return (
        "simulate --s 0.25 --lambda auto --grid-n 1024 --xmax 4 --dt cfl:0.5 "
        "--t-end 5 --init barenblatt-shift:0.5 --out-dir out"
    ).split()


def _verify_argv(seed: int) -> list[str]:
    return (
        "verify --suite hwi,lsi,talagrand,gns,lemmaE,interp,remainder,virial "
        f"--samples 200 --seed {seed} --s 0.25 --lambda 0.4 --out report.json"
    ).split()


def _observe_simulate(run_dir: Path) -> dict:
    with open(run_dir / "out" / "trajectory.csv", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    last = rows[-1]
    return {"rows": len(rows), "E": float(last["E"]), "W2": float(last["W2"]), "mass": float(last["mass"])}


def _observe_verify(run_dir: Path) -> dict:
    report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
    suites = {}
    for name, entry in report["suites"].items():
        # interp has no margin; its empirical constant is the recorded figure
        value = entry["worst_margin"] if name != "interp" else entry["empirical_constant"]
        suites[name] = {"pass": entry["pass"], "value": value}
    return {"pass": report["pass"], "suites": suites}


def _close(got: float, ref: float, rtol: float, atol: float) -> bool:
    return math.isfinite(got) and abs(got - ref) <= rtol * abs(ref) + atol


def _check_simulate(observed: dict, reference: dict | None) -> list[str]:
    problems = []
    if observed["rows"] != SIMULATE_ROWS:
        problems.append(f"trajectory has {observed['rows']} rows, expected {SIMULATE_ROWS}")
    if reference is not None:
        for key, rtol in SIMULATE_RTOL.items():
            if not _close(observed[key], reference[key], rtol, 0.0):
                problems.append(f"final {key} = {observed[key]!r}, reference {reference[key]!r}")
        if not _close(observed["mass"], reference["mass"], 0.0, MASS_ATOL):
            problems.append(f"final mass = {observed['mass']!r}, reference {reference['mass']!r}")
    return problems


def _check_verify(observed: dict, reference: dict | None) -> list[str]:
    problems = []
    if not observed["pass"]:
        problems.append("report says pass: false")
    for name, entry in observed["suites"].items():
        if not entry["pass"]:
            problems.append(f"suite {name} failed")
    if reference is not None:
        if set(observed["suites"]) != set(reference["suites"]):
            problems.append(f"suites {sorted(observed['suites'])}, reference {sorted(reference['suites'])}")
        for name, ref in reference["suites"].items():
            got = observed["suites"].get(name, {}).get("value")
            if got is None or not _close(got, ref["value"], MARGIN_RTOL, MARGIN_ATOL):
                problems.append(f"suite {name} worst margin {got!r}, reference {ref['value']!r}")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "simulate",
            "README canonical run: 22k explicit steps, each a Riesz potential and gradient by FFT, plus 101 checkpoints",
            _simulate_argv,
            _observe_simulate,
            _check_simulate,
            seeded=False,
        ),
        Workload(
            "verify",
            "200-density inequality fuzz on the uncached Riesz path; Holder, w2, remainder and minimizer costs, no stepper",
            _verify_argv,
            _observe_verify,
            _check_verify,
            seeded=True,
        ),
    )
}


def reference_key(workload: Workload, seed: int) -> str:
    return f"{workload.name}:{seed}" if workload.seeded else workload.name


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
