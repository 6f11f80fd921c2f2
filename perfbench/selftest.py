"""Smoke test of the benchmark itself; makes no timing assertions.

    python3 perfbench/selftest.py

Runs every workload once at a small size, checks that every metric named in BENCHMARK.json is emitted with its unit,
that deliberately failing runs are counted as failed, and that the output
checks catch a wrong value. Takes about a minute.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys

import run
from workloads import WORKLOADS

SMALL_ARGV = {
    "simulate": "simulate --s 0.25 --lambda auto --grid-n 256 --xmax 4 --dt cfl:0.5 "
    "--t-end 0.5 --snapshot-every 0.005 --init barenblatt-shift:0.5 --out-dir out",
    "verify": "verify --suite hwi,lsi,talagrand,gns,lemmaE,interp,remainder,virial "
    "--samples 4 --seed {seed} --s 0.25 --lambda 0.4 --out report.json",
}


def small(name: str, argv: str | None = None):
    text = argv or SMALL_ARGV[name]
    return dataclasses.replace(WORKLOADS[name], build_argv=lambda seed: text.format(seed=seed).split())


def expect(condition: bool, message: str, failures: list[str]) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def expect_metrics(result: dict, declared: list[dict], what: str, failures: list[str]) -> None:
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    expect(got == want, f"{what}: metric names and units match BENCHMARK.json", failures)
    if got != want:
        print(f"     missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures: list[str] = []
    try:
        expect(set(SMALL_ARGV) == set(WORKLOADS) == {w["name"] for w in spec["workloads"]},
               "every workload has a small variant and is declared", failures)
        for name in WORKLOADS:
            result = run.run_one(small(name), seed=0, seconds=0, trace=False, reference=None)
            expect(result["correct"] and result["failed"] == 0, f"{name}: small run passes its checks", failures)
            expect_metrics(result, spec["end_to_end"], f"{name} trace 0", failures)
        for name in ("simulate", "verify"):
            result = run.run_one(small(name), seed=0, seconds=0, trace=True, reference=None)
            expect(result["correct"], f"{name}: small traced run passes its checks", failures)
            expect_metrics(result, spec["per_layer"], f"{name} trace 1", failures)
            calls = result["metrics"]["riesz.potential_and_gradient.calls"]["value"]
            expect((calls > 0) == (name == "simulate"), f"{name}: workspace calls seen only where the stepper runs", failures)

        bad = small("simulate", SMALL_ARGV["simulate"].replace("--s 0.25", "--s 1.5"))
        result = run.run_one(bad, seed=0, seconds=0, trace=True, reference=None)
        expect(not result["correct"] and result["failed"] == result["attempted"] == 2,
               "a run that exits non-zero counts as failed", failures)
        expect(result["metrics"]["failed_ops"]["value"] == 1.0, "failed_ops is 1 when every run fails", failures)

        wrong = {"simulate": {"rows": 101, "E": 0.5, "W2": 0.0677, "mass": 1.0}}
        result = run.run_one(small("simulate"), seed=0, seconds=0, trace=False, reference=wrong)
        expect(not result["correct"] and result["failed"] == 1, "a run whose outputs disagree with the reference counts as failed", failures)

        observed = {"pass": True, "suites": {"hwi": {"pass": True, "value": 0.018}}}
        reference = {"suites": {"hwi": {"pass": True, "value": 0.018 * (1 + 1e-4)}}}
        expect(bool(WORKLOADS["verify"].check(observed, reference)), "a moved worst margin is caught", failures)
        expect(not WORKLOADS["verify"].check(observed, {"suites": observed["suites"]}), "an equal worst margin passes", failures)
    finally:
        shutil.rmtree(run.WORK_DIR, ignore_errors=True)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
