"""fracpme benchmark: CLI workloads timed end to end, or traced per layer.

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55

Run from the root of a checkout; the package is imported from its `src/`.
Each workload command runs in a fresh interpreter, one after the other (a
closed loop with one client), at one BLAS/OpenMP thread, at least once and
then while one more run is expected to end within --seconds. With --trace 0
the last line of output is a JSON object with the end-to-end metrics, medians
over the runs: set-up time, peak memory, and the command's wall and CPU time
divided by the time of a fixed reference computation run next to it in the
same process (unit `ref`), which cancels the host's changing speed. With
--trace 1 it holds the per-layer metrics of traced runs, the raw times and
the tracing overhead of untraced runs made alongside them, and the kernel
microbench. Every run's outputs are checked against `reference.json`; a run
that exits non-zero or fails the check counts as failed and is never
retried. `--workload all` runs every workload both ways and prints a summary.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import microbench
from tracer import LAYER_UNITS
from workloads import WORKLOADS, Workload, fuzz_seed, load_reference, reference_key

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
SETUP_PROBES = 4
DEADLINE_S = 170.0

E2E_UNITS = {"setup_s": "s", "wall_ref": "ref", "cpu_ref": "ref", "peak_rss_mb": "MiB"}
# Reported with --trace 1: the raw times, which follow the host's speed.
RAW_UNITS = {"wall_s": "s", "cpu_s": "s", "reference_s": "s"}


class SetupError(RuntimeError):
    """The package cannot be imported from this checkout."""


@dataclass
class Sample:
    """One workload command: its cost and whether its outputs were correct."""

    setup_s: float | None = None
    wall_s: float | None = None
    cpu_s: float | None = None
    reference_s: float | None = None
    peak_rss_mb: float | None = None
    layers: dict | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def wall_ref(self) -> float | None:
        return None if self.wall_s is None else self.wall_s / self.reference_s

    @property
    def cpu_ref(self) -> float | None:
        return None if self.cpu_s is None else self.cpu_s / self.reference_s


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env.update({var: str(threads) for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], trace: bool, run_dir: Path, deadline: float) -> tuple[dict | None, str]:
    """Start child.py in run_dir and wait for it; returns (result, error)."""
    result_path = run_dir / "child.json"
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(result_path), str(int(trace)), *argv]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd,
            cwd=run_dir,
            env=child_env(1),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired:
        return None, "timed out"
    if proc.returncode != 0 or not result_path.exists():
        return None, f"child exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["setup_s"] = result["imported_at"] - started
    return result, ""


def fresh_dir(name: str) -> Path:
    path = WORK_DIR / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def probe_setup(count: int, deadline: float) -> tuple[list[float], dict]:
    """Import-only children: one warm-up, then `count` timed set-ups."""
    times, env = [], {}
    for i in range(count + 1):
        result, error = run_child([], False, fresh_dir("probe"), deadline)
        if result is None:
            raise SetupError(error)
        if i == 0:
            env = result["env"]
        else:
            times.append(result["setup_s"])
    return times, env


def run_workload(
    workload: Workload, seed: int, position: int, trace: bool, reference: dict | None, deadline: float
) -> Sample:
    """One command; with reference None its outputs get only the structural check."""
    corpus_seed = fuzz_seed(seed, position)
    run_dir = fresh_dir("run")
    result, error = run_child(workload.build_argv(corpus_seed), trace, run_dir, deadline)
    if result is None:
        return Sample(problems=[error])
    sample = Sample(
        setup_s=result["setup_s"],
        wall_s=result["wall_s"],
        cpu_s=result["cpu_s"],
        reference_s=result["reference_s"],
        peak_rss_mb=result["peak_rss_mb"],
        layers=result.get("layers"),
    )
    if result["rc"] != 0:
        sample.problems.append(f"exit code {result['rc']}")
        return sample
    ref = None
    if reference is not None:
        ref = reference.get(reference_key(workload, corpus_seed))
        if ref is None:
            sample.problems.append(f"no reference recorded for {reference_key(workload, corpus_seed)}")
    try:
        observed = workload.observe(run_dir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        sample.problems.append(f"outputs unreadable: {exc!r}")
    else:
        sample.problems += workload.check(observed, ref)
    return sample


def median_of(samples: list[Sample], attr: str) -> tuple[float, int]:
    values = [getattr(s, attr) for s in samples if getattr(s, attr) is not None]
    # a workload whose every run failed reports 0 (and correct: false)
    return (statistics.median(values), len(values)) if values else (0.0, 0)


def report_failures(samples: list[Sample]) -> int:
    failed = [s for s in samples if s.problems]
    for s in failed:
        print(f"  FAILED: {'; '.join(s.problems)}", file=sys.stderr)
    return len(failed)


def repeat_for(seconds: float, step) -> None:
    """Call step() once, then again while one more call is expected to end
    within `seconds` of the start (expected: the median call so far)."""
    start = time.monotonic()
    durations: list[float] = []
    while not durations or time.monotonic() - start + statistics.median(durations) <= seconds:
        began = time.monotonic()
        step()
        durations.append(time.monotonic() - began)


def measure_end_to_end(workload: Workload, seed: int, seconds: float, reference: dict) -> tuple[dict, list[Sample]]:
    deadline = time.monotonic() + DEADLINE_S
    setups, env = probe_setup(SETUP_PROBES, deadline)
    print("env: " + json.dumps(env, sort_keys=True))
    samples: list[Sample] = []
    repeat_for(seconds, lambda: samples.append(run_workload(workload, seed, len(samples), False, reference, deadline)))
    setups += [s.setup_s for s in samples if s.setup_s is not None]
    metrics = {"setup_s": (statistics.median(setups), len(setups))}
    for name in ("wall_ref", "cpu_ref", "peak_rss_mb"):
        metrics[name] = median_of(samples, name)
    raw = {name: median_of(samples, name) for name in RAW_UNITS}
    print("raw medians: " + ", ".join(f"{name} {v:.4f} s n={n}" for name, (v, n) in raw.items()))
    return {name: {"value": v, "unit": E2E_UNITS[name], "samples": n} for name, (v, n) in metrics.items()}, samples


def measure_layers(workload: Workload, seed: int, seconds: float, reference: dict) -> tuple[dict, list[Sample]]:
    deadline = time.monotonic() + DEADLINE_S
    _, env = probe_setup(0, deadline)
    print("env: " + json.dumps(env, sort_keys=True))
    plain: list[Sample] = []
    traced: list[Sample] = []

    def pair():
        position = len(traced)
        plain.append(run_workload(workload, seed, position, False, reference, deadline))
        traced.append(run_workload(workload, seed, position, True, reference, deadline))

    repeat_for(seconds, pair)
    samples = plain + traced
    metrics = {}
    layer_runs = [s.layers for s in traced if s.layers is not None]
    for name, unit in LAYER_UNITS.items():
        values = [run[name] for run in layer_runs]
        value = statistics.median(values) if values else 0.0
        metrics[name] = {"value": value, "unit": unit, "samples": len(values)}
    for name, unit in RAW_UNITS.items():
        value, n = median_of(plain, name)
        metrics[name] = {"value": value, "unit": unit, "samples": n}
    plain_wall, n_plain = median_of(plain, "wall_ref")
    traced_wall, n_traced = median_of(traced, "wall_ref")
    overhead = traced_wall / plain_wall - 1.0 if plain_wall > 0 else 0.0
    metrics["trace.overhead"] = {"value": overhead, "unit": "ratio", "samples": min(n_plain, n_traced)}
    failed = sum(1 for s in samples if s.problems)
    metrics["failed_ops"] = {"value": failed / len(samples), "unit": "fraction", "samples": len(samples)}
    try:
        kernels = microbench.run_all(fuzz_seed(seed, 0), fresh_dir("microbench"), child_env, deadline)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        samples.append(Sample(problems=[f"microbench: {exc}"]))
        kernels = {name: (0.0, unit) for name, unit in microbench.units().items()}
    for name, (value, unit) in kernels.items():
        metrics[name] = {"value": value, "unit": unit, "samples": 1}
    return metrics, samples


def print_metrics(workload: str, metrics: dict, samples: list[Sample]) -> None:
    failed = sum(1 for s in samples if s.problems)
    print(f"{workload}: {len(samples)} runs, {failed} failed (failed_ops {failed / len(samples):.3f} fraction)")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>16.6g} {m['unit']:<9} n={m['samples']}")


def run_one(workload: Workload, seed: int, seconds: float, trace: bool, reference: dict) -> dict:
    measure = measure_layers if trace else measure_end_to_end
    metrics, samples = measure(workload, seed, seconds, reference)
    print_metrics(workload.name, metrics, samples)
    failed = report_failures(samples)
    return {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "fracpme" / "harness.py").is_file():
        print(f"no fracpme sources under {SRC}", file=sys.stderr)
        return 2
    reference = load_reference()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = (False, True) if args.workload == "all" else (bool(args.trace),)
    results = {}
    try:
        for name in names:
            for trace in modes:
                results[(name, trace)] = run_one(WORKLOADS[name], args.seed, args.seconds, trace, reference)
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    if args.workload == "all":
        print(json.dumps({f"{name}:trace{int(trace)}": r for (name, trace), r in results.items()}))
    else:
        print(json.dumps(next(iter(results.values()))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
