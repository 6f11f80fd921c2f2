"""Span tracer for the benchmark's traced runs.

`Tracer.install()` wraps the public functions of each fracpme module in
spans, in every namespace that holds them: modules bind names at import
(`from .riesz import toeplitz_apply`), so patching the defining module alone
would miss the calls. `RieszWorkspace.potential_and_gradient` is wrapped on
the class. Spans (name, start, end, parent) stay in memory; `summary()` turns
them into the per-layer metrics when the run ends. A span's self time is its
duration minus the durations of its direct children. FFTs and kernel weight
builds made by `fracpme.riesz` are counted without spans.
"""

from __future__ import annotations

import importlib
import os
import statistics
import time
from collections import Counter, defaultdict

MODULES = ("grid", "riesz", "steady", "energy", "transport", "evolve", "harness")

SPANS = {
    "grid": ("holder_seminorm", "random_density", "save_density_csv"),
    "riesz": ("toeplitz_apply", "neg_sobolev_norm"),
    "energy": ("potential_xi", "energy", "remainder_R", "virial_check"),
    "transport": ("w2", "inequality_report", "hwi_terms", "gns_ratio", "interp_inequality"),
    "steady": ("discrete_minimizer",),
    "evolve": ("integrate",),
    "harness": ("fuzz_corpus",),
}
WEIGHT_BUILDERS = (
    "potential_weights",
    "gradient_weights",
    "gradient_slope_weights",
    "hessian_weights",
    "hessian_slope_weights",
    "hessian_quad_weights",
)

PG = "riesz.potential_and_gradient"
FFT_APPLY = "riesz.toeplitz_apply.fft"
DIRECT_APPLY = "riesz.toeplitz_apply.direct"

LAYER_UNITS = {
    f"{PG}.calls": "count",
    f"{PG}.us_per_call": "us",
    f"{PG}.self_s": "s",
    "riesz.fft.transforms": "count",
    "riesz.fft.points": "count",
    "riesz.fft.bytes_computed": "B",
    "riesz.toeplitz_apply.fft_calls": "count",
    "riesz.toeplitz_apply.fft_self_s": "s",
    "riesz.weights.builds": "count",
    "riesz.weights.builds_per_apply": "ratio",
    "riesz.toeplitz_apply.direct_calls": "count",
    "riesz.toeplitz_apply.direct_self_s": "s",
    "riesz.neg_sobolev_norm.calls": "count",
    "riesz.neg_sobolev_norm.self_s": "s",
    "evolve.steps": "count",
    "evolve.mean_dt": "model_t",
    "evolve.us_per_step": "us",
    "evolve.integrate.self_s": "s",
    "evolve.checkpoint_s": "s",
    "grid.holder_seminorm.calls": "count",
    "grid.holder_seminorm.self_s": "s",
    "grid.save_density_csv.calls": "count",
    "grid.save_density_csv.self_s": "s",
    "grid.save_density_csv.bytes": "B",
    "grid.random_density.self_s": "s",
    "harness.fuzz_corpus.self_s": "s",
    "transport.w2.calls": "count",
    "transport.w2.us_per_call": "us",
    "transport.w2.self_s": "s",
    "transport.inequality_report.self_s": "s",
    "transport.hwi_terms.self_s": "s",
    "transport.gns_ratio.self_s": "s",
    "transport.interp_inequality.self_s": "s",
    "energy.potential_xi.calls": "count",
    "energy.potential_xi.self_s": "s",
    "energy.energy.calls": "count",
    "energy.energy.self_s": "s",
    "energy.remainder_R.calls": "count",
    "energy.remainder_R.self_s": "s",
    "energy.virial_check.self_s": "s",
    "steady.discrete_minimizer.calls": "count",
    "steady.discrete_minimizer.self_s": "s",
    "harness.main.self_s": "s",
}


def _first(args, kwargs, index, key, default=None):
    return args[index] if len(args) > index else kwargs.get(key, default)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack = [-1]
        self.counts: Counter = Counter()

    def span(self, name, fn, name_of=None, after=None):
        """Wrap fn so each call records a span (name_of(args, kwargs) picks
        the name when it depends on the arguments; after(args, kwargs,
        result) runs once the span has closed)."""
        names, starts, ends, parents, stack = self.names, self.starts, self.ends, self.parents, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_of(args, kwargs) if name_of else name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @staticmethod
    def counted(fn, count):
        """Wrap fn so each call first calls count(*args, **kwargs)."""

        def wrapper(*args, **kwargs):
            count(*args, **kwargs)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = {name: importlib.import_module(f"fracpme.{name}") for name in MODULES}
        riesz = modules["riesz"]
        counts = self.counts
        wrappers = {}

        def toeplitz_name(args, kwargs):
            return DIRECT_APPLY if _first(args, kwargs, 2, "method", riesz.FFT) == riesz.DIRECT else FFT_APPLY

        def csv_bytes(args, kwargs, _result):
            counts["grid.save_density_csv.bytes"] += os.path.getsize(_first(args, kwargs, 0, "path"))

        def model_time(args, kwargs, _result):
            counts["evolve.integrate.t_end"] += _first(args, kwargs, 0, "cfg").t_end

        special = {
            "toeplitz_apply": {"name_of": toeplitz_name},
            "save_density_csv": {"after": csv_bytes},
            "integrate": {"after": model_time},
        }
        for module, functions in SPANS.items():
            for fname in functions:
                original = getattr(modules[module], fname)
                if fname == "fuzz_corpus":
                    # a generator: time building the whole corpus
                    body = lambda *a, _gen=original, **k: iter(list(_gen(*a, **k)))  # noqa: E731
                else:
                    body = original
                wrappers[id(original)] = (original, self.span(f"{module}.{fname}", body, **special.get(fname, {})))

        def weight_build(*_args, **_kwargs):
            counts["riesz.weights.builds"] += 1

        for fname in WEIGHT_BUILDERS:
            original = getattr(riesz, fname)
            wrappers[id(original)] = (original, self.counted(original, weight_build))

        fracpme = importlib.import_module("fracpme")
        for namespace in (*modules.values(), fracpme):
            for key, value in list(vars(namespace).items()):
                pair = wrappers.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(namespace, key, pair[1])

        workspace = riesz.RieszWorkspace
        workspace.potential_and_gradient = self.span(PG, workspace.potential_and_gradient)

        def fft_points(x, n=None, *_args, **_kwargs):
            counts["riesz.fft.transforms"] += 1
            counts["riesz.fft.points"] += len(x) if n is None else n

        riesz.rfft = self.counted(riesz.rfft, fft_points)
        riesz.irfft = self.counted(riesz.irfft, fft_points)

    def summary(self) -> dict:
        """Per-layer metrics from the recorded spans and counters."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        covered = [0.0] * n
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += dur[i]
        stats = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0, "durations": []})
        children = Counter()  # (parent span name, child span name) -> calls
        checkpoint_s = 0.0
        for i, name in enumerate(self.names):
            entry = stats[name]
            entry["calls"] += 1
            entry["total"] += dur[i]
            entry["self"] += dur[i] - covered[i]
            entry["durations"].append(dur[i])
            parent = self.parents[i]
            if parent >= 0:
                parent_name = self.names[parent]
                children[parent_name, name] += 1
                if parent_name == "evolve.integrate" and name in (DIRECT_APPLY, "transport.w2"):
                    checkpoint_s += dur[i]

        def median_us(name):
            d = stats[name]["durations"]
            return statistics.median(d) * 1e6 if d else 0.0

        # every integrate call evaluates the fields once more than it steps:
        # the final state is diagnosed, not advanced
        steps = children["evolve.integrate", PG] - stats["evolve.integrate"]["calls"]
        applies = stats[FFT_APPLY]["calls"] + stats[DIRECT_APPLY]["calls"]
        points = self.counts["riesz.fft.points"]
        out = {
            "riesz.fft.transforms": self.counts["riesz.fft.transforms"],
            "riesz.fft.points": points,
            "riesz.fft.bytes_computed": 16 * points,
            "riesz.toeplitz_apply.fft_calls": stats[FFT_APPLY]["calls"],
            "riesz.toeplitz_apply.fft_self_s": stats[FFT_APPLY]["self"],
            "riesz.toeplitz_apply.direct_calls": stats[DIRECT_APPLY]["calls"],
            "riesz.toeplitz_apply.direct_self_s": stats[DIRECT_APPLY]["self"],
            "riesz.weights.builds": self.counts["riesz.weights.builds"],
            "riesz.weights.builds_per_apply": self.counts["riesz.weights.builds"] / applies if applies else 0.0,
            "evolve.steps": steps,
            "evolve.mean_dt": self.counts["evolve.integrate.t_end"] / steps if steps else 0.0,
            "evolve.us_per_step": stats["evolve.integrate"]["total"] / steps * 1e6 if steps else 0.0,
            "evolve.checkpoint_s": checkpoint_s,
            "grid.save_density_csv.bytes": self.counts["grid.save_density_csv.bytes"],
        }
        for metric in LAYER_UNITS:
            if metric in out:
                continue
            span, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = stats[span]["calls"]
            elif kind == "self_s":
                out[metric] = stats[span]["self"]
            elif kind == "us_per_call":
                out[metric] = median_us(span)
            else:
                raise KeyError(metric)
        return out
