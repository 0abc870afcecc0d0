"""Outside-in span tracing of tmsim's public functions.

:meth:`Tracer.install` replaces each function in ``TRACED`` with a timing
wrapper wherever it appears in a ``tmsim.*`` module namespace, matched by
identity, because the package imports names with ``from .x import y`` and
patching only the defining module would miss those calls.  Spans stay in
memory; the caller writes them out once, at the end of the run.

Counts taken from outside (calls, iterations, SVD cells) only compare
across commits with the same call structure: a bootstrap that stops
calling ``mle_reconstruct`` per resample changes ``calls`` without doing
less work.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

SERIALIZE_WRITERS = ("jsa_to_csv", "jsi_to_csv", "mapping_to_csv",
                     "count_records_to_csv", "spectrum_to_csv", "dump_json")
SERIALIZE_READERS = ("count_records_from_csv", "density_from_dict")

# Per-element helpers (format_float, _render_json, hermite_values) stay
# unwrapped to keep the overhead low.
TRACED = {
    "cli": ("main",),
    "presets": ("run_preset", "build_state", "tomography_basis", "chirp_scan",
                "merge_overrides"),
    "pdc": ("build_jsa", "schmidt_decompose", "schmidt_weights", "fit_basis_width",
            "reduced_density_matrix", "jsi_marginal_sigmas"),
    "spectral": ("hg_mode", "apply_chirp"),
    "qpg": ("build_mapping", "separability_report", "project_probability",
            "apply_mode_filter"),
    "tomography": ("mub_bases", "simulate_counts", "mle_reconstruct",
                   "monte_carlo_errors", "state_metrics"),
    "serialize": SERIALIZE_WRITERS + SERIALIZE_READERS,
}


def _mle_note(args, kwargs, result) -> dict:
    return {"iterations": int(result.iterations), "converged": bool(result.converged)}


def _svd_note(args, kwargs, result) -> dict:
    rows, cols = (args[0] if args else kwargs["jsa"]).amplitudes.shape
    return {"cells": rows * cols}


NOTES = {
    "tomography.mle_reconstruct": _mle_note,
    "pdc.schmidt_decompose": _svd_note,
    "pdc.schmidt_weights": _svd_note,
}

# derived from arguments, results or files rather than timed
COMPUTED = {"pdc.svd_cells", "serialize.bytes_out", "serialize.s_per_mb",
            "tomography.mle_reconstruct.us_per_iteration",
            "tomography.monte_carlo_errors.share", "pdc.svd.share",
            "serialize.write.share", "trace.overhead_s", "trace.wrapper_cost_s"}


class Tracer:
    """Collects one span per wrapped call: name, parent, start and end.

    Spans are grouped by pass; a span's ``parent`` indexes its pass's list.
    """

    def __init__(self):
        self.passes = []
        self._stack = []
        self._patched = []

    def begin_pass(self) -> list:
        self.passes.append([])
        return self.passes[-1]

    def _wrap(self, name: str, fn):
        stack, clock, note = self._stack, time.perf_counter, NOTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = self.passes[-1]
            span = {"name": name, "parent": stack[-1] if stack else None}
            stack.append(len(spans))
            spans.append(span)
            span["start"] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = clock()
                stack.pop()
            if note is not None:
                span.update(note(args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        replacements = {}
        for module, names in TRACED.items():
            namespace = vars(sys.modules[f"tmsim.{module}"])
            for name in names:
                fn = namespace[name]
                replacements[id(fn)] = (fn, self._wrap(f"{module}.{name}", fn))
        for module_name, module in list(sys.modules.items()):
            if module_name != "tmsim" and not module_name.startswith("tmsim."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        while self._patched:
            module, attr, value = self._patched.pop()
            setattr(module, attr, value)


def wrapper_cost(calls: int = 20000) -> float:
    """Seconds one wrapped call adds, measured on a no-op function.

    Multiplied by the span count this bounds the tracing overhead of a pass
    far below the pass-to-pass noise of ``trace.overhead_s``.
    """
    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer._wrap("noop", noop)
    tracer.begin_pass()
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        wrapped()
    return max(time.perf_counter() - start - bare, 0.0) / calls


def _percentile(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def pass_metrics(spans: list, wall_s: float, bytes_out: int, metric_names) -> dict:
    """Per-layer metrics of one traced pass from its spans.

    ``metric_names`` are BENCHMARK.json's per-layer metrics.  A name
    ``<traced function>.calls``, ``.time_s`` or ``.self_s`` is summed over
    that function's spans; the other names are computed below.
    """
    duration = [s["end"] - s["start"] for s in spans]
    self_time = list(duration)
    for i, span in enumerate(spans):
        if span["parent"] is not None:
            self_time[span["parent"]] -= duration[i]

    by_name = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span["name"], []).append(i)

    def total(name, times=duration):
        return sum(times[i] for i in by_name.get(name, ()))

    def outermost(names):
        group = set(names)
        result = 0.0
        for i, span in enumerate(spans):
            if span["name"] not in group:
                continue
            parent = span["parent"]
            while parent is not None and spans[parent]["name"] not in group:
                parent = spans[parent]["parent"]
            if parent is None:
                result += duration[i]
        return result

    mle = by_name.get("tomography.mle_reconstruct", [])
    mle_times = [duration[i] for i in mle]
    iterations = sum(spans[i]["iterations"] for i in mle)
    svd_time = total("pdc.schmidt_decompose") + total("pdc.schmidt_weights")
    write_s = outermost("serialize." + n for n in SERIALIZE_WRITERS)
    mb_out = bytes_out / 1e6
    m = {
        "tomography.monte_carlo_errors.share":
            total("tomography.monte_carlo_errors") / wall_s,
        "tomography.mle_reconstruct.p50_s":
            statistics.median(mle_times) if mle_times else 0.0,
        "tomography.mle_reconstruct.p90_s": _percentile(mle_times, 0.9),
        "tomography.mle_reconstruct.iterations": iterations,
        "tomography.mle_reconstruct.us_per_iteration":
            1e6 * sum(mle_times) / iterations if iterations else 0.0,
        "tomography.mle_reconstruct.nonconverged":
            sum(not spans[i]["converged"] for i in mle),
        "pdc.svd_cells": sum(spans[i]["cells"] for name in
                             ("pdc.schmidt_decompose", "pdc.schmidt_weights")
                             for i in by_name.get(name, ())),
        "pdc.svd.share": svd_time / wall_s,
        "serialize.write.time_s": write_s,
        "serialize.write.share": write_s / wall_s,
        "serialize.read.time_s": outermost("serialize." + n for n in SERIALIZE_READERS),
        "serialize.bytes_out": bytes_out,
        "serialize.s_per_mb": write_s / mb_out if mb_out else 0.0,
        "trace.wall_s": wall_s,
        "trace.self_total_s": sum(self_time),
        "trace.spans": len(spans),
    }
    for name in metric_names:
        function, _, kind = name.rpartition(".")
        if kind == "calls":
            m[name] = len(by_name.get(function, ()))
        elif kind == "time_s" and name not in m:
            m[name] = total(function)
        elif kind == "self_s":
            m[name] = total(function, self_time)
    return m
