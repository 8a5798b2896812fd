"""Span tracing of the beltrami layers, installed from outside the package.

Each module of ``beltrami`` is one layer.  ``Tracer.install`` wraps the
module's public functions (its ``__all__``, or its public names when it has
none) at every place they are bound - the defining module, every sibling
module that imported them and the package namespace - so calls between
layers pass through the wrappers too.  ``numpy.fft.fft2``/``ifft2`` are
wrapped only to count calls against the innermost open span.

Spans stay in memory as small lists and are read out once at the end:
``[name, parent_index, job, start, end, info, fft_calls]``.  ``info`` holds
the few facts some metrics need (grid size, iterations, bytes), taken by
the annotators below from arguments and results.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import time

import numpy as np

LAYERS = ("cli", "grid", "operators", "fixedpoint", "constant_coefficient",
          "autonomous", "fullnonlinear", "analysis", "synth")

NAME, PARENT, JOB, START, END, INFO, FFTS = range(7)


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _solve_info(k_of):
    def info(fn, args, kwargs, out):
        a = _bound(fn, args, kwargs)
        return {"k": k_of(a), "tol": a["tol"], "iterations": out[1].iterations}
    return info


# Facts recorded per call for the functions whose metrics need more than time.
ANNOTATORS = {
    "fixedpoint.picard_solve": lambda fn, a, kw, out: {
        "n": _bound(fn, a, kw)["spec"].n, "iterations": out[1].iterations},
    "constant_coefficient.solve_cc_neumann": _solve_info(
        lambda a: abs(a["p"].a) + abs(a["p"].b)),
    "autonomous.solve_autonomous": _solve_info(lambda a: a["A"].k),
    "fullnonlinear.solve_full": _solve_info(lambda a: a["H"].k),
    "grid.write_field": lambda fn, a, kw, out: {
        "bytes": os.path.getsize(_bound(fn, a, kw)["path"])},
    "grid.read_field": lambda fn, a, kw, out: {
        "bytes": os.path.getsize(_bound(fn, a, kw)["path"])},
    "analysis.hodograph_check": lambda fn, a, kw, out: {
        "points": _bound(fn, a, kw)["sample_points"], "accepted": out.accepted},
    "analysis.recover_coefficients": lambda fn, a, kw, out: {
        "flagged": out.flagged_fraction},
}


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for n in names:
        obj = getattr(module, n)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield n, obj


class Tracer:
    """Records spans of the layer functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name):
        spans, stack, annotate = self.spans, self._stack, ANNOTATORS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else None, self.job,
                   time.perf_counter(), 0.0, None, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if annotate is not None:
                rec[INFO] = annotate(fn, args, kwargs, out)
            return out

        return traced

    def _count_ffts(self, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if stack:
                spans[stack[-1]][FFTS] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        package = importlib.import_module("beltrami")
        modules = [importlib.import_module(f"beltrami.{m}") for m in LAYERS]
        wrapped = {}
        for layer, module in zip(LAYERS, modules):
            for n, fn in _public_functions(module):
                wrapped[fn] = self._wrap(fn, f"{layer}.{n}")
        for owner in [package, *modules]:
            for attr, value in list(vars(owner).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patch(owner, attr, wrapped[value])
        for attr in ("fft2", "ifft2"):
            self._patch(np.fft, attr, self._count_ffts(getattr(np.fft, attr)))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def covered_seconds(spans, job, t0, t1) -> float:
    """Time in [t0, t1] covered by the job's top-level spans."""
    total, reach = 0.0, t0
    tops = sorted((s[START], s[END]) for s in spans
                  if s[JOB] == job and s[PARENT] is None)
    for a, b in tops:
        a, b = max(a, reach), min(b, t1)
        if b > a:
            total += b - a
            reach = b
    return total


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans, jobs: int, cycles: int) -> dict[str, float]:
    """Per-layer and per-function figures from the spans of a traced phase.

    ``jobs`` and ``cycles`` are the traced jobs and passes over the job mix.
    Layer self time and call counts are per job and count only spans inside
    jobs; per-function means also include the spans of the correctness
    checks, which call the same public functions.  A function that never
    ran reads 0.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def dur(i):
        return spans[i][END] - spans[i][START]

    def mean_s(name):
        return _mean(dur(i) for i in by_name.get(name, ()))

    def mean_self(name):
        return _mean(selfs[i] for i in by_name.get(name, ()))

    def info(name):
        return [(i, spans[i][INFO]) for i in by_name.get(name, ())]

    m: dict[str, float] = {}
    for layer in LAYERS:
        idx = [i for i, s in enumerate(spans)
               if s[JOB] is not None and s[NAME].split(".", 1)[0] == layer]
        m[f"{layer}.self_s"] = sum(selfs[i] for i in idx) / max(jobs, 1)
        m[f"{layer}.calls"] = len(idx) / max(jobs, 1)

    picard = info("fixedpoint.picard_solve")
    job_picard = [(i, d) for i, d in picard if spans[i][JOB] is not None]
    m["fixedpoint.iters"] = sum(d["iterations"] for _, d in job_picard) / max(cycles, 1)
    for n in (256, 512, 1024):
        at_n = [(i, d) for i, d in picard if d["n"] == n]
        iters = sum(d["iterations"] for _, d in at_n)
        m[f"fixedpoint.iter_s.n{n}"] = (sum(dur(i) for i, _ in at_n) / iters
                                        if iters else 0.0)
    iters = sum(d["iterations"] for _, d in picard)
    m["fixedpoint.fft_per_iter"] = (sum(spans[i][FFTS] for i, _ in picard) / iters
                                    if iters else 0.0)
    done, bound = 0, 0.0
    for name in ("constant_coefficient.solve_cc_neumann",
                 "autonomous.solve_autonomous", "fullnonlinear.solve_full"):
        for _, d in info(name):
            if 0.0 < d["k"] < 1.0:
                done += d["iterations"]
                bound += math.log(d["tol"]) / math.log(d["k"])
    m["fixedpoint.iters_over_bound"] = done / bound if bound else 0.0

    m["operators.derivative_pair.s"] = mean_s("operators.derivative_pair")
    m["operators.resample.s"] = mean_s("operators.resample")
    m["constant_coefficient.solve_cc_changevar.s"] = mean_s(
        "constant_coefficient.solve_cc_changevar")
    m["constant_coefficient.compute_mu_nu.s"] = mean_s("constant_coefficient.compute_mu_nu")
    m["constant_coefficient.solve_cc_neumann.self_s"] = mean_self(
        "constant_coefficient.solve_cc_neumann")
    m["autonomous.solve_autonomous.self_s"] = mean_self("autonomous.solve_autonomous")
    m["autonomous.residual.s"] = mean_s("autonomous.residual")
    m["fullnonlinear.solve_full.self_s"] = mean_self("fullnonlinear.solve_full")
    m["fullnonlinear.fit_bound_constants.s"] = mean_s("fullnonlinear.fit_bound_constants")
    m["fullnonlinear.check_conditions.s"] = mean_s("fullnonlinear.check_conditions")
    for op in ("write_field", "read_field"):
        calls = info(f"grid.{op}")
        seconds = sum(dur(i) for i, _ in calls)
        m[f"grid.{op}.s"] = seconds / len(calls) if calls else 0.0
        m[f"grid.{op}.mb_per_s"] = (sum(d["bytes"] for _, d in calls) / 1e6 / seconds
                                    if seconds else 0.0)
    for fn in ("sobolev_probe", "second_order_probe", "distortion_stats",
               "directional_family_max_distortion", "recover_coefficients",
               "gradient_equation_check"):
        m[f"analysis.{fn}.s"] = mean_s(f"analysis.{fn}")
    hodo = info("analysis.hodograph_check")
    points = sum(d["points"] for _, d in hodo)
    m["analysis.hodograph_check.s_per_point"] = (
        sum(dur(i) for i, _ in hodo) / points if points else 0.0)
    m["analysis.hodograph_check.accepted_frac"] = (
        sum(d["accepted"] for _, d in hodo) / points if points else 0.0)
    m["analysis.recover_coefficients.flagged_frac"] = _mean(
        d["flagged"] for _, d in info("analysis.recover_coefficients"))
    m["synth.radial_extremal_pair.s"] = mean_s("synth.radial_extremal_pair")
    return m
