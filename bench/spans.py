"""Span tracing for the traced pass, installed from outside the program.

install() replaces each public function of the package's modules by a
wrapper wherever callers look the function up: every module global bound to
it (dp6.is_prime, congruence.jacobi, averaged.count_boundaries, ... are the
same functions as arith.is_prime and so on) and the package namespace.  A
wrapper records one span: name, start, end, parent span and command index.
Spans stay in memory, in parallel arrays indexed by span id, until write().

Three kinds of public callable are not wrapped:
- generator functions (dp6.iter_point_records): the call only builds the
  generator, so its work shows as self time of the consumer;
- reports.fmt, called once per output cell (~400k times on dp6-family),
  whose time stays in the *_row formatter that calls it;
- class methods, except the two listed in _METHODS.

A layer's self time is the time its spans cover minus the time covered by
their direct child spans and by the speed probe (see speed.py), rescaled to
nominal host speed.  The benchmark runs every command in one thread, so
spans nest strictly and one stack gives each span its parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("cli", "reports", "congruence", "averaged", "dp6", "arith", "gausssum", "sawtooth")
_UNTRACED = {"reports.fmt"}
# (module, class, method, span name)
_METHODS = (
    ("sawtooth", "VaalerPolynomial", "evaluate_many", "sawtooth.evaluate_many"),
    ("averaged", "AveragedFamily", "cells", "averaged.cells"),
)
_ROW_FORMATTERS = ("reports.box_row", "reports.averaged_row", "reports.growth_row",
                   "reports.point_row")


# Counters recorded at span boundaries: hook(tracer, result, *args, **kwargs).
def _count_exact(tr, result, inst):
    tr.counts["congruence.count_exact.residues"] += inst.q


def _count_boundaries(tr, result, a, b, q, bounds, J):
    tr.counts["congruence.count_boundaries.y_visited"] += len(J.integers())


def _cells(tr, result, family):
    tr.counts["averaged.cells"] += len(result)


def _bilinear(tr, result, a_coeffs, b_coeffs, epsilon=0.05):
    tr.counts["congruence.bilinear_jacobi.terms"] += len(a_coeffs) * len(b_coeffs)


def _enumerate(tr, result, B, t):
    tr.counts["dp6.records"] += result[0]


def _sieve_sequence(tr, result, B, q):
    tr.counts["dp6.sieve_sequence.distinct_n"] += len(result.a)


def _rho(tr, result, d, q):
    tr.distinct["dp6.rho"].add((d, q))


def _write_report(tr, result, path, fmt_name, description, fields, rows):
    tr.counts["reports.rows"] += len(rows)
    tr.counts["reports.bytes"] += os.path.getsize(path)


def _gauss_brute(tr, result, s, t, u):
    tr.counts["gausssum.gauss_brute.terms"] += u


def _sawtooth_many(tr, n, H):
    # evaluate_many and fejer_majorant_many each hold three N x H float64
    # arrays: the outer product, its sin or cos, and the weighted product
    tr.counts["sawtooth.points"] += n
    tr.counts["sawtooth.outer_bytes"] += 3 * 8 * n * H


def _evaluate_many(tr, result, poly, xs):
    _sawtooth_many(tr, len(xs), poly.H)


def _fejer_many(tr, result, xs, H):
    _sawtooth_many(tr, len(xs), H)


_HOOKS = {
    "congruence.count_exact": _count_exact,
    "congruence.count_boundaries": _count_boundaries,
    "averaged.cells": _cells,
    "congruence.bilinear_jacobi": _bilinear,
    "dp6.enumerate_lower_bound_points": _enumerate,
    "dp6.build_sieve_sequence": _sieve_sequence,
    "dp6.rho": _rho,
    "reports.write_report": _write_report,
    "gausssum.gauss_brute": _gauss_brute,
    "sawtooth.evaluate_many": _evaluate_many,
    "sawtooth.fejer_majorant_many": _fejer_many,
}

# per-layer metric -> spans whose self time it sums
_SELF_TIMES = {
    "congruence.count_exact.self_s": ("congruence.count_exact",),
    "congruence.error_envelope.self_s": ("congruence.error_envelope",),
    "congruence.count_boundaries.self_s": ("congruence.count_boundaries",),
    "congruence.bilinear_jacobi.self_s": ("congruence.bilinear_jacobi",),
    "arith.factorize.self_s": ("arith.factorize",),
    "arith.jacobi.self_s": ("arith.jacobi",),
    "averaged.s_exact.self_s": ("averaged.s_exact",),
    "averaged.main_term.self_s": ("averaged.main_term",),
    "dp6.enumerate_lower_bound_points.self_s": ("dp6.enumerate_lower_bound_points",),
    "dp6.l_t_count.self_s": ("dp6.l_t_count",),
    "dp6.build_sieve_sequence.self_s": ("dp6.build_sieve_sequence",),
    "dp6.rho.self_s": ("dp6.rho",),
    "dp6.w2_sum.self_s": ("dp6.w2_sum",),
    "dp6.w1_min_c1.self_s": ("dp6.w1_min_c1",),
    "reports.row_self_s": _ROW_FORMATTERS,
    "reports.write_report.self_s": ("reports.write_report",),
    "gausssum.gauss_brute.self_s": ("gausssum.gauss_brute",),
    "gausssum.gauss_closed.self_s": ("gausssum.gauss_closed",),
    "sawtooth.evaluate_many.self_s": ("sawtooth.evaluate_many",),
    "sawtooth.fejer_majorant_many.self_s": ("sawtooth.fejer_majorant_many",),
    "cli.main.self_s": ("cli.main",),
}
# per-layer metric -> span whose call count it is
_CALLS = {
    "arith.factorize.calls": "arith.factorize",
    "arith.jacobi.calls": "arith.jacobi",
    "arith.is_prime.calls": "arith.is_prime",
    "averaged.unit_disc_point.calls": "averaged.unit_disc_point",
    "dp6.l_t_count.calls": "dp6.l_t_count",
    "dp6.rho.calls": "dp6.rho",
    "dp6.sum_over_d.calls": "dp6.sum_over_d",
    "sawtooth.psi.calls": "sawtooth.psi",
    "cli.main.calls": "cli.main",
}
_COUNTS = (
    "congruence.count_exact.residues", "congruence.count_boundaries.y_visited",
    "averaged.cells", "congruence.bilinear_jacobi.terms", "dp6.records",
    "dp6.sieve_sequence.distinct_n", "reports.rows", "reports.bytes",
    "gausssum.gauss_brute.terms", "sawtooth.points", "sawtooth.outer_bytes",
)
# metrics whose value must repeat exactly across traced passes of one seed
EXACT = (*_CALLS, *_COUNTS, "dp6.rho.useful_frac")


class Tracer:
    """In-memory span store plus the counters recorded at span boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.command = array("q")
        self.stack = [-1]
        self.command_id = -1
        self.counts: Counter = Counter()
        self.distinct = defaultdict(set)

    def wrap(self, fn, span_name: str):
        nid = len(self.names)
        self.names.append(span_name)
        hook = _HOOKS.get(span_name)
        start, end, parent, name, command, stack = (
            self.start, self.end, self.parent, self.name, self.command, self.stack)
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1])
            name.append(nid)
            command.append(tracer.command_id)
            end.append(0.0)
            stack.append(sid)
            start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf()
                stack.pop()
            if hook is not None:
                hook(tracer, result, *args, **kwargs)
            return result

        return traced

    def self_times(self, scales: list[float], pauses) -> tuple[np.ndarray, np.ndarray]:
        """(self seconds, call count), each indexed by span-name id.

        pauses are (start, seconds) of interruptions that belong to no layer
        (the speed probe); each is taken off the innermost span it fell in.
        Self times are then multiplied by scales[command] of their span's
        command, to rescale them to nominal host speed."""
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.int64)
        command = np.frombuffer(self.command, dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        own = dur - np.bincount(parent[has_parent], weights=dur[has_parent],
                                minlength=dur.size)
        for t, seconds in pauses:
            # spans are numbered in start order; walk out to one still open at t
            i = int(np.searchsorted(start, t, side="right")) - 1
            while i >= 0 and end[i] < t:
                i = int(parent[i])
            if i >= 0:
                own[i] -= seconds
        factor = np.append(np.asarray(scales, dtype=np.float64), 1.0)[command]  # -1: no command
        k = len(self.names)
        return (np.bincount(name, weights=own * factor, minlength=k),
                np.bincount(name, minlength=k))

    def metrics(self, scales: list[float], pauses) -> dict[str, float]:
        """Every per-layer metric of one traced pass, trace.overhead_s aside;
        scales and pauses as for self_times."""
        self_s, calls = self.self_times(scales, pauses)
        by_name = {n: i for i, n in enumerate(self.names)}

        def total(span_names):
            return float(sum(self_s[by_name[n]] for n in span_names if n in by_name))

        out = {m: total(spans) for m, spans in _SELF_TIMES.items()}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = total(n for n in self.names if n.split(".")[0] == layer)
        for m, span in _CALLS.items():
            out[m] = int(calls[by_name[span]]) if span in by_name else 0
        for m in _COUNTS:
            out[m] = int(self.counts[m])
        rho_calls = out["dp6.rho.calls"]
        out["dp6.rho.useful_frac"] = (len(self.distinct["dp6.rho"]) / rho_calls
                                      if rho_calls else 0.0)
        return out

    def write(self, path: str) -> None:
        """All spans as parallel arrays in one .npz file."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            command=np.frombuffer(self.command, dtype=np.int64),
        )


def install() -> Tracer:
    """Wrap the package's public functions and return the tracer that
    records their spans.  Call once per process, before the first command."""
    tracer = Tracer()
    package = importlib.import_module("congruence_lab")
    modules = {layer: importlib.import_module(f"congruence_lab.{layer}") for layer in LAYERS}
    wrapped = {}  # id(original) -> (original, wrapper)
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            span_name = f"{layer}.{attr}"
            if (attr.startswith("_") or inspect.isclass(obj) or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__
                    or inspect.isgeneratorfunction(obj) or span_name in _UNTRACED):
                continue
            wrapped[id(obj)] = (obj, tracer.wrap(obj, span_name))
    for mod in (package, *modules.values()):
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    for layer, cls_name, method, span_name in _METHODS:
        cls = getattr(modules[layer], cls_name)
        setattr(cls, method, tracer.wrap(vars(cls)[method], span_name))
    return tracer


def metric_names() -> list[str]:
    """Names of every per-layer metric a traced run reports."""
    return [*_SELF_TIMES, *(f"{layer}.self_s" for layer in LAYERS), *_CALLS, *_COUNTS,
            "dp6.rho.useful_frac", "trace.overhead_s"]
