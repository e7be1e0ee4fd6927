"""Outside-in tracer: spans around quasispec's public entry points.

The program is not changed. `Tracer.installed()` replaces the functions
as they are bound in `quasispec.spectrum` and `quasispec.cli` (and the
two determinant methods of `DeterminantEvaluator`) by wrappers that
record one span per call: name, start, end, parent span and run id, plus
counts read from the return value. Spans stay in memory until
`write()`; `layer_metrics()` reduces them to the per-layer figures.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time

import numpy as np

# module -> {attribute as bound there: span name}
_ENTRY_POINTS = {
    "spectrum": {
        "birkhoff_fss": "birkhoff.fss",
        "integrate_fundamental": "solutions.magnus",
        "closed_form_zero_coeff": "solutions.closed_form",
        "conjugate_system": "regularization.conjugate",
        "build_associated_matrix": "regularization.build",
        "asymptotic_model": "asymptotics.model",
        "count_zeros": "spectrum.count_zeros",
        "delta_derivative": "spectrum.delta_derivative",
        "locate_eigenvalues": "spectrum.locate",
        "weight_numbers": "spectrum.weights",
    },
    "cli": {
        "problem_from_config": "cli.parse",
        "locate_eigenvalues": "spectrum.locate",
        "weight_numbers": "spectrum.weights",
    },
}
_EVALUATOR_METHODS = {"delta": "spectrum.delta", "d_norm": "spectrum.d_norm"}


def _fss_counts(args, result):
    return {"rho_abs": abs(complex(args[1])), "iterations": result.iterations,
            "gmres": bool(result.used_gmres), "panels": int(result.xs.shape[0])}


def _count_zeros_counts(args, result):
    given = np.asarray(args[1], dtype=complex)
    return {"dilated": not np.array_equal(result[1], given)}


def _weights_counts(args, result):
    return {"weights": sum(d.beta is not None for d in result.data)}


_COUNTS = {
    "birkhoff.fss": _fss_counts,
    "spectrum.count_zeros": _count_zeros_counts,
    "spectrum.weights": _weights_counts,
}


class Tracer:
    """Span recorder for one run; single-threaded (quasispec threads=1)."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []      # [name, start, end, parent, counts]
        self._stack = []

    def wrap(self, name, fn):
        counts = _COUNTS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, None]
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[4] = {"error": type(exc).__name__}
                raise
            finally:
                span[2] = clock()
                self._stack.pop()
            span[4] = counts(args, result) if counts is not None else {}
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch the entry points for the duration of the block."""
        from quasispec import cli, spectrum

        saved = []
        try:
            for module, names in ((spectrum, _ENTRY_POINTS["spectrum"]),
                                  (cli, _ENTRY_POINTS["cli"])):
                for attr, name in names.items():
                    saved.append((module, attr, getattr(module, attr)))
                    setattr(module, attr, self.wrap(name, getattr(module, attr)))
            cls = spectrum.DeterminantEvaluator
            for attr, name in _EVALUATOR_METHODS.items():
                saved.append((cls, attr, getattr(cls, attr)))
                setattr(cls, attr, self.wrap(name, getattr(cls, attr)))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path):
        """One JSON line per span; ids are positions in the file."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, counts) in enumerate(self.spans):
                rec = {"id": i, "run": self.run_id, "name": name,
                       "start": start, "end": end, "parent": parent}
                if counts:
                    rec.update(counts)
                fh.write(json.dumps(rec) + "\n")


def self_times(spans):
    """Per-span self time: duration minus the time of its direct children
    (children of one span never overlap on a single thread)."""
    own = [end - start for _, start, end, _, _ in spans]
    for name, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def _under(spans, name):
    """Per span: whether it runs inside a span called `name`."""
    inside = []
    for span_name, _, _, parent, _ in spans:
        inside.append(parent is not None
                      and (spans[parent][0] == name or inside[parent]))
    return inside


def layer_metrics(spans, indices, solve_s, traced_solve_s):
    """Per-layer figures of one traced command over `indices` indices."""
    own = self_times(spans)
    in_count = _under(spans, "spectrum.count_zeros")
    in_locate = _under(spans, "spectrum.locate")
    in_weights = _under(spans, "spectrum.weights")

    def pick(name):
        return [i for i, s in enumerate(spans) if s[0] == name]

    def total(ids, times=None):
        times = own if times is None else times
        return float(sum(times[i] for i in ids))

    def per_call_ms(ids):
        return 1000.0 * total(ids) / len(ids) if ids else 0.0

    def mean(ids, key):
        return float(np.mean([spans[i][4][key] for i in ids])) if ids else 0.0

    def count(ids, key):
        return sum(bool(spans[i][4].get(key)) for i in ids)

    incl = [end - start for _, start, end, _, _ in spans]
    fss_all = pick("birkhoff.fss")
    fss = [i for i in fss_all if "error" not in spans[i][4]]
    zeros = pick("spectrum.count_zeros")
    magnus = pick("solutions.magnus")
    closed = pick("solutions.closed_form")
    evals = sorted(pick("spectrum.delta") + pick("spectrum.d_norm"))
    weights = pick("spectrum.weights")
    n_weights = sum(spans[i][4].get("weights", 0) for i in weights)
    fss_in_weights = [i for i in fss_all if in_weights[i]]
    n_evals = len(evals)
    solves = len(fss_all) + len(magnus) + len(closed)
    return {
        "birkhoff.fss.calls": len(fss_all),
        "birkhoff.fss.errors": count(fss_all, "error"),
        "birkhoff.fss.self_s": total(fss_all),
        "birkhoff.fss.ms_per_call": per_call_ms(fss_all),
        "birkhoff.fss.ms_per_call.rho_lt_40":
            per_call_ms([i for i in fss if spans[i][4]["rho_abs"] < 40]),
        "birkhoff.fss.ms_per_call.rho_ge_100":
            per_call_ms([i for i in fss if spans[i][4]["rho_abs"] >= 100]),
        "birkhoff.fss.panels_mean": mean(fss, "panels"),
        "birkhoff.fss.iterations_mean": mean(fss, "iterations"),
        "birkhoff.fss.gmres": count(fss, "gmres"),
        "birkhoff.fss.share": total(fss_all) / traced_solve_s,
        "solutions.magnus.calls": len(magnus),
        "solutions.magnus.self_s": total(magnus),
        "solutions.magnus.ms_per_call": per_call_ms(magnus),
        "solutions.magnus.share": total(magnus) / traced_solve_s,
        "spectrum.evals": n_evals,
        "spectrum.contour_evals": sum(in_count[i] for i in evals),
        "spectrum.newton_evals":
            sum(in_locate[i] and not in_count[i] for i in evals),
        "spectrum.evals_per_index": n_evals / indices,
        "spectrum.fss_per_index": len(fss_all) / indices,
        "spectrum.cache_hit_ratio": 1.0 - solves / n_evals if n_evals else 0.0,
        "spectrum.count_zeros.dilations": count(zeros, "dilated"),
        "spectrum.count_zeros.errors": count(zeros, "error"),
        "spectrum.locate.total_s": total(pick("spectrum.locate"), incl),
        "spectrum.weights.self_s": total(weights),
        "spectrum.weights.total_s": total(weights, incl),
        "spectrum.weights.fss_per_weight":
            len(fss_in_weights) / n_weights if n_weights else 0.0,
        "regularization.build_s": total(pick("regularization.build"), incl),
        "regularization.conjugate_s":
            total(pick("regularization.conjugate"), incl),
        "asymptotics.model_s": total(pick("asymptotics.model"), incl),
        "cli.parse_s": total(pick("cli.parse"), incl),
        "trace.overhead_frac": traced_solve_s / solve_s - 1.0,
    }
