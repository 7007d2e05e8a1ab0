"""Span tracing from outside the program, for the traced pass.

``Tracer.install`` replaces the toruslab functions named in ``TRACED`` (and
the ``PdoOperator`` methods) with wrappers that record one span per call:
name, start, end, parent span and task id, plus a per-call count where a
layer has one (evaluated samples, computed table bytes).  Names that other
toruslab modules bound with ``from .x import y`` are patched too, or calls
through them would go uncounted.  Spans stay in memory until ``write``.

A layer's self time is the span's duration minus the durations of its
direct child spans.  No layer queues work, so no wait time is recorded.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

import numpy as np

import toruslab.calculus
import toruslab.cli
import toruslab.experiments
import toruslab.grid
import toruslab.kernels
import toruslab.operators
import toruslab.spaces
import toruslab.symbols

# (module, function) pairs wrapped as spans; the span is named
# "<layer>.<function>" with the layer being the module's last name part.
TRACED = {
    toruslab.grid: ("forward_dft", "inverse_dft"),
    toruslab.symbols: ("eval_expr",),
    toruslab.calculus: ("fit_order",),
    toruslab.operators: ("bessel_apply", "kernel_offset_rows", "offsets_to_full"),
    toruslab.kernels: ("synthesize_kernel", "decay_scan", "log_bound_check", "sigma_estimates"),
    toruslab.spaces: ("bmo_norm", "make_atom", "cz_decompose", "lp_norm", "weak_lp"),
    toruslab.experiments: (
        "threshold_sweep",
        "lp_lq_lower_bound",
        "weak11_experiment",
        "linf_bmo_experiment",
        "h1_l1_experiment",
        "l2_norm",
    ),
    toruslab.cli: ("main", "write_report", "write_function_csv"),
}

APPLY_NAMES = ("operators.apply.general", "operators.apply.multiplier", "operators.apply_adjoint")

# span record fields
NAME, START, END, PARENT, TASK, COUNT, RAISED = range(7)


def _general_bytes(op) -> int:
    """Size of the G x L phase and symbol tables one general-path call builds."""
    return 2 * 16 * op.spec.npoints * op.lattice.npoints


class Tracer:
    """Records spans while ``active``; ``task`` tags every span it records."""

    def __init__(self):
        self.spans = []
        self.task = None
        self.active = False
        self._stack = []
        self._undo = []

    # -- recording -----------------------------------------------------------

    def _span(self, fn, name, count=None):
        """Wrap ``fn``; ``name`` is a string or a function of the call's args."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            label = name(args) if callable(name) else name
            span = [label, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.task, 0, True]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
                span[RAISED] = False
            finally:
                span[END] = perf_counter()
                tracer._stack.pop()
            if count is not None:
                span[COUNT] = count(args, out)
            return out

        return wrapper

    # -- patching ------------------------------------------------------------

    def _replace_everywhere(self, original, wrapper):
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("toruslab"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def install(self):
        for module, names in TRACED.items():
            layer = module.__name__.rsplit(".", 1)[-1]
            for fname in names:
                original = getattr(module, fname)
                count = None
                if original is toruslab.symbols.eval_expr:
                    count = lambda args, out: int(np.size(out))
                self._replace_everywhere(original, self._span(original, f"{layer}.{fname}", count))

        cls = toruslab.operators.PdoOperator

        def apply_name(args):
            kind = "multiplier" if args[0].is_multiplier else "general"
            return f"operators.apply.{kind}"

        def table_bytes(args, _out):
            op = args[0]
            return 0 if op.is_multiplier else _general_bytes(op)

        methods = {
            "__init__": ("operators.build", None),
            "apply": (apply_name, table_bytes),
            "apply_adjoint": ("operators.apply_adjoint", table_bytes),
            "symbol_rows": ("operators.symbol_rows", None),
            "multiplier_profile": ("operators.multiplier_profile",
                                   lambda args, _out: args[0].spec.npoints),
        }
        for attr, (name, count) in methods.items():
            original = cls.__dict__[attr]
            setattr(cls, attr, self._span(original, name, count))
            self._undo.append((cls, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def write(self, path):
        """One JSON line per span: name, start, end, parent, task, count, raised."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layer_totals(self) -> dict:
        """name -> [calls, self seconds, summed count]."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        totals = {}
        for i, span in enumerate(self.spans):
            row = totals.setdefault(span[NAME], [0, 0.0, 0])
            row[0] += 1
            row[1] += span[END] - span[START] - child[i]
            row[2] += span[COUNT]
        return totals

    def l2_applies(self) -> int:
        """Applies and adjoints made inside l2_norm calls."""
        inside = [False] * len(self.spans)
        applies = 0
        for i, span in enumerate(self.spans):
            parent = span[PARENT]
            inside[i] = span[NAME] == "experiments.l2_norm" or (parent >= 0 and inside[parent])
            if inside[i] and span[NAME] in APPLY_NAMES:
                applies += 1
        return applies

    def l2_converged(self) -> int:
        return sum(1 for s in self.spans if s[NAME] == "experiments.l2_norm" and not s[RAISED])

    def count_where(self, name: str, task=None, max_count=None) -> int:
        """Spans of ``name``, optionally of one task and with count <= max_count."""
        return sum(
            1
            for s in self.spans
            if s[NAME] == name
            and (task is None or s[TASK] == task)
            and (max_count is None or s[COUNT] <= max_count)
        )


# Per-layer metrics reported from the traced pass: (name, unit, source).
# Sources: ("calls"|"self_s"|"count", span name) or a derived key.
LAYER_METRICS = [
    ("grid.forward_dft.calls", "count", ("calls", "grid.forward_dft")),
    ("grid.forward_dft.self_s", "s", ("self_s", "grid.forward_dft")),
    ("grid.inverse_dft.calls", "count", ("calls", "grid.inverse_dft")),
    ("grid.inverse_dft.self_s", "s", ("self_s", "grid.inverse_dft")),
    ("symbols.eval_expr.calls", "count", ("calls", "symbols.eval_expr")),
    ("symbols.eval_expr.self_s", "s", ("self_s", "symbols.eval_expr")),
    ("symbols.eval_expr.points", "count", ("count", "symbols.eval_expr")),
    ("calculus.fit_order.calls", "count", ("calls", "calculus.fit_order")),
    ("calculus.fit_order.self_s", "s", ("self_s", "calculus.fit_order")),
    ("operators.build.calls", "count", ("calls", "operators.build")),
    ("operators.build.self_s", "s", ("self_s", "operators.build")),
    ("operators.apply.general.calls", "count", ("calls", "operators.apply.general")),
    ("operators.apply.general.self_s", "s", ("self_s", "operators.apply.general")),
    ("operators.apply.multiplier.calls", "count", ("calls", "operators.apply.multiplier")),
    ("operators.apply.multiplier.self_s", "s", ("self_s", "operators.apply.multiplier")),
    ("operators.apply_adjoint.calls", "count", ("calls", "operators.apply_adjoint")),
    ("operators.apply_adjoint.self_s", "s", ("self_s", "operators.apply_adjoint")),
    ("operators.symbol_rows.calls", "count", ("calls", "operators.symbol_rows")),
    ("operators.symbol_rows.self_s", "s", ("self_s", "operators.symbol_rows")),
    ("operators.multiplier_profile.calls", "count", ("calls", "operators.multiplier_profile")),
    ("operators.multiplier_profile.self_s", "s", ("self_s", "operators.multiplier_profile")),
    ("operators.bessel_apply.self_s", "s", ("self_s", "operators.bessel_apply")),
    ("operators.kernel_offset_rows.self_s", "s", ("self_s", "operators.kernel_offset_rows")),
    ("operators.offsets_to_full.self_s", "s", ("self_s", "operators.offsets_to_full")),
    ("operators.general.bytes_computed", "B", "general_bytes"),
    ("operators.applies_per_build", "ratio", "applies_per_build"),
    ("kernels.synthesize_kernel.calls", "count", ("calls", "kernels.synthesize_kernel")),
    ("kernels.synthesize_kernel.self_s", "s", ("self_s", "kernels.synthesize_kernel")),
    ("kernels.decay_scan.self_s", "s", ("self_s", "kernels.decay_scan")),
    ("kernels.log_bound_check.self_s", "s", ("self_s", "kernels.log_bound_check")),
    ("kernels.sigma_estimates.self_s", "s", ("self_s", "kernels.sigma_estimates")),
    ("spaces.bmo_norm.calls", "count", ("calls", "spaces.bmo_norm")),
    ("spaces.bmo_norm.self_s", "s", ("self_s", "spaces.bmo_norm")),
    ("spaces.make_atom.calls", "count", ("calls", "spaces.make_atom")),
    ("spaces.make_atom.self_s", "s", ("self_s", "spaces.make_atom")),
    ("spaces.cz_decompose.self_s", "s", ("self_s", "spaces.cz_decompose")),
    ("experiments.threshold_sweep.self_s", "s", ("self_s", "experiments.threshold_sweep")),
    ("experiments.lp_lq_lower_bound.self_s", "s", ("self_s", "experiments.lp_lq_lower_bound")),
    ("experiments.weak11_experiment.self_s", "s", ("self_s", "experiments.weak11_experiment")),
    ("experiments.linf_bmo_experiment.self_s", "s", ("self_s", "experiments.linf_bmo_experiment")),
    ("experiments.h1_l1_experiment.self_s", "s", ("self_s", "experiments.h1_l1_experiment")),
    ("experiments.l2_norm.calls", "count", ("calls", "experiments.l2_norm")),
    ("experiments.l2_norm.self_s", "s", ("self_s", "experiments.l2_norm")),
    ("experiments.l2_norm.applies_per_call", "ratio", "l2_applies_per_call"),
    ("experiments.l2_norm.converged_frac", "ratio", "l2_converged_frac"),
    ("cli.main.calls", "count", ("calls", "cli.main")),
    ("cli.main.self_s", "s", ("self_s", "cli.main")),
    ("cli.write_report.self_s", "s", ("self_s", "cli.write_report")),
    ("cli.write_function_csv.self_s", "s", ("self_s", "cli.write_function_csv")),
]


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metric name -> (value, unit) from the recorded spans."""
    totals = tracer.layer_totals()

    def get(kind, name):
        row = totals.get(name, [0, 0.0, 0])
        return {"calls": row[0], "self_s": row[1], "count": row[2]}[kind]

    applies = sum(get("calls", name) for name in APPLY_NAMES)
    builds = get("calls", "operators.build")
    l2_calls = get("calls", "experiments.l2_norm")
    derived = {
        "general_bytes": get("count", "operators.apply.general")
        + get("count", "operators.apply_adjoint"),
        "applies_per_build": applies / builds if builds else 0.0,
        "l2_applies_per_call": tracer.l2_applies() / l2_calls if l2_calls else 0.0,
        "l2_converged_frac": tracer.l2_converged() / l2_calls if l2_calls else 0.0,
    }
    out = {}
    for name, unit, source in LAYER_METRICS:
        value = get(*source) if isinstance(source, tuple) else derived[source]
        out[name] = (value, unit)
    return out


def top_self_times(tracer: Tracer, limit: int = 6) -> list:
    """(span name, self seconds) of the largest self times."""
    totals = tracer.layer_totals()
    rows = sorted(((name, row[1]) for name, row in totals.items()), key=lambda r: -r[1])
    return rows[:limit]


def general_path_seconds(tracer: Tracer) -> float:
    """Inclusive time of general-path applies and adjoints (those that build tables)."""
    return sum(
        s[END] - s[START]
        for s in tracer.spans
        if s[NAME] in ("operators.apply.general", "operators.apply_adjoint") and s[COUNT] > 0
    )
