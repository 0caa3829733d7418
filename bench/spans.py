"""Layer spans for the traced benchmark run, recorded from outside biquon.

:class:`Tracer` rebinds the public functions at each layer boundary in the
``biquon.*`` module namespaces (every binding of the same function object,
so the ``from .x import y`` copies in ``cli`` and ``selftest`` are caught
too), plus the ``cli.TASK_RUNNERS`` and ``selftest.ALL_CHECKS`` entries.
Each call appends a span ``[name, start, end, parent]`` to an in-memory
list; exact work counts are kept apart from the timings.  ``uninstall``
puts every original binding back, so an untraced pass runs unwrapped code.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import Counter

import numpy as np

# Layer -> attributes timed at its boundary.  A class is timed through its
# constructor; "Class.method" through the method.  Entry points that another
# layer calls are wrapped even where no metric names them, so that their
# time counts as their own layer's self time, not the caller's.  Names
# missing from the program are skipped, so their metrics read 0.
TARGETS = {
    "qcore": ["BetaSequence"],
    "fock": ["make_quon_c", "qmutator_residual"],
    "pseudoquon": ["make_pair", "build_family", "gram_deviation", "check_ladder",
                   "number_eigencheck", "build_theta", "build_theta_inverse",
                   "closed_form_theta", "check_theta_conjugate", "family_to_json"],
    "bicoherent": ["bicoherent_state", "normalization", "norm_series",
                   "eigen_check", "pairing", "uncertainty_product",
                   "radius_report", "quon_coherent_vector"],
    "resolution": ["solve_moment_measure", "resolution_check"],
    "positionrep": ["AnalyticState.sample", "inner", "grid_norm",
                    "coefficient_recursion", "l_value", "build_families",
                    "qmutation_grid_check", "similarity_check",
                    "theta_conjugacy_check", "norm_formula_check",
                    "ladder_check", "vacuum_check", "family_norms"],
    "cli": ["main", "run_config"],
    "selftest": ["run_all"],
}


def _array_bytes(value) -> int:
    """Bytes of the numpy arrays in a returned value (computed, not measured)."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, tuple):
        return sum(_array_bytes(v) for v in value)
    attrs = getattr(value, "__dict__", None)
    if attrs:
        return sum(v.nbytes for v in attrs.values() if isinstance(v, np.ndarray))
    return 0


def _count_beta_entries(counts, args, result):
    counts["qcore.BetaSequence.entries"] += args[0].nmax + 2


def _count_norm_terms(counts, args, result):
    counts["bicoherent.norm_series.terms"] += result[2]


def _count_quadrature(counts, args, result):
    counts["resolution.gauss_solves"] += result.method == "gauss"
    counts["resolution.atoms"] += len(result.nodes)


HOOKS = {
    "qcore.BetaSequence": _count_beta_entries,
    "bicoherent.norm_series": _count_norm_terms,
    "resolution.solve_moment_measure": _count_quadrature,
}


def self_times(spans: list) -> list[float]:
    """Per span: its duration minus the part of it that child spans cover.

    ``spans`` holds ``[name, start, end, parent]`` with ``parent`` the index
    of the enclosing span or -1.  Overlapping children are merged, and a
    child is clipped to its parent's interval.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for c_start, c_end in sorted(children.get(i, [])):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if cur_end is None or c_start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = c_start, c_end
            else:
                cur_end = max(cur_end, c_end)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((end - start) - covered)
    return out


def span_metrics(spans: list, counts: Counter) -> dict[str, float]:
    """Per-batch layer metrics from one traced pass.

    ``<span>.s`` is the time inside outermost spans of that name (a
    recursive call is not counted twice), ``<span>.calls`` the number of
    calls and ``<layer>.self_s`` the summed self time of the layer's spans.
    """
    metrics: dict[str, float] = {}
    for (name, start, end, parent), own in zip(spans, self_times(spans)):
        layer = name.split(".", 1)[0]
        metrics[f"{layer}.self_s"] = metrics.get(f"{layer}.self_s", 0.0) + own
        metrics[f"{name}.calls"] = metrics.get(f"{name}.calls", 0) + 1
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            metrics[f"{name}.s"] = metrics.get(f"{name}.s", 0.0) + (end - start)
    metrics.update(counts)
    solves = metrics.get("resolution.solve_moment_measure.calls", 0)
    metrics["resolution.gauss_ratio"] = \
        counts.get("resolution.gauss_solves", 0) / solves if solves else 0.0
    return metrics


class Tracer:
    """Installs timing wrappers on the biquon layers and records spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def reset(self) -> None:
        self.spans, self.counts = [], Counter()

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        bytes_counted = name.startswith("pseudoquon.")
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = self.spans
            index = len(spans)
            spans.append([name, time.perf_counter(), math.nan,
                          stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if hook is not None:
                # a program whose return shape changed loses the count, never
                # the op: tracing must not change an op's outcome
                try:
                    hook(self.counts, args, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    self.counts["trace.hook_errors"] += 1
            if bytes_counted:
                self.counts["pseudoquon.result_bytes"] += _array_bytes(result)
            return result
        return wrapper

    def _rebind(self, owner, key, value) -> None:
        """Replace ``owner[key]`` (a dict or list) or ``owner.key``."""
        if isinstance(owner, (dict, list)):
            original, owner[key] = owner[key], value
        else:
            original = vars(owner)[key]
            setattr(owner, key, value)
        self._restore.append((owner, key, original))

    def install(self) -> None:
        """Wrap every target; missing targets are skipped."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = {name: importlib.import_module(f"biquon.{name}") for name in TARGETS}
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if (n == "biquon" or n.startswith("biquon.")) and m is not None]
        try:
            for layer, attrs in TARGETS.items():
                for attr in attrs:
                    self._install_one(modules[layer], layer, attr, namespaces)
            cli, selftest = modules["cli"], modules["selftest"]
            for task, fn in list(cli.TASK_RUNNERS.items()):
                self._rebind(cli.TASK_RUNNERS, task,
                             self._wrap(f"cli.task.{task}", fn))
            for i, fn in enumerate(list(selftest.ALL_CHECKS)):
                self._rebind(selftest.ALL_CHECKS, i,
                             self._wrap(f"selftest.{fn.__name__}", fn))
        except BaseException:
            self.uninstall()
            raise

    def _install_one(self, module, layer: str, attr: str, namespaces) -> None:
        name = f"{layer}.{attr}"
        owner_name, _, method = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            if owner is None or method not in vars(owner):
                return
            self._rebind(owner, method,
                         self._wrap(name, vars(owner)[method]))
            return
        target = getattr(module, attr, None)
        if target is None:
            return
        if isinstance(target, type):
            self._rebind(target, "__init__",
                         self._wrap(name, vars(target)["__init__"]))
            return
        wrapped = self._wrap(name, target)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is target:
                    self._rebind(ns, key, wrapped)

    def uninstall(self) -> None:
        """Put back every binding that :meth:`install` replaced."""
        while self._restore:
            owner, key, original = self._restore.pop()
            if isinstance(owner, (dict, list)):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

