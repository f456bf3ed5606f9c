"""Tracing from outside the program.

:meth:`Tracer.install` replaces metalliclab's public functions and methods,
the ``_SUITE_FUNCS`` entries, ``numpy.einsum`` and the ``numpy.linalg``
functions with wrappers that record spans (name, parent span, start, end)
in memory.  The constructors of the expression node classes count nodes
built, and the ``eval_batch`` wrapper counts the entries each call adds to
its memo: how many, how many are identically zero, and how many are
structurally distinct.  Nothing inside the program changes.

A hook point that a later version of the program no longer has is listed in
``Tracer.missing``; the metrics that depend on it are reported as absent.
"""

from __future__ import annotations

import functools
import inspect
import json
import operator
import sys
import time
from collections import Counter
from itertools import islice

LAYERS = (
    "scenario",
    "expr",
    "chart",
    "metallic",
    "genbundle",
    "genconn",
    "lifts",
    "suites",
    "report",
)
SUITES = (
    "core",
    "genbundle",
    "genconn",
    "karaman",
    "lifts-tangent",
    "lifts-cotangent",
    "commutation",
)
# expr's smart constructors run once per node: spans there would cost more
# than the work they measure, so nodes are counted in the node classes.
EXPR_SPANNED = ("parse", "differentiate", "eval_batch")
NUMPY_LINALG = (
    "cholesky",
    "det",
    "eig",
    "eigh",
    "eigvals",
    "eigvalsh",
    "inv",
    "lstsq",
    "matrix_power",
    "matrix_rank",
    "multi_dot",
    "norm",
    "pinv",
    "qr",
    "slogdet",
    "solve",
    "svd",
)

CHART_BUILD = (
    "christoffel",
    "riemann",
    "covariant_derivative_endo",
    "covariant_derivative_metric",
    "covariant_derivative_oneform",
    "torsion",
    "nijenhuis",
    "lie_bracket",
    "inverse_metric",
    "determinant",
    "mat_mul",
    "mat_vec",
)
GENCONN_NUMERIC = (
    "jp_condition_residuals",
    "jc_condition_residuals",
    "jp_reduced_residuals",
    "jc_reduced_residuals",
    "phi_of_torsion",
    "covariant_nijenhuis_rhs",
    "torsion_closed_form_values",
)
LIFTS_NIJENHUIS = ("nijenhuis_values",)
LIFTS_DISPLAY = (
    "frame_endo_residuals",
    "coordinate_endo_residuals",
    "frame_metric_residuals",
    "coordinate_metric_residuals",
    "mixed_display_residual",
    "horizontal_display_match",
    "commutation_residual",
)


def _genconn_build(fn: str) -> bool:
    return (
        fn.startswith("gen_")
        or fn.startswith("dhat_")
        or fn in ("nabla_bracket", "karaman_connection", "ghat_field")
    )


class Tracer:
    """Spans and counters of one process; create one, install it, read it."""

    def __init__(self):
        self.names: list = []  # span name, one entry per span
        self.parents: list = []  # index of the enclosing span, -1 at top
        self.starts: list = []
        self.ends: list = []
        self.errors: dict = {}  # span index -> exception class name
        self.counts: Counter = Counter()
        self.missing: list = []  # hook points the program no longer has
        self.hooked: set = set()  # names of the spans that can occur
        self._stack: list = []
        self._canon: dict = {}  # id(node) -> (node, structural id); holds nodes alive
        self._shapes: dict = {}  # structural key -> structural id
        self._fields: dict = {}  # node class -> getter of its non-child attributes
        self._np = None
        self._expr = None

    # -- recording -------------------------------------------------------

    def wrap(self, name: str, fn):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, errors, clock = self._stack, self.errors, time.perf_counter
        self.hooked.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException as err:
                errors[i] = type(err).__name__
                raise
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def start_pass(self) -> int:
        """Forget the counts of set-up; returns the index of the pass's first span."""
        self._canon.clear()
        self._shapes.clear()
        self.counts.clear()
        return len(self.names)

    def end_job(self) -> None:
        """Close one scenario: structural identity is counted per scenario."""
        self.counts["expr.distinct"] += len(self._shapes)
        self._canon.clear()
        self._shapes.clear()

    def _count_memo(self, memo: dict, added: int) -> None:
        """Count the ``added`` newest memo entries: all, zero, structurally distinct."""
        counts, canon = self.counts, self._canon
        expr_type, ndarray = self._expr, self._np.ndarray
        counts["expr.nodes_evaluated"] += added
        fresh = list(islice(reversed(memo.values()), added))
        fresh.reverse()  # children were stored before their parents
        for entry in fresh:
            if not (isinstance(entry, tuple) and len(entry) == 2 and isinstance(entry[0], expr_type)):
                counts["expr.memo_unreadable"] += 1
                continue
            node, value = entry
            if not (value.any() if isinstance(value, ndarray) else value):
                counts["expr.zero"] += 1
            if id(node) not in canon:
                self._structural_id(node)

    def _structural_id(self, node) -> int:
        """Number ``node`` by its structure: equal structure, equal number."""
        hit = self._canon.get(id(node))
        if hit is not None:
            return hit[1]
        cls = type(node)
        fields = self._fields.get(cls)
        if fields is None:
            names = [s for s in cls.__slots__ if not isinstance(getattr(node, s), self._expr)]
            fields = self._fields[cls] = operator.attrgetter(*names) if names else (lambda _: None)
        kids = tuple([self._structural_id(k) for k in node.children()])
        sid = self._shapes.setdefault((cls, fields(node), kids), len(self._shapes))
        self._canon[id(node)] = (node, sid)
        return sid

    # -- installing ------------------------------------------------------

    def install(self, numpy_module) -> None:
        """Wrap the hook points of the imported metalliclab and of numpy."""
        self._np = numpy_module
        # with no Expr class every memo entry is unreadable and nothing is counted
        self._expr = getattr(sys.modules.get("metalliclab.expr"), "Expr", None) or type(None)
        modules = {
            name: sys.modules.get(f"metalliclab.{name}") for name in LAYERS
        }
        for layer, module in modules.items():
            if module is None:
                self.missing.append(f"module metalliclab.{layer}")
        replaced: dict = {}
        for layer, module in modules.items():
            if module is None:
                continue
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value):
                    if layer == "expr" and attr not in EXPR_SPANNED:
                        continue
                    if layer == "suites" and attr.startswith("suite_"):
                        continue  # spanned through _SUITE_FUNCS, by suite name
                    replaced[id(value)] = self._wrap_function(layer, attr, value)
                elif inspect.isclass(value) and layer != "expr":
                    self._wrap_methods(f"{layer}.{attr}", value)
        for name in EXPR_SPANNED:
            if modules["expr"] is None or not hasattr(modules["expr"], name):
                self.missing.append(f"expr.{name}")
        # rebind every module-level reference, including `from x import f` copies
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "metalliclab" or mod_name.startswith("metalliclab.")):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in replaced and replaced[id(value)][0] is value:
                    setattr(module, attr, replaced[id(value)][1])
        self._install_suites(modules["suites"])
        self._install_nodes(modules["expr"])
        self._install_numpy(numpy_module)

    def _wrap_function(self, layer, attr, fn):
        if layer == "expr" and attr == "eval_batch":
            if "memo" in inspect.signature(fn).parameters:
                return fn, self._wrap_eval_batch(fn)
            self.missing.append("expr.eval_batch memo")
        return fn, self.wrap(f"{layer}.{attr}", fn)

    def _wrap_methods(self, prefix, cls) -> None:
        for attr, value in list(vars(cls).items()):
            if not attr.startswith("_") and inspect.isfunction(value):
                setattr(cls, attr, self.wrap(f"{prefix}.{attr}", value))

    def _install_suites(self, suites) -> None:
        table = getattr(suites, "_SUITE_FUNCS", None) if suites is not None else None
        if not isinstance(table, dict):
            self.missing.append("suites._SUITE_FUNCS")
            return
        for suite, fn in list(table.items()):
            table[suite] = self.wrap(f"suites.suite[{suite}]", fn)

    def _install_nodes(self, expr) -> None:
        base = getattr(expr, "Expr", None) if expr is not None else None
        if base is None:
            self.missing.append("expr.Expr")
            return
        counts = self.counts
        self.hooked.add("expr.Expr")
        pending, seen = list(base.__subclasses__()), set()
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            init = cls.__dict__.get("__init__")
            if init is None:
                continue

            def counted(node, *args, _init=init, **kwargs):
                counts["expr.nodes_built"] += 1
                _init(node, *args, **kwargs)

            cls.__init__ = counted

    def _wrap_eval_batch(self, fn):
        spanned = self.wrap("expr.eval_batch", fn)
        # a span of its own keeps the tracer's bookkeeping out of the callers' self time
        count_memo = self.wrap("trace.count_memo", self._count_memo)
        self.hooked.add("expr.eval_batch memo")

        @functools.wraps(fn)
        def counted(e, points, memo=None, *args, **kwargs):
            if memo is None:
                memo = {}
            before = len(memo)
            out = spanned(e, points, memo, *args, **kwargs)
            added = len(memo) - before
            if added:
                count_memo(memo, added)
            return out

        return counted

    def _install_numpy(self, np) -> None:
        np.einsum = self.wrap("numpy.einsum", np.einsum)
        for attr in NUMPY_LINALG:
            fn = getattr(np.linalg, attr, None)
            if fn is not None:
                setattr(np.linalg, attr, self.wrap(f"numpy.linalg.{attr}", fn))

    # -- reading ---------------------------------------------------------

    def write(self, path, first: int = 0) -> None:
        """Write spans from index ``first`` on as JSON: names, parents, starts, ends."""
        table = sorted(set(self.names[first:]))
        index = {name: i for i, name in enumerate(table)}
        with open(path, "w") as out:
            json.dump(
                {
                    "names": table,
                    "spans": [
                        [index[self.names[i]], self.parents[i], self.starts[i], self.ends[i]]
                        for i in range(first, len(self.names))
                    ],
                    "errors": {str(i): e for i, e in self.errors.items() if i >= first},
                },
                out,
            )


def self_times(parents, starts, ends) -> list:
    """Each span's duration minus the durations of its direct children.

    Spans nest (one thread, call stack order), so the children of a span
    cover disjoint parts of its interval.
    """
    out = [ends[i] - starts[i] for i in range(len(starts))]
    for i, parent in enumerate(parents):
        if parent >= 0:
            out[parent] -= ends[i] - starts[i]
    return out


def outermost_time(names, parents, starts, ends, member) -> tuple:
    """Total time and count of spans whose name satisfies ``member``.

    Time counts only spans without an ancestor that is also a member, so
    nested calls are not counted twice; the count includes every call.
    """
    inside = [False] * len(names)
    total, calls = 0.0, 0
    for i, name in enumerate(names):  # parents always precede their children
        parent = parents[i]
        nested = parent >= 0 and inside[parent]
        hit = member(name)
        inside[i] = nested or hit
        if hit:
            calls += 1
            if not nested:
                total += ends[i] - starts[i]
    return total, calls


def layer_metrics(tracer: Tracer, first: int, run_s: float) -> dict:
    """The per-layer metrics of the spans from index ``first`` on: name -> (value, unit).

    ``run_s`` is the traced pass's time; every span from ``first`` on lies
    in it.  A metric whose hook points were all missing is left out.
    """
    names = tracer.names[first:]
    parents = [p - first if p >= first else -1 for p in tracer.parents[first:]]
    starts, ends = tracer.starts[first:], tracer.ends[first:]
    counts = tracer.counts
    out: dict = {}

    def fn_name(name):
        return name.rsplit(".", 1)[-1]

    def timed(metric, member, count_metric=None):
        if not any(member(name) for name in tracer.hooked):
            return
        total, calls = outermost_time(names, parents, starts, ends, member)
        out[metric] = (total, "s")
        if count_metric:
            out[count_metric] = (calls, "count")

    def counted(metric, hook, value, unit="count"):
        if hook in tracer.hooked:
            out[metric] = (value, unit)

    evaluated = counts["expr.nodes_evaluated"]
    counted("expr.nodes_built", "expr.Expr", counts["expr.nodes_built"])
    counted("expr.nodes_evaluated", "expr.eval_batch memo", evaluated)
    if evaluated and not counts["expr.memo_unreadable"]:
        counted("expr.distinct_share", "expr.eval_batch memo", counts["expr.distinct"] / evaluated, "ratio")
        counted("expr.zero_share", "expr.eval_batch memo", counts["expr.zero"] / evaluated, "ratio")
    timed("expr.differentiate_s", lambda n: n == "expr.differentiate", "expr.differentiate_calls")
    timed("expr.eval_batch_s", lambda n: n == "expr.eval_batch", "expr.eval_batch_calls")
    timed("chart.build_s", lambda n: n.startswith("chart.") and fn_name(n) in CHART_BUILD)
    timed("chart.eval_exprs_s", lambda n: n == "chart.eval_exprs")
    domain_errors = sum(
        1
        for i, error in tracer.errors.items()
        if i >= first and error == "DomainError" and tracer.names[i] == "chart.eval_exprs"
    )
    counted("chart.domain_errors", "chart.eval_exprs", domain_errors)
    timed("metallic.s", lambda n: n.startswith("metallic."))
    timed("genbundle.s", lambda n: n.startswith("genbundle."), "genbundle.calls")
    timed("genconn.build_s", lambda n: n.startswith("genconn.") and _genconn_build(fn_name(n)))
    timed("genconn.numeric_s", lambda n: n.startswith("genconn.") and fn_name(n) in GENCONN_NUMERIC)
    counted(
        "genconn.gen_nijenhuis_calls",
        "genconn.gen_nijenhuis",
        sum(1 for n in names if n == "genconn.gen_nijenhuis"),
    )
    timed("lifts.nijenhuis_s", lambda n: n.startswith("lifts.") and fn_name(n) in LIFTS_NIJENHUIS)
    timed("lifts.display_s", lambda n: n.startswith("lifts.") and fn_name(n) in LIFTS_DISPLAY)
    timed(
        "lifts.build_s",
        lambda n: n.startswith("lifts.")
        and fn_name(n) not in LIFTS_NIJENHUIS
        and fn_name(n) not in LIFTS_DISPLAY,
    )
    for suite in SUITES:
        timed(f"suites.{suite}_s", lambda n, s=suite: n == f"suites.suite[{s}]")
    timed("report.render_s", lambda n: n == "report.ScenarioReport.to_json")
    timed("numpy.einsum_s", lambda n: n == "numpy.einsum", "numpy.einsum_calls")
    timed("numpy.linalg_s", lambda n: n.startswith("numpy.linalg."))

    by_layer: Counter = Counter()
    for name, own in zip(names, self_times(parents, starts, ends)):
        by_layer[name.split(".", 1)[0]] += own
    for layer in LAYERS[1:] + ("numpy", "trace"):  # scenario loads before the pass
        out[f"{layer}.self_s"] = (by_layer[layer], "s")
    out["trace.unaccounted_s"] = (run_s - sum(by_layer.values()), "s")
    out["trace.spans"] = (len(names), "count")
    return out
