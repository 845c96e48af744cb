"""Outside-in layer trace of one ``run_all`` call.

The tracer replaces public functions of the ``qsystems`` modules with timing
wrappers, from the benchmark's side only: every binding of the original
function object in a ``qsystems`` module namespace (or in a module-level dict
such as ``suites.SUITE_RUNNERS``) is swapped for the wrapper and restored
afterwards.  Calls resolve those names when they run, so nested calls into a
wrapped function record a span too.

A span is ``(name, start, end, parent, run_id)``.  Spans stay in memory for
the life of the tracer; a layer's self time is the sum over its spans of the
duration minus the durations of their direct children.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

# Each traced layer: (self-time metric, call-count metric or None, functions
# as (module, attribute)).  The suite spans sit above every other span, so
# work that no finer span covers stays in its suite's self time.
LAYERS = [
    ("suites.axioms_s", None, [("suites", "run_axioms")]),
    ("suites.symmetry_s", None, [("suites", "run_symmetry")]),
    ("suites.dynamics_s", None, [("suites", "run_dynamics")]),
    ("suites.charge_s", None, [("suites", "run_charge")]),
    ("suites.epr_s", None, [("suites", "run_epr")]),
    ("suites.bell_s", None, [("suites", "run_bell")]),
    ("mereology.law_check_s", None, [("suites", "_mereology_law_failures")]),
    ("galilei.structure_s", None, [("galilei", "verify_structure")]),
    ("galilei.grid_rep_s", None, [("galilei", "build_grid_rep")]),
    ("galilei.verify_rep_s", None, [("galilei", "verify_rep")]),
    ("galilei.additive_pair_s", None, [("galilei", "verify_additive_grid_pair")]),
    (
        "grids.operator_s",
        "grids.operator_calls",
        [("grids", "momentum_operator"), ("grids", "kinetic_operator")],
    ),
    ("hilbert.eigh_s", None, [("hilbert", "eigh_phase_fixed")]),
    ("symmetry.projectors_s", None, [("symmetry", "build_projectors")]),
    ("symmetry.permutation_op_s", "symmetry.permutation_ops", [("symmetry", "permutation_operator")]),
    (
        "dynamics.hamiltonian_s",
        None,
        [("dynamics", "build_hamiltonian"), ("dynamics", "build_product_hamiltonian")],
    ),
    ("dynamics.evolve_s", None, [("dynamics", "evolve")]),
    ("dynamics.weak_coupling_s", None, [("dynamics", "weak_coupling_check")]),
    ("dynamics.exchange_s", None, [("dynamics", "exchange_symmetry_residual")]),
    ("dynamics.momentum_s", None, [("dynamics", "momentum_conservation_residual")]),
    ("epr_bell.state_build_s", "epr_bell.state_builds", [("epr_bell", "build_epr_state")]),
    ("epr_bell.pair_check_s", None, [("epr_bell", "commuting_pair_check")]),
    ("epr_bell.inference_s", None, [("epr_bell", "conditional_inference")]),
    ("epr_bell.lhv_mc_s", "epr_bell.lhv_mc_calls", [("epr_bell", "chsh_lhv")]),
]

# Work counted from a wrapped call's argument: function -> (counter, argument).
ARGUMENT_COUNTERS = {
    ("suites", "_mereology_law_failures"): ("mereology.instances", "instances"),
    ("epr_bell", "chsh_lhv"): ("epr_bell.lhv_samples", "n_samples"),
}

# Dense arrays whose construction is counted in bytes: class -> array field.
DENSE_CLASSES = {"Operator": "entries", "StateVector": "amplitudes"}

SERIALIZE_SPAN = "report.serialize_s"

# Metric names of the suite runners' spans, which wrap every other span.
SUITE_PREFIX = "suites."

# Unit of every per-layer metric a traced run reports.
PER_LAYER_UNITS = {
    **{metric: "s" for metric, _, _ in LAYERS},
    **{count: "count" for _, count, _ in LAYERS if count},
    **{counter: "count" for counter, _ in ARGUMENT_COUNTERS.values()},
    "mereology.instances_per_s": "1/s",
    "hilbert.operator_bytes": "computed-bytes",  # from array sizes, not from the allocator
    SERIALIZE_SPAN: "s",
    "report.bytes": "bytes",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}


class Tracer:
    """Collects spans and counters while installed around qsystems calls."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int | None, int]] = []
        self.counters: Counter = Counter()  # (run_id, counter) -> total
        self.run_id = 0
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the enclosed block as a span, child of the innermost open one."""
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.run_id))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index] = (name, self.spans[index][1], time.perf_counter(), parent, self.run_id)

    def _wrap(self, name: str, fn, counted_argument: tuple[str, str] | None):
        signature = inspect.signature(fn) if counted_argument else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counted_argument:
                counter, argument = counted_argument
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counters[self.run_id, counter] += int(bound.arguments.get(argument, 0))
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Swap every listed function, everywhere it is bound, for a wrapper."""
        namespaces = _qsystems_namespaces()
        for metric, _, functions in LAYERS:
            for module, attribute in functions:
                original = getattr(sys.modules[f"qsystems.{module}"], attribute, None)
                if original is None:  # the layer no longer has this function: its metric reads 0
                    print(f"trace: qsystems.{module}.{attribute} not found", file=sys.stderr)
                    continue
                counted = ARGUMENT_COUNTERS.get((module, attribute))
                self._replace(namespaces, original, self._wrap(metric, original, counted))
        hilbert = sys.modules["qsystems.hilbert"]
        for class_name, field in DENSE_CLASSES.items():
            cls = getattr(hilbert, class_name)
            original = cls.__post_init__

            def counted_post_init(obj, _original=original, _field=field):
                _original(obj)
                self.counters[self.run_id, "hilbert.operator_bytes"] += getattr(obj, _field).nbytes

            self._undo.append(functools.partial(setattr, cls, "__post_init__", original))
            cls.__post_init__ = counted_post_init

    def _replace(self, namespaces: list[dict], original, wrapper) -> None:
        for namespace in namespaces:
            for key, value in list(namespace.items()):
                if value is original:
                    self._undo.append(functools.partial(namespace.__setitem__, key, original))
                    namespace[key] = wrapper

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- derived metrics ---------------------------------------------------

    def layer_metrics(self, run_id: int) -> dict[str, float]:
        """Self times, call counts and counters of one traced run."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == run_id]
        child_time: dict[int, float] = defaultdict(float)
        for _, (_, start, end, parent, _) in spans:
            if parent is not None:
                child_time[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, start, end, _, _) in spans:
            self_time[name] += end - start - child_time[i]
            calls[name] += 1
        out: dict[str, float] = {}
        for metric, count_metric, _ in LAYERS:
            out[metric] = self_time[metric]
            if count_metric:
                out[count_metric] = calls[metric]
        out[SERIALIZE_SPAN] = self_time[SERIALIZE_SPAN]
        for counter, _ in (*ARGUMENT_COUNTERS.values(), ("hilbert.operator_bytes", None)):
            out[counter] = self.counters[run_id, counter]
        law_check_s = out["mereology.law_check_s"]
        out["mereology.instances_per_s"] = out["mereology.instances"] / law_check_s if law_check_s else 0.0
        return out

    def spans_as_dicts(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "run_id": r}
            for n, s, e, p, r in self.spans
        ]


def _qsystems_namespaces() -> list[dict]:
    """Module dicts of the loaded qsystems modules and their module-level dicts."""
    out = []
    for name, module in sorted(sys.modules.items()):
        if name == "qsystems" or name.startswith("qsystems."):
            out.append(vars(module))
            out.extend(v for v in vars(module).values() if type(v) is dict)
    return out

