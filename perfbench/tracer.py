"""Outside-in tracer for lph: wraps public functions and methods of the
``lph.*`` modules in spans, without changing any file of the package.

Modules such as ``solver`` import names by value (``from .tracker import
track_path``), so replacing a function in its home module alone would miss
those call sites.  The tracer therefore replaces every binding of the
original function object in every loaded ``lph.*`` module and in the
namespace of every ``lph`` class (which also catches aliases such as
``__radd__ = __add__``), and puts each original back on exit.

A span is (name, parent span, start, end, outcome).  Spans are kept in
flat arrays in memory; ``Tracer.spans`` hands them out when tracing ends.
"""

from __future__ import annotations

import sys
import time
from array import array
from dataclasses import dataclass

# (module, attribute path) of every traced callable, by layer.
TARGETS = (
    ("lph.poly", "parse"),
    ("lph.poly", "parse_poly"),
    ("lph.poly", "MultiPoly.__mul__"),
    ("lph.poly", "MultiPoly.__add__"),
    ("lph.poly", "MultiPoly.lift"),
    ("lph.poly", "MultiPoly.differentiate"),
    ("lph.linalg", "lu_factor"),
    ("lph.linalg", "lu_solve_factored"),
    ("lph.tracker", "SystemEvaluator.__init__"),
    ("lph.tracker", "SystemEvaluator.values"),
    ("lph.tracker", "SystemEvaluator.jacobian"),
    ("lph.tracker", "SystemEvaluator.magnitude"),
    ("lph.tracker", "newton_correct"),
    ("lph.tracker", "davidenko_rhs"),
    ("lph.tracker", "track_path"),
    ("lph.start_systems", "witness_points"),
    ("lph.start_systems", "solve_square"),
    ("lph.start_systems", "refine_on"),
    ("lph.solver", "normalize"),
    ("lph.solver", "build_G"),
    ("lph.solver", "LPHProblem.full_system"),
    ("lph.solver", "NormalizedProblem.normalized_full_system"),
    ("lph.solver", "h1_track"),
    ("lph.solver", "backsolve_lambda"),
    ("lph.solver", "lph_solve"),
    ("lph.witness", "real_witness_set"),
    ("lph.witness", "real_filter"),
    ("lph.witness", "full_rank_check"),
)

# outcome codes
OK = 0
RAISED = 1        # the call raised (any exception)
SINGULAR = 2      # the call raised lph.linalg.SingularMatrixError
NONE = 3          # the call returned None (refine_on rejected the point)
# track_path outcomes: 10 + index of the status in PATH_STATUSES
PATH_STATUSES = ("Converged", "Divergent", "Failed")


@dataclass
class Spans:
    """Finished spans in call-start order.  Span ``i`` has name
    ``names[name[i]]``, parent span ``parent[i]`` (-1 at top level) and,
    for ``track_path``, ``steps[i]`` steps taken."""

    names: tuple
    name: array
    parent: array
    start: array
    end: array
    outcome: array
    steps: array


def _resolve(module, path):
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _namespaces():
    """Every module dict and class of the loaded lph package."""
    mods = [m for name, m in sorted(sys.modules.items())
            if (name == "lph" or name.startswith("lph.")) and m is not None]
    spaces = list(mods)
    for m in mods:
        for value in vars(m).values():
            if isinstance(value, type) and value.__module__.startswith("lph"):
                if value not in spaces:
                    spaces.append(value)
    return spaces


class Tracer:
    """Context manager: patches the targets on enter, restores on exit.
    It may be entered again; the spans of all entries accumulate."""

    def __init__(self):
        self._names = tuple(path for _, path in TARGETS)
        self._patched = []  # (namespace, attribute, original)
        self._stack = [-1]
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._outcome = array("b")
        self._steps = array("i")

    def __enter__(self):
        import lph  # noqa: F401  (loads every lph module)
        from lph.linalg import SingularMatrixError

        self._singular = SingularMatrixError
        wrappers = {}
        for idx, (module, path) in enumerate(TARGETS):
            owner, attr = _resolve(module, path)
            original = vars(owner)[attr]
            wrappers[id(original)] = (original, self._wrap(original, idx))
        try:
            for space in _namespaces():
                for attr, value in list(vars(space).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        setattr(space, attr, hit[1])
                        self._patched.append((space, attr, value))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._patched:
            space, attr, original = self._patched.pop()
            setattr(space, attr, original)

    def _wrap(self, fn, idx):
        stack = self._stack
        name_a, parent_a = self._name, self._parent
        start_a, end_a = self._start, self._end
        outcome_a, steps_a = self._outcome, self._steps
        singular = self._singular
        clock = time.perf_counter
        is_path = self._names[idx] == "track_path"

        def wrapper(*args, **kwargs):
            sid = len(name_a)
            name_a.append(idx)
            parent_a.append(stack[-1])
            end_a.append(0.0)
            outcome_a.append(OK)
            steps_a.append(0)
            stack.append(sid)
            start_a.append(clock())
            try:
                result = fn(*args, **kwargs)
            except singular:
                end_a[sid] = clock()
                outcome_a[sid] = SINGULAR
                raise
            except BaseException:
                end_a[sid] = clock()
                outcome_a[sid] = RAISED
                raise
            else:
                end_a[sid] = clock()
                if result is None:
                    outcome_a[sid] = NONE
                elif is_path:
                    outcome_a[sid] = 10 + PATH_STATUSES.index(result.status)
                    steps_a[sid] = result.steps_taken
                return result
            finally:
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__name__)
        return wrapper

    def spans(self) -> Spans:
        return Spans(self._names, self._name, self._parent, self._start, self._end,
                     self._outcome, self._steps)
