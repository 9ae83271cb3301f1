"""The package's public names, and the names the benchmark under perfbench/
looks up in lph: a cleanup that deletes one of them fails here, not only in
a traced benchmark run."""

import ast
from pathlib import Path

import lph

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

PUBLIC = [
    "PolySystem",
    "parse_poly",
    "jacobian_transpose",
    "LPHProblem",
    "LPHResult",
    "lph_solve",
    "RealWitnessSet",
    "real_witness_set",
    "ParseError",
    # used by perfbench through the package namespace
    "MultiPoly",
    "solve_square",
    "track_path",
]


def _tracer_targets():
    """The tracer's TARGETS tuple, read from its source without importing it."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("TARGETS not found in perfbench/tracer.py")


def test_public_names():
    assert lph.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(lph, name) is not None


def test_every_tracer_target_is_defined_on_its_owner():
    # the tracer reads vars(owner)[attr], so a name inherited or imported
    # elsewhere does not count
    targets = _tracer_targets()
    assert targets
    for module, path in targets:
        owner = getattr(lph, module.split(".", 1)[1])
        *outer, attr = path.split(".")
        for part in outer:
            owner = vars(owner)[part]
        assert callable(vars(owner)[attr]), (module, path)


def test_bindings_the_benchmark_self_test_checks():
    assert lph.solver.track_path is lph.tracker.track_path
    assert lph.start_systems.track_path is lph.tracker.track_path
    assert lph.track_path is lph.tracker.track_path
    assert lph.linalg.lu_factor is lph.tracker.lu_factor is lph.start_systems.lu_factor
    assert vars(lph.MultiPoly)["__radd__"] is vars(lph.MultiPoly)["__add__"]
    assert callable(vars(lph.tracker.SystemEvaluator)["values"])
