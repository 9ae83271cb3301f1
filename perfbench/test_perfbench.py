"""Self-tests of the benchmark: the tracer and the host speed sampler restore
what they patch, traced counts repeat exactly, and the sextic ledger matches
criterion 2.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import lph  # noqa: E402
from layers import UNITS, layer_metrics  # noqa: E402
from tracer import Tracer, _namespaces  # noqa: E402
from worker import SAMPLE_PERIOD_S, HostSampler  # noqa: E402
from workloads import build_problems, build_setup, load_reference, operations  # noqa: E402


def _bindings():
    return {(id(space), attr): value
            for space in _namespaces() for attr, value in vars(space).items()}


def test_tracer_replaces_every_binding_and_restores_it():
    before = _bindings()
    original = lph.tracker.track_path
    tracer = Tracer()
    with tracer:
        pass
    with tracer:
        # the by-value imports in solver and start_systems are wrapped too
        assert lph.solver.track_path is not original
        assert lph.start_systems.track_path is lph.tracker.track_path
        assert lph.track_path is lph.tracker.track_path
        assert lph.linalg.lu_factor is lph.tracker.lu_factor is lph.start_systems.lu_factor
        # aliases on a class are wrapped with their method
        assert vars(lph.MultiPoly)["__radd__"] is vars(lph.MultiPoly)["__add__"]
        assert hasattr(lph.tracker.SystemEvaluator.values, "__wrapped__")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_tracer_restores_after_an_exception():
    before = _bindings()
    with pytest.raises(ZeroDivisionError):
        with Tracer():
            1 / 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_host_sampler_samples_and_restores_the_timer():
    handler = signal.getsignal(signal.SIGALRM)
    host = HostSampler()
    with host:
        t_end = time.perf_counter() + 5 * SAMPLE_PERIOD_S
        while time.perf_counter() < t_end:
            pass
    assert len(host.samples) >= 3
    assert 0 < sum(host.samples) <= host.busy
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler


def test_references_match_their_systems():
    problems = build_problems(lph)
    assert len(load_reference(problems)) == len(problems)


def test_per_layer_metrics_match_benchmark_json():
    doc = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(UNITS.items())


def _traced_pass(name, seed):
    with Tracer() as tracer:
        ops = operations(name, seed, build_setup(name, lph), lph)
        outcomes = [op.check(op.call()) for op in ops]
    assert all(o.ok for o in outcomes), [o.detail for o in outcomes]
    return layer_metrics(tracer.spans())


def test_sextic_ledger_is_exact_and_repeats():
    first = _traced_pass("sextic_witness", 7)
    second = _traced_pass("sextic_witness", 7)
    counts = [k for k, unit in UNITS.items() if unit == "count"]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    # criterion 2 and stage 1 of criterion 1
    assert first["solver.h2_paths.Converged"] == 6
    assert first["solver.h2_paths.Divergent"] == 2
    assert first["solver.h2_paths.Failed"] == 22
    assert first["solver.h1_paths"] == 30
    assert first["start_systems.witness_paths"] == 12
    by_stage = (first["start_systems.witness_paths"] + first["solver.h1_paths"]
                + sum(first[f"solver.h2_paths.{s}"] for s in ("Converged", "Divergent", "Failed")))
    assert by_stage == first["tracker.paths"]
    assert first["poly.parse_s"] > 0
