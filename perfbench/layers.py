"""Reduce the tracer's spans to the per-layer metrics, named after the
``lph`` modules.

Times are inclusive span times summed over calls.  No traced function of
one group below calls another of the same group, so no time is counted
twice within a metric.  A ``track_path`` span belongs to a stage by its
parent span: ``solve_square`` is the witness stage, ``h1_track`` is H1 and
``lph_solve`` is H2.
"""

from __future__ import annotations

import numpy as np

from tracer import NONE, PATH_STATUSES, RAISED, SINGULAR

ARITH = ("MultiPoly.__mul__", "MultiPoly.__add__", "MultiPoly.lift",
         "MultiPoly.differentiate")
BUILD = ("normalize", "build_G", "LPHProblem.full_system",
         "NormalizedProblem.normalized_full_system")
# children of lph_solve that belong to a stage before H2
PRE_H2 = ("witness_points", "h1_track", "backsolve_lambda") + BUILD

# metric name -> unit, in report order
UNITS = {}
for _name in ("poly.parse_s", "poly.arith_s", "linalg.factor_s", "linalg.solve_s",
              "tracker.compile_s", "tracker.values_s", "tracker.jacobian_s",
              "tracker.magnitude_s", "tracker.newton_s", "tracker.tangent_s",
              "tracker.path_s", "tracker.path_s_max", "start_systems.witness_s",
              "start_systems.refine_s", "solver.build_s", "solver.h1_s",
              "solver.backsolve_s", "solver.h2_s", "witness.critical_stage_s",
              "witness.square_stage_s", "witness.filter_s", "witness.rank_check_s"):
    UNITS[_name] = "s"
for _name in ("poly.arith_calls", "linalg.factor_calls", "linalg.solve_calls",
              "linalg.singular", "tracker.compile_calls", "tracker.values_calls",
              "tracker.jacobian_calls", "tracker.magnitude_calls", "tracker.newton_calls",
              "tracker.newton_failed", "tracker.tangent_calls", "tracker.paths",
              "tracker.steps", "start_systems.witness_paths", "start_systems.refine_calls",
              "start_systems.refine_rejected", "solver.h1_paths"):
    UNITS[_name] = "count"
for _name in ("tracker.converged_ratio", "tracker.lost_path_s_share"):
    UNITS[_name] = "ratio"
for _status in PATH_STATUSES:
    UNITS[f"solver.h2_paths.{_status}"] = "count"
    UNITS[f"solver.h2_path_s.{_status}"] = "s"
    UNITS[f"solver.h2_steps.{_status}"] = "count"
UNITS["trace_overhead"] = "ratio"


def layer_metrics(spans) -> dict:
    """Per-layer metric values (without ``trace_overhead``) of one traced
    pass."""
    index = {n: i for i, n in enumerate(spans.names)}
    name = np.array(spans.name, dtype=np.int64)
    parent = np.array(spans.parent, dtype=np.int64)
    dur = np.array(spans.end, dtype=float) - np.array(spans.start, dtype=float)
    outcome = np.array(spans.outcome, dtype=np.int64)
    steps = np.array(spans.steps, dtype=np.int64)
    parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)

    def mask(*names):
        return np.isin(name, [index[n] for n in names])

    def under(*names):
        return np.isin(parent_name, [index[n] for n in names])

    def calls(*names):
        return int(mask(*names).sum())

    def secs(m):
        return float(dur[m].sum())

    m = {}
    m["poly.parse_s"] = secs(mask("parse") | (mask("parse_poly") & ~under("parse")))
    m["poly.arith_calls"] = calls(*ARITH)
    m["poly.arith_s"] = secs(mask(*ARITH))

    factor = mask("lu_factor")
    m["linalg.factor_calls"] = int(factor.sum())
    m["linalg.factor_s"] = secs(factor)
    m["linalg.solve_calls"] = calls("lu_solve_factored")
    m["linalg.solve_s"] = secs(mask("lu_solve_factored"))
    m["linalg.singular"] = int((factor & (outcome == SINGULAR)).sum())

    m["tracker.compile_calls"] = calls("SystemEvaluator.__init__")
    m["tracker.compile_s"] = secs(mask("SystemEvaluator.__init__"))
    for kind in ("values", "jacobian", "magnitude"):
        m[f"tracker.{kind}_calls"] = calls(f"SystemEvaluator.{kind}")
        m[f"tracker.{kind}_s"] = secs(mask(f"SystemEvaluator.{kind}"))
    newton = mask("newton_correct")
    m["tracker.newton_calls"] = int(newton.sum())
    m["tracker.newton_s"] = secs(newton)
    m["tracker.newton_failed"] = int((newton & np.isin(outcome, [RAISED, SINGULAR])).sum())
    m["tracker.tangent_calls"] = calls("davidenko_rhs")
    m["tracker.tangent_s"] = secs(mask("davidenko_rhs"))

    path = mask("track_path")
    converged = path & (outcome == 10 + PATH_STATUSES.index("Converged"))
    m["tracker.paths"] = int(path.sum())
    m["tracker.steps"] = int(steps[path].sum())
    m["tracker.path_s"] = secs(path)
    m["tracker.path_s_max"] = float(dur[path].max()) if path.any() else 0.0
    m["tracker.converged_ratio"] = (float(converged.sum()) / path.sum()) if path.any() else 0.0
    m["tracker.lost_path_s_share"] = (secs(path & ~converged) / m["tracker.path_s"]
                                      if m["tracker.path_s"] > 0 else 0.0)

    refine = mask("refine_on")
    m["start_systems.witness_s"] = secs(mask("witness_points"))
    m["start_systems.witness_paths"] = int((path & under("solve_square")).sum())
    m["start_systems.refine_calls"] = int(refine.sum())
    m["start_systems.refine_rejected"] = int((refine & (outcome == NONE)).sum())
    m["start_systems.refine_s"] = secs(refine)

    m["solver.build_s"] = secs(mask(*BUILD))
    m["solver.h1_s"] = secs(mask("h1_track"))
    m["solver.h1_paths"] = int((path & under("h1_track")).sum())
    m["solver.backsolve_s"] = secs(mask("backsolve_lambda"))
    m["solver.h2_s"] = secs(mask("lph_solve")) - secs(mask(*PRE_H2) & under("lph_solve"))
    h2 = path & under("lph_solve")
    for i, status in enumerate(PATH_STATUSES):
        sel = h2 & (outcome == 10 + i)
        m[f"solver.h2_paths.{status}"] = int(sel.sum())
        m[f"solver.h2_path_s.{status}"] = secs(sel)
        m[f"solver.h2_steps.{status}"] = int(steps[sel].sum())

    m["witness.critical_stage_s"] = secs(mask("lph_solve") & under("real_witness_set"))
    m["witness.square_stage_s"] = secs(mask("solve_square") & under("real_witness_set"))
    m["witness.filter_s"] = secs(mask("real_filter"))
    m["witness.rank_check_s"] = secs(mask("full_rank_check"))
    return m
