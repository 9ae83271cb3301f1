import pytest

import lph.solver
import lph.start_systems
import lph.tracker


@pytest.fixture
def tracked_paths(monkeypatch):
    """Every path tracked while the test runs, as (pair, start, PathResult)
    in the order the stages return them.  Each lph binding of
    ``track_stage``, the stage loop that ``track_path`` runs too, records
    its stages."""
    paths = []
    original = lph.tracker.track_stage

    def recording(H, starts):
        starts = list(starts)
        results = original(H, starts)
        paths.extend(zip([H] * len(starts), starts, results))
        return results

    for module in (lph.tracker, lph.start_systems, lph.solver):
        monkeypatch.setattr(module, "track_stage", recording)
    return paths
