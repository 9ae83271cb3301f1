"""A smoke run of scripts/pair_time.py: one round of one pass against the
committed HEAD, on one seed of each workload, reads a median, an IQR and a
pair count per workload and a fastest pass per sextic seed, with every
operation's check passed on both sides."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

import pair_time  # noqa: E402


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="extracts HEAD from a git checkout")
def test_pair_time_one_round_against_head(capsys):
    summary = pair_time.pair_time("HEAD", rounds=1, passes=1,
                                  runs=[("sextic_witness", 1), ("random_batch", 100)])
    assert summary["failed"] == {"parent": 0, "change": 0}
    assert list(summary["workloads"]) == ["sextic_witness", "random_batch"]
    for row in summary["workloads"].values():
        assert row["parent_median"] > 0 and row["change_median"] > 0
        assert row["parent_iqr"] == 0.0
        assert row["change_lower_in"] in ("0/1", "1/1")
    assert list(summary["fastest_s"]) == ["sextic_witness:1"]
    out = capsys.readouterr().out.splitlines()
    assert out[2].startswith("sextic_witness:1 fastest pass: parent ")
    assert out[2].endswith(", floor 100 ms")
