"""The committed topology-scale sweep, re-run: its simulated fingerprints.

``BENCH_scale.json`` records, next to each point's wall-clock rate, two
fingerprints of the simulated state after the measured ticks: the total
backlog and the last tick's sink events.  They depend only on the seeded
world, so an engine change that claims to keep behaviour must reproduce
them bit for bit.  The 4- and 16-site points (180-230 ticks each) run
here; the 64- and 128-site ones are too slow for tier-1 and stay with the
sweep itself.
"""

import json
from pathlib import Path

import pytest

from benchmarks.perf.scale import _WARMUP_TICKS, run_point

BENCH = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCH_scale.json").read_text()
)
POINTS = [p for p in BENCH["points"] if p["sites"] in (4, 16)]


def test_committed_sweep_is_a_full_sweep():
    assert not BENCH["short"]
    assert sorted((p["sites"], p["parallelism"]) for p in POINTS) == [
        (4, 1), (4, 2), (16, 1), (16, 2)
    ]


@pytest.mark.parametrize(
    "point", POINTS, ids=lambda p: f"{p['sites']}sites-p{p['parallelism']}"
)
def test_fingerprints_match_the_committed_point(point):
    result = run_point(
        point["sites"],
        point["parallelism"],
        _WARMUP_TICKS,
        point["ticks"],
        BENCH["seed"],
    )
    assert result["total_backlog"] == point["total_backlog"]
    assert result["sink_events"] == point["sink_events"]
