"""Pinned fuzz fixtures: every invariant class stays green and exercised.

Each JSON fixture under ``fixtures/`` is a shrunk scenario (see
``regen_fixtures.py``) pinned because it *exercises* one invariant class -
the checker demonstrably evaluates that invariant at least once - while
staying violation-free.  Replaying them asserts both halves: the shipped
engine still satisfies every invariant on these scenarios, and the
checker's scoped gates still reach each check (a refactor that silently
stops a check from ever firing fails here, not in production).

Regenerate after intentional engine-behavior changes with
``PYTHONPATH=src python tests/fuzz/regen_fixtures.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.fuzz.campaign import load_artifact, run_campaign, run_scenario
from repro.fuzz.invariants import INVARIANTS

FIXTURE_DIR = Path(__file__).parent / "fixtures"
FIXTURES = sorted(FIXTURE_DIR.glob("*.json"))


def test_fixture_set_is_complete():
    """One fixture per pinnable invariant class.

    ``replay-digest`` and ``crash`` have no clean fixture by construction
    (they only exist as violations), but every checker-evaluated class
    must be pinned.
    """
    pinned = {path.stem for path in FIXTURES}
    expected = set(INVARIANTS) - {"replay-digest", "crash"}
    assert pinned == expected


@pytest.mark.parametrize(
    "path", FIXTURES, ids=[path.stem for path in FIXTURES]
)
def test_fixture_replays_clean_and_exercised(path):
    spec, payload = load_artifact(path)
    invariant = payload["invariant"]
    assert invariant == path.stem
    result = run_scenario(spec)  # includes the digest-determinism replay
    assert result.ok, (
        f"pinned scenario now violates invariants: "
        f"{[v.to_dict() for v in result.violations]}"
    )
    assert result.checks.get(invariant, 0) > 0, (
        f"checker no longer exercises {invariant!r} on its pinned scenario"
    )


def test_fixtures_are_normalized_json():
    """Artifacts stay byte-stable under the writer's canonical formatting,
    so regeneration produces clean diffs."""
    for path in FIXTURES:
        payload = json.loads(path.read_text())
        canonical = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert path.read_text() == canonical, path.name


@pytest.mark.parametrize("seed", [2039, 3005])
def test_scale_law_bound_follows_the_diagnosis(seed):
    """The scale-law bound is the formula the policy applied.

    Seed 3005 commits a compute-bound scale that lands on a new site (a
    "scale out" obeying the DS2 bound); seed 2039 commits a network-bound
    scale that stays on its sites (a "scale up" obeying the link-deficit
    bound).  Choosing the bound by action kind flags both as violations.
    """
    report = run_campaign(1, base_seed=seed)
    assert report.ok, [
        v.to_dict() for r in report.results for v in r.violations
    ]
    assert report.checks().get("scale-law", 0) > 0
