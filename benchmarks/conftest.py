"""Shared machinery for the figure-regeneration benchmarks.

Each benchmark runs one of the paper's experiments end-to-end (seeded and
deterministic), prints the figure's rows/series via
:mod:`repro.experiments.figures`, and asserts the *shape* the paper reports
(who wins, in which direction).  Absolute numbers are not compared - the
substrate is a simulator, not the authors' testbed.

Expensive scenario runs are cached per session so that figure pairs sharing
runs (8/9, 11/12) compute once.
"""

from __future__ import annotations

import pytest

from repro.experiments.harness import run_variants
from repro.experiments.scenarios import (
    fig8_scenario,
    fig10_scenario,
    fig11_scenario,
)

_CACHE: dict[str, dict] = {}

#: One shared seed so every figure reproduces the same world.
BENCH_SEED = 42


def scenario_runs(name: str):
    """Run (or fetch) a named scenario's full variant sweep."""
    if name in _CACHE:
        return _CACHE[name]
    if name.startswith("fig8-"):
        scenario = fig8_scenario(name.removeprefix("fig8-"))
    elif name == "fig10":
        scenario = fig10_scenario()
    elif name == "fig11":
        scenario = fig11_scenario()
    else:  # pragma: no cover - defensive
        raise KeyError(name)
    runs = run_variants(
        scenario.make_topology,
        scenario.make_query,
        list(scenario.variants),
        scenario.duration_s,
        scenario.make_dynamics,
        seed=BENCH_SEED,
    )
    _CACHE[name] = runs
    return runs


@pytest.fixture
def bench_once(request):
    """Run a callable exactly once, timed by pytest-benchmark if installed.

    The shape assertions do not depend on the timing, so without the
    plugin the callable simply runs.
    """
    try:
        benchmark = request.getfixturevalue("benchmark")
    except pytest.FixtureLookupError:
        return lambda fn: fn()
    return lambda fn: benchmark.pedantic(fn, rounds=1, iterations=1)
