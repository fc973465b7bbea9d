"""The benchmark's workloads, built from a world seed through the public API.

A workload is a list of :class:`Unit`, each one simulated run.  One *pass*
runs every unit once; the benchmark repeats passes of the same world until
its time is up.  Units never touch engine internals: they call the scenario
builders, ``run_variants`` and ``run_campaign`` exactly as a user of the
package would, with ``WaspConfig.paper_defaults()`` and no engine-backend
choice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable


@dataclass
class RunOutcome:
    """One simulated run: its recorder digest and why it failed, if it did."""

    digest: str
    failure: str | None = None
    #: Invariant evaluations of the run's ``InvariantChecker`` (fuzz only).
    checks: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class Unit:
    """A fixed piece of a pass: ``call`` makes one simulated run."""

    name: str
    call: Callable[[], RunOutcome]


def _variant_unit(scenario, variant, duration_s: float, seed: int) -> Unit:
    from repro.experiments.harness import run_variants
    from repro.fuzz.campaign import recorder_digest

    def call() -> RunOutcome:
        runs = run_variants(
            scenario.make_topology,
            scenario.make_query,
            [variant],
            duration_s,
            scenario.make_dynamics,
            seed=seed,
        )
        return RunOutcome(recorder_digest(runs[variant.name].recorder))

    return Unit(f"{scenario.name}/{variant.name}", call)


def paper16_figures(seed: int, tiny: bool = False) -> list[Unit]:
    """Fig-8 for the three Table-3 queries, Fig-10 and Fig-11: 16 runs."""
    from repro.experiments.scenarios import (
        fig8_scenario,
        fig10_scenario,
        fig11_scenario,
    )

    scenarios = [
        fig8_scenario(q)
        for q in ("ysb-advertising", "topk-topics", "events-of-interest")
    ] + [fig10_scenario(), fig11_scenario()]
    return [
        _variant_unit(sc, v, 60.0 if tiny else sc.duration_s, seed)
        for sc in scenarios
        for v in sc.variants
    ]


def wan64_live(seed: int, tiny: bool = False) -> list[Unit]:
    """Top-K under WASP on a 64-site testbed with Fig-11 live dynamics."""
    from repro.baselines.variants import wasp
    from repro.experiments.scenarios import (
        LIVE_DURATION_S,
        Scenario,
        live_dynamics,
        make_query_by_name,
    )
    from repro.network.traces import TestbedSpec, paper_testbed

    scenario = Scenario(
        name="wan64-live",
        duration_s=LIVE_DURATION_S,
        variants=(wasp(),),
        make_topology=lambda rngs: paper_testbed(
            rngs.stream("topology"), TestbedSpec(edge_count=56)
        ),
        make_query=make_query_by_name("topk-topics"),
        make_dynamics=live_dynamics,
    )
    duration_s = 60.0 if tiny else scenario.duration_s
    return [_variant_unit(scenario, wasp(), duration_s, seed)]


def _fuzz_unit(scenario_seed: int) -> Unit:
    from repro.fuzz.campaign import run_campaign

    def call() -> RunOutcome:
        (result,) = run_campaign(1, base_seed=scenario_seed, jobs=1).results
        failure = "; ".join(
            f"{v.invariant}: {v.detail}" for v in result.violations
        )
        return RunOutcome(result.digest, failure or None, dict(result.checks))

    return Unit(f"fuzz/{scenario_seed}", call)


def fuzz_chaos(seed: int, tiny: bool = False) -> list[Unit]:
    """A 100-scenario ``run_campaign`` on one job, one scenario per unit.

    ``run_campaign(1, base_seed=s)`` gives the same per-seed result as the
    seed's slot in ``run_campaign(100, base_seed=seed)``; splitting lets a
    crash or violation be charged to the one run it belongs to.
    """
    return [_fuzz_unit(seed + i) for i in range(2 if tiny else 100)]


WORKLOADS: dict[str, Callable[[int, bool], list[Unit]]] = {
    "paper16-figures": paper16_figures,
    "wan64-live": wan64_live,
    "fuzz-chaos": fuzz_chaos,
}
