"""Pins chaos at the two adaptation points, for every reconfiguration kind.

The fuzz generator never schedules ``at_point`` faults, so the fuzz report
cannot notice a change in the order of the reconfiguration steps.  This
test can: it crosses re-assign, scale-up, scale-out and scale-down (one
that vacates a site and one that does not) with both
:class:`AdaptationPoint` values, seven faults fired at that point, all four
migration strategies and two state sizes, and hashes everything observable
after the action and again after 20 further ticks.  One sha256 is pinned
per (action, point); any change in what the controller does - or in when
it fires the points - moves it.

The world is ``build_manager``'s three-site query, warmed for 30 ticks and
checkpointed, built afresh for each case.
"""

import hashlib

import numpy as np
import pytest

from repro.chaos import (
    BandwidthCollapse,
    ChaosInjector,
    ChaosTarget,
    CheckpointLoss,
    SiteCrash,
    SlotRevocation,
    Straggler,
)
from repro.core.actions import ReassignAction, ScaleAction, ScaleDownAction
from repro.core.migration import MigrationStrategy
from repro.core.transaction import AdaptationPoint

from .test_transaction import build_manager

#: action name -> (action, (source site, destination site), start placement
#: of "agg" or None for the single task at dc-1).
ACTIONS = {
    "reassign": (
        ReassignAction("agg", "pin", {"dc-2": 1}), ("dc-1", "dc-2"), None
    ),
    "scale-up": (
        ScaleAction("agg", "pin", 2, {"dc-1": 2}, cross_site=False),
        ("dc-1", "dc-2"),
        None,
    ),
    "scale-out": (
        ScaleAction("agg", "pin", 2, {"dc-1": 1, "dc-2": 1}, cross_site=True),
        ("dc-1", "dc-2"),
        None,
    ),
    "scale-down-vacate": (
        ScaleDownAction("agg", "pin", "dc-2"),
        ("dc-2", "dc-1"),
        {"dc-1": 2, "dc-2": 1},
    ),
    "scale-down-keep": (
        ScaleDownAction("agg", "pin", "dc-1"),
        ("dc-1", "dc-2"),
        {"dc-1": 2, "dc-2": 1},
    ),
}

FAULTS = (
    "none",
    "crash-source",
    "crash-destination",
    "bandwidth-collapse",
    "checkpoint-loss",
    "slot-revocation",
    "straggler",
)

PINS = {
    ("reassign", AdaptationPoint.MIGRATION_IN_FLIGHT): (
        "5103a05eb6364b4535242cbc724f4eea7d9dd2c275ee3324e8343babef4f972a"
    ),
    ("reassign", AdaptationPoint.BETWEEN_SUSPEND_RESUME): (
        "c838faa177455929c308a767ec6b52058e007345e77ad5309d89211f55aa0cbc"
    ),
    ("scale-up", AdaptationPoint.MIGRATION_IN_FLIGHT): (
        "df118a45995611f0438820fcb4652635e2fd5064f9d5c354f614bfd2c8056b90"
    ),
    ("scale-up", AdaptationPoint.BETWEEN_SUSPEND_RESUME): (
        "ea9a2cd657f093ba6446bd02db1c6676585fd01281a1a8227f3846ba57fe065d"
    ),
    ("scale-out", AdaptationPoint.MIGRATION_IN_FLIGHT): (
        "10d5ca5f708891c66effe86d9d8176bdf785d2266251223ef421a49bb3d02916"
    ),
    ("scale-out", AdaptationPoint.BETWEEN_SUSPEND_RESUME): (
        "edbeab8094430997b1dc22bcd0a20b4dea486b42a5bca1472c6dded00ac1f2cd"
    ),
    ("scale-down-vacate", AdaptationPoint.MIGRATION_IN_FLIGHT): (
        "5ace0bc7614bc4150c31311da482dd2b482b308487da45d2623aaae128b44367"
    ),
    ("scale-down-vacate", AdaptationPoint.BETWEEN_SUSPEND_RESUME): (
        "5ace0bc7614bc4150c31311da482dd2b482b308487da45d2623aaae128b44367"
    ),
    ("scale-down-keep", AdaptationPoint.MIGRATION_IN_FLIGHT): (
        "ea601e3b37753100970cbe1e80d2b91b4669f280d29ece0456c4577a3606519e"
    ),
    ("scale-down-keep", AdaptationPoint.BETWEEN_SUSPEND_RESUME): (
        "ea601e3b37753100970cbe1e80d2b91b4669f280d29ece0456c4577a3606519e"
    ),
}


def _fault(name, src, dst):
    return {
        "crash-source": SiteCrash(src),
        "crash-destination": SiteCrash(dst),
        "bandwidth-collapse": BandwidthCollapse(src, dst, 0.0),
        "checkpoint-loss": CheckpointLoss(src),
        "slot-revocation": SlotRevocation(dst, 8),
        "straggler": Straggler(dst, 4.0),
    }[name]


def _make_topology():
    from repro.network.site import Site, SiteKind
    from repro.network.topology import Topology

    topo = Topology(
        [
            Site("edge-x", SiteKind.EDGE, 4),
            Site("dc-1", SiteKind.DATA_CENTER, 8),
            Site("dc-2", SiteKind.DATA_CENTER, 8),
        ]
    )
    for a, b, mbps, ms in (
        ("edge-x", "dc-1", 10.0, 50.0),
        ("dc-1", "dc-2", 100.0, 20.0),
        ("edge-x", "dc-2", 5.0, 70.0),
    ):
        topo.set_link(a, b, mbps, ms)
        topo.set_link(b, a, mbps, ms)
    return topo


def _warm_world(state_mb, start):
    """A fresh manager after 30 ticks and a checkpoint."""
    manager = build_manager(_make_topology(), state_mb=state_mb)
    if start is not None:
        stage = manager.runtime.plan.stage("agg")
        manager.scheduler.apply_assignment(stage, start)
        manager.state_store.rebalance("agg", [t.site for t in stage.tasks])
    for _ in range(30):
        manager.runtime.tick()
    manager.checkpoints.checkpoint_all(manager.runtime.now_s)
    return manager


def _observe(manager):
    runtime = manager.runtime
    snap = runtime.mutation_snapshot()
    queues = [
        (name, sorted(
            (key, [(p.count, p.gen_time_s) for p in q.parcels()])
            for key, q in table.items()
        ))
        for name, table in (
            ("gen", snap.gen_queue),
            ("input", snap.input_queue),
            ("net", snap.net_queue),
        )
    ]
    return repr((
        manager.attempt_log,
        manager.history,
        {
            name: sorted(stage.placement().items())
            for name, stage in runtime.plan.stages.items()
        },
        [(s.name, s.used_slots, s.total_slots) for s in runtime.topology],
        queues,
        sorted(snap.suspended_until.items()),
        sorted(manager.checkpoints.snapshot_records().items()),
        sorted(
            (name, [(p.site, p.size_mb) for p in parts])
            for name, parts in manager.state_store.snapshot().items()
        ),
        manager.state_lost_mb,
    ))


def _run_case(action_name, point, fault_name, strategy, state_mb):
    """Observables of one case, and the adaptation points it reached."""
    action, (src, dst), start = ACTIONS[action_name]
    manager = _warm_world(state_mb, start)
    manager.migration_strategy = strategy
    reached = set()
    manager.adaptation_hook = lambda p, stage, now_s: reached.add(p)
    if fault_name != "none":
        injector = ChaosInjector(rng=np.random.default_rng(0))
        injector.at_point(point, _fault(fault_name, src, dst))
        injector.attach(
            ChaosTarget(manager.runtime.topology, manager.checkpoints),
            manager=manager,
        )
    manager.execute(action, manager.runtime.now_s)
    after_action = _observe(manager)
    for _ in range(20):
        manager.runtime.tick()
    reached = sorted(p.value for p in reached)
    return f"{after_action}{_observe(manager)}{reached}", reached


def _digest(action_name, point):
    """sha256 over every case of the cross for one (action, point).

    A run is deterministic up to the moment its fault fires, so when the
    fault-free run never reaches ``point`` no fault at ``point`` can fire
    either, and each faulted case equals the fault-free one; those cases
    are hashed without being re-run.
    """
    h = hashlib.sha256()
    for state_mb in (100.0, 0.0):
        for strategy in MigrationStrategy:
            clean, reached = _run_case(
                action_name, point, "none", strategy, state_mb
            )
            h.update(clean.encode())
            for fault_name in FAULTS[1:]:
                if point.value in reached:
                    case, _ = _run_case(
                        action_name, point, fault_name, strategy, state_mb
                    )
                else:
                    case = clean
                h.update(case.encode())
    return h.hexdigest()


@pytest.mark.parametrize(
    "action_name,point",
    sorted(PINS, key=lambda k: (k[0], k[1].value)),
    ids=lambda v: v.value if isinstance(v, AdaptationPoint) else v,
)
def test_reconfiguration_at_point_is_pinned(action_name, point):
    assert _digest(action_name, point) == PINS[(action_name, point)]


@pytest.mark.xfail(
    strict=True,
    reason="ReconfigurationManager._verify never checks a transfer's "
    "source, so a re-assign whose source crashes mid-migration commits "
    "as primary with the whole state at the destination",
)
def test_crashed_source_does_not_deliver_its_state():
    manager = _warm_world(100.0, None)
    injector = ChaosInjector(rng=np.random.default_rng(0))
    injector.at_point(AdaptationPoint.MIGRATION_IN_FLIGHT, SiteCrash("dc-1"))
    injector.attach(
        ChaosTarget(manager.runtime.topology, manager.checkpoints),
        manager=manager,
    )
    manager.execute(
        ReassignAction("agg", "pin", {"dc-2": 1}), manager.runtime.now_s
    )
    delivered_mb = manager.state_store.mb_at_site("agg", "dc-2")
    assert manager.state_lost_mb > 0 or delivered_mb < 100.0
