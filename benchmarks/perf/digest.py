"""Recorder-output digests: the behaviour-preservation oracle.

The hot-path optimization must be invisible to every experiment: a fixed
seed has to produce bit-identical recorder output before and after.  This
module runs three canonical fixed-seed scenarios (the Fig-8 bottleneck run,
the same run with 15% WAN-monitor estimation error, and a chaos-enabled run
with mid-adaptation faults) and hashes every recorded sample, adaptation
and fault event at full float precision.

Compare across commits::

    PYTHONPATH=src python -m benchmarks.perf.digest
"""

from __future__ import annotations

import hashlib

from repro.baselines.variants import wasp
from repro.chaos.faults import BandwidthCollapse, SiteCrash, Straggler
from repro.chaos.injector import ChaosInjector
from repro.config import WaspConfig
from repro.experiments.harness import ExperimentRun
from repro.experiments.scenarios import bottleneck_dynamics, fig8_scenario
from repro.sim.recorder import RunRecorder
from repro.sim.rng import RngRegistry

DIGEST_SEED = 20201207


def recorder_digest(recorder: RunRecorder) -> str:
    """SHA-256 over every sample/adaptation/fault at full float precision.

    ``repr`` of a float is exact (round-trips the IEEE-754 value), so two
    digests match iff the recorded runs are bit-identical.
    """
    h = hashlib.sha256()
    for s in recorder.samples:
        h.update(
            (
                f"{s.t_s!r}|{s.delay_s!r}|{s.processed!r}|{s.offered!r}"
                f"|{s.dropped!r}|{s.parallelism}|{s.extra_slots}\n"
            ).encode()
        )
    for a in recorder.adaptations:
        h.update(f"A|{a.t_s!r}|{a.action}|{a.detail}\n".encode())
    for f in recorder.faults:
        h.update(f"F|{f.t_s!r}|{f.kind}|{f.detail}\n".encode())
    return h.hexdigest()


#: Relative WAN-monitor error of the noisy scenario (as in the alpha
#: ablation): every monitoring round draws one noise factor per link.
NOISY_ESTIMATION_ERROR = 0.15


def _build_run(
    seed: int = DIGEST_SEED, config: WaspConfig | None = None
) -> ExperimentRun:
    scenario = fig8_scenario("topk-topics")
    rngs = RngRegistry(seed)
    topology = scenario.make_topology(rngs)
    query = scenario.make_query(topology, rngs)
    return ExperimentRun(topology, query, wasp(), config=config, rngs=rngs)


def fig8_digest(duration_s: float = 450.0, seed: int = DIGEST_SEED) -> str:
    """Digest of a fixed-seed Fig-8 bottleneck run (WASP variant)."""
    run = _build_run(seed)
    run.run(duration_s, bottleneck_dynamics())
    return recorder_digest(run.recorder)


def noisy_digest(duration_s: float = 450.0, seed: int = DIGEST_SEED) -> str:
    """Digest of the Fig-8 run planned against noisy WAN measurements."""
    config = WaspConfig.paper_defaults().with_overrides(
        estimation_error=NOISY_ESTIMATION_ERROR
    )
    run = _build_run(seed, config)
    run.run(duration_s, bottleneck_dynamics())
    return recorder_digest(run.recorder)


def chaos_digest(duration_s: float = 450.0, seed: int = DIGEST_SEED) -> str:
    """Digest of a fixed-seed chaos-enabled run (site crash + bandwidth
    collapse + straggler + probabilistic flaps on a seeded stream)."""
    run = _build_run(seed)
    injector = (
        ChaosInjector(rng=RngRegistry(seed).stream("chaos"))
        .at(120.0, SiteCrash(site="edge-1", duration_s=45.0))
        .at(
            200.0,
            BandwidthCollapse(
                src="dc-oregon", dst="dc-ohio", factor=0.3, duration_s=60.0
            ),
        )
        .at(300.0, Straggler(site="dc-oregon", slowdown=4.0, duration_s=80.0))
    )
    run.attach_chaos(injector)
    run.run(duration_s, bottleneck_dynamics())
    return recorder_digest(run.recorder)


def main() -> int:
    print(f"fig8  {fig8_digest()}")
    print(f"noisy {noisy_digest()}")
    print(f"chaos {chaos_digest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
