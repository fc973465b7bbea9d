"""The noisy recorder-digest scenario must actually reach monitor noise.

``benchmarks/perf/digest.py`` pins behaviour with fixed-seed recorder
digests; its ``noisy`` scenario is the one that plans against a WAN monitor
with estimation error, so it is the digest that guards the monitor's noise
draws.  It only does so if the noise changes what the controller does.
"""

from benchmarks.perf.digest import fig8_digest, noisy_digest

DURATION_S = 300.0


def test_noise_changes_the_run() -> None:
    """Same world, seed and dynamics; only the estimation error differs."""
    assert noisy_digest(DURATION_S) != fig8_digest(DURATION_S)


def test_noisy_run_is_deterministic() -> None:
    assert noisy_digest(DURATION_S) == noisy_digest(DURATION_S)
