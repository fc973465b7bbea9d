"""The behaviour oracle, pinned: the three 450 s recorder digests.

``benchmarks/perf/digest.py`` hashes every recorded sample, adaptation and
fault of three fixed-seed runs (Fig-8 Top-K under WASP, the same run with
15% WAN-monitor error, and a chaos run) at full float precision.  A change
that is meant to keep behaviour bit-identical must leave these constants
alone.  A change that legitimately alters behaviour updates them in the
same change and lists the old and new values in CHANGES.md.
"""

import pytest

from benchmarks.perf.digest import chaos_digest, fig8_digest, noisy_digest

PINNED = {
    "fig8": (
        fig8_digest,
        "618749f594a3e641dc65233797bc87e6a5114c0f2b3f5f50dcdd3c1a56efcb5d",
    ),
    "noisy": (
        noisy_digest,
        "9fcc34c53ae5f5eeee20c8e60cc33055382ce4fc56f3d6d3b597db4cd8c6f0ee",
    ),
    "chaos": (
        chaos_digest,
        "f8fb00876182f2e8aeb0264b705035b22d02ec73393fe639dbdfc6d8a7735655",
    ),
}


@pytest.mark.parametrize("scenario", sorted(PINNED))
def test_recorder_digest_is_pinned(scenario: str) -> None:
    digest_fn, expected = PINNED[scenario]
    assert digest_fn(450.0) == expected
