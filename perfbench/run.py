"""The repo benchmark: one command, three workloads, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper16-figures --seed 1 \\
        --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``paper16-figures``, ``wan64-live`` and
``fuzz-chaos``.  Each is a closed loop: simulated ticks run back to back,
one process, one thread.  ``--trace 0`` runs untraced and prints the
end-to-end metrics; ``--trace 1`` runs a traced measurement and prints the
per-layer metrics.  The metric names and units are those of
``BENCHMARK.json``; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``setup_s`` is measured from spawning a fresh interpreter to its first
tick: ``import repro``, world build and initial deployment.  Several fresh
processes are timed and the median reported.

A run fails when it raises, when the fuzz ``InvariantChecker`` reports a
violation or the checked/unchecked replay digests differ, or when two
passes of the same seed in one invocation disagree on a recorder digest.
Failures count against ``attempted``; the benchmark keeps going.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: Per workload: the default world seed, a held-out confirmation seed and
#: why each was chosen.
SEEDS = json.loads((HERE / "seeds.json").read_text())
#: Fresh processes timed for ``setup_s``.
SETUP_PROBES = 5
#: Every child process must have ended this long after the start.
BUDGET_S = 175.0
OUT_DIR = ".perfbench_out"
#: Workloads run on one thread.  numpy's BLAS pool would otherwise start
#: a thread per core; on two cores those threads contend with the
#: interpreter and made 64-site step times vary by up to 1.7x run to run.
ONE_THREAD = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def spawn(root: Path, argv: list[str], deadline: float) -> tuple[dict, float]:
    """Run ``worker.py`` in a fresh interpreter; returns (result, spawn time).

    A worker still running at ``deadline`` (monotonic) is killed.
    """
    env = dict(os.environ, **ONE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    spawned_at = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *argv],
        cwd=root,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(0.0, deadline - spawned_at),
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {argv} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned_at


def metric_specs(root: Path, trace: bool) -> dict[str, str]:
    bench = json.loads((root / "BENCHMARK.json").read_text())
    section = bench["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=sorted(SEEDS))
    parser.add_argument(
        "--seed",
        type=int,
        required=True,
        help="orders the units within each pass",
    )
    parser.add_argument(
        "--world-seed",
        type=int,
        default=None,
        help="seed of every simulated input; defaults to the workload's "
        "world_seed in seeds.json (its confirmation_seed is held out)",
    )
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="shrink every workload to a smoke-test size (for the tests)",
    )
    args = parser.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        return fail(f"no src/repro package under {root}; run from a checkout")
    if not (root / "BENCHMARK.json").is_file():
        return fail(f"no BENCHMARK.json under {root}")
    specs = metric_specs(root, bool(args.trace))

    world_seed = (
        SEEDS[args.workload]["world_seed"]
        if args.world_seed is None
        else args.world_seed
    )
    base = [
        "--workload", args.workload,
        "--world-seed", str(world_seed),
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ] + (["--tiny"] if args.tiny else [])
    try:
        if args.trace:
            result, _ = spawn(
                root,
                base + ["--mode", "trace", "--out-dir", str(root / OUT_DIR)],
                deadline,
            )
            metrics = result["per_layer"]
        else:
            setup: list[float] = []
            for _ in range(1 if args.tiny else SETUP_PROBES):
                probe, at = spawn(root, base + ["--mode", "setup"], deadline)
                setup.append(probe["first_step_at"] - at)
            result, _ = spawn(root, base + ["--mode", "run"], deadline)
            metrics = {
                "setup_s": statistics.median(setup),
                "sim_ticks_per_s": result["ticks"] / result["run_wall_s"],
                "step_ms_p50": result["step_ms_p50"],
                "step_ms_p99": result["step_ms_p99"],
                "round_ms_p50": result["round_ms_p50"],
                "peak_rss_mb": result["peak_rss_mb"],
                "sim_delay_p95_s": result["sim_delay_p95_s"],
                "sim_processed_fraction": result["sim_processed_fraction"],
            }
    except (
        RuntimeError,
        subprocess.TimeoutExpired,
        IndexError,
        KeyError,
        ValueError,
    ) as exc:
        return fail(f"{args.workload}: {type(exc).__name__}: {exc}")

    if set(metrics) != set(specs):
        return fail(
            "metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(specs) - set(metrics))}, "
            f"extra {sorted(set(metrics) - set(specs))}"
        )

    attempted, failed = result["attempted"], result["failed"]
    print(
        f"workload {args.workload} world_seed {world_seed} seed {args.seed} "
        f"trace {args.trace}"
    )
    print(f"recorder digest {result['digest']} ({result['passes']} passes)")
    if not args.trace:
        print(
            f"samples: setup {len(setup)}, steps {result['steps_timed']}, "
            f"rounds {result['rounds_timed']}"
        )
    if not args.trace:
        walls = ", ".join(f"{w:.3f}" for w in result["pass_walls_s"])
        print(f"pass walls (s): {walls}")
    print(f"failed_run_share {failed / attempted:.6f} ({failed}/{attempted} runs)")
    for line in result["failures"]:
        print(f"  failed: {line}")
    for name in specs:
        print(f"{name} {metrics[name]!r} {specs[name]}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": specs[name]}
                    for name in specs
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
