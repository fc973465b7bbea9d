"""The running package needs numpy and nothing else.

scipy (the exact ILP oracles in ``tests/planner/oracles.py``) is a test
dependency only.  A fresh interpreter proves it: importing the package and
its CLI entry point must not pull scipy or networkx into ``sys.modules``.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

PROBE = """
import sys
import repro
import repro.__main__
leaked = sorted(
    name for name in sys.modules
    if name.split(".")[0] in ("scipy", "networkx")
)
print(",".join(leaked))
"""


def test_import_repro_loads_no_test_only_dependency():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == ""
