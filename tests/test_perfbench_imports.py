"""The benchmark harness in ``perfbench/`` can still import and patch ``repro``.

``perfbench/`` is the benchmark of record and changes on its own schedule,
so a change under ``src/`` must not break what it imports or the layer
entry points it wraps.  This runs the harness's own start-up path the way
``perfbench/run.py`` starts a worker: in a fresh interpreter with every
``REPRO_*`` variable removed.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

SCRIPT = textwrap.dedent(
    """
    import sys

    perfbench, src = sys.argv[1], sys.argv[2]
    sys.path[:0] = [perfbench, src]
    sys.argv = ["worker.py", "0"]

    import layers
    import spans
    import worker

    info = worker.environment()
    assert info["problems"] == [], info
    assert info["repro"].startswith(src), (info["repro"], src)
    layers.install(spans.Tracer())
    print("ok")
    """
)


def test_worker_environment_and_layer_patches():
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.pop("PYTHONPATH", None)
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            SCRIPT,
            str(REPO_ROOT / "perfbench"),
            str(REPO_ROOT / "src"),
        ],
        env=env,
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "ok"
