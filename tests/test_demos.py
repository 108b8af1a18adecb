"""Every script in demos/ runs to completion without writing to stderr."""

import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
TIMEOUT_S = 300


def test_every_demo_runs_cleanly():
    assert len(DEMOS) == 6
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    procs = {demo.name: subprocess.Popen(
        [sys.executable, str(demo)], cwd=ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True) for demo in DEMOS}
    deadline = time.monotonic() + TIMEOUT_S
    failed = {}
    try:
        for name, proc in procs.items():
            _, err = proc.communicate(timeout=max(deadline - time.monotonic(), 0))
            if proc.returncode != 0 or err:
                failed[name] = (proc.returncode, err[-2000:])
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    assert not failed, failed
