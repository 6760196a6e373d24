"""The six demos run end to end, in order, from a scratch working directory."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))


def test_demos_run_in_order(tmp_path):
    assert len(DEMOS) == 6
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for demo in DEMOS:
        proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, f"{demo.name}:\n{proc.stderr[-2000:]}"
        assert "Traceback" not in proc.stderr, demo.name
        assert proc.stdout.strip(), demo.name
