import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_checkpoint_resume_demo_resumes_bit_identically(tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "checkpoint_resume.py")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "resumed chain identical to uninterrupted run: True" in done.stdout
    assert "counters identical: True" in done.stdout
    assert list(tmp_path.iterdir()) == []
