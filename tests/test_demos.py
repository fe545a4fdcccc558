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


def _readme_block(heading):
    """The first ```python block after ``heading`` in README.md."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text[text.index(f"\n{heading}\n"):]
    start = section.index("```python\n") + len("```python\n")
    return section[start:section.index("```", start)]


def test_readme_library_usage_runs(tmp_path):
    # the README's example uses the public names as a user would; a rename or
    # deletion of any of them fails here, not only in a reader's session
    script = tmp_path / "usage.py"
    script.write_text(_readme_block("## Library usage"), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "state.ckpt").is_file()
