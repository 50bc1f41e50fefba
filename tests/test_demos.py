"""The demo scripts run cleanly against the package in `src/` and print their
recorded answers, `tests/data/<demo>.txt`, byte for byte, and the README's
first example prints what its comment says."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""
    assert out.stdout == (ROOT / "tests" / "data" / (demo.stem + ".txt")).read_text()


def test_readme_example_prints_its_comment(capsys):
    readme = (ROOT / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    # a print line's comment, up to the first double space, is what it prints
    expected = [line.split("# ", 1)[1].split("  ")[0] for line in block.splitlines()
                if line.startswith("print(")]
    assert expected == ["x^2*#x + 2*x*w"]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected
