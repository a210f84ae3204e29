"""Every demo script and every python example of README.md runs to
completion against the library in src/."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_EXAMPLES = re.findall(r"^```python\n(.*?)^```$",
                             (ROOT / "README.md").read_text(),
                             re.DOTALL | re.MULTILINE)


def run_python(args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    # pyproject's filterwarnings acts only in the test process: a warning in
    # a demo or an example is fatal here too
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-W",
         "error::DeprecationWarning", *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_demos_exist():
    assert DEMOS and README_EXAMPLES


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    run_python([str(demo)])


@pytest.mark.parametrize("example", README_EXAMPLES, ids=[
    f"example{i}" for i in range(1, len(README_EXAMPLES) + 1)])
def test_readme_example_runs(example):
    run_python(["-c", example])
