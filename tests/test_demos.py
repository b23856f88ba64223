"""Each demo's output, byte for byte, against the file recorded under
tests/golden/ (named after the demo, with the suffix .out)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_golden_output():
    assert DEMOS
    for demo in DEMOS:
        assert (ROOT / "tests" / "golden" / f"{demo.stem}.out").is_file(), demo.name


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    want = (ROOT / "tests" / "golden" / f"{demo.stem}.out").read_text()
    assert done.stdout == want
