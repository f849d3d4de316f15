"""Every script under demos/ runs to completion."""

import subprocess
import sys

import pytest

from conftest import SRC, child_env

DEMOS = sorted((SRC.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo):
    p = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert p.returncode == 0, p.stderr
