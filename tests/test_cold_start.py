"""Cold start: scipy loads only inside the matrix oracle, mpmath never.

Each check runs in a fresh interpreter, since this test process has
already imported scipy through other test modules.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import latticejost

SRC = str(Path(latticejost.__file__).resolve().parents[1])

REPORT = (
    "import json, sys\n"
    "print(json.dumps({m: m in sys.modules for m in ('scipy', 'mpmath')}))\n"
)


def fresh(code: str) -> dict:
    """Run code in a new interpreter; return its last stdout line as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code + REPORT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_loads_neither_scipy_nor_mpmath():
    assert fresh("import latticejost\n") == {"scipy": False, "mpmath": False}


@pytest.mark.parametrize(
    "argv", [["analyze", "[2]", "--no-timing"], ["sweep", "--bmax", "4"]],
    ids=["analyze", "sweep"],
)
def test_cli_skips_scipy(argv):
    loaded = fresh(
        "from latticejost.cli import main\n"
        f"assert main({argv!r}) == 0\n"
    )
    assert loaded["scipy"] is False


@pytest.mark.parametrize(
    "argv",
    [["sweep", "--bmax", "4", "--precision", "ext"],
     ["analyze", "[2]", "--precision", "ext"]],
    ids=["sweep", "analyze"],
)
def test_extended_cli_never_loads_mpmath(argv):
    loaded = fresh(
        "from latticejost.cli import main\n"
        f"assert main({argv!r}) == 0\n"
    )
    assert loaded["mpmath"] is False


def test_oracle_loads_scipy():
    loaded = fresh(
        "from latticejost import oracle_bound_states, validate_potential\n"
        "lams = oracle_bound_states(validate_potential([2.0]))\n"
        "assert len(lams) == 1 and abs(lams[0] - 4.5) < 1e-12, lams\n"
    )
    assert loaded["scipy"] is True
