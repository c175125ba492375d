"""Byte-for-byte golden reports: `--no-timing` JSON must not drift.

tests/data/golden/inputs.json names each potential.  For each one and each
precision the directory holds either ``<name>.<precision>.json``, the
exact ``to_json(include_timing=False)`` text, or ``<name>.<precision>.err``,
the ``<ErrorType>: <message>`` line of the typed error the call raises.
A speed change must leave every file as it is.  A change that means to
alter the output rewrites them with ``python tests/test_golden.py`` and
says so.
"""

import json
from pathlib import Path

import pytest

from latticejost.core import NumericConfig, validate_potential
from latticejost.errors import LatticeJostError
from latticejost.report import analyze

GOLDEN = Path(__file__).parent / "data" / "golden"
CONFIGS = {"standard": NumericConfig(), "extended": NumericConfig.extended()}
INPUTS = json.loads((GOLDEN / "inputs.json").read_text())


def _outcome(values, precision: str) -> tuple[str, str]:
    """(file suffix, text) of one analyze call."""
    try:
        report = analyze(validate_potential(values), CONFIGS[precision])
    except LatticeJostError as exc:
        return "err", f"{type(exc).__name__}: {exc}\n"
    return "json", report.to_json(include_timing=False)


@pytest.mark.parametrize("precision", CONFIGS)
@pytest.mark.parametrize("name", INPUTS)
def test_report_is_byte_identical(name, precision):
    suffix, text = _outcome(INPUTS[name], precision)
    assert text == (GOLDEN / f"{name}.{precision}.{suffix}").read_text()


if __name__ == "__main__":
    for name, values in INPUTS.items():
        for precision in CONFIGS:
            for stale in GOLDEN.glob(f"{name}.{precision}.*"):
                stale.unlink()
            suffix, text = _outcome(values, precision)
            (GOLDEN / f"{name}.{precision}.{suffix}").write_text(text)
