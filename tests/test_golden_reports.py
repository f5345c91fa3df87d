"""Verify reports and oracle estimates stay byte-identical to the stored goldens.

Each case runs ``yy verify`` (with the rotation check) and ``yy oracle`` at
small work sizes.  To rewrite the goldens after a deliberate change of report
content, run ``PYTHONPATH=src python tests/test_golden_reports.py``.
"""

import sys
from pathlib import Path

import pytest

from yinyang.cli import run

HERE = Path(__file__).parent
REPORTS = HERE / "golden" / "reports"
VERIFY = ["--g-grid", "64", "--v-quad", "5001", "--q-max", "6"]
ORACLE = ["--g", "0.3", "--mc-samples", "20000", "--seed", "5"]

#: Case name -> curve flags.
SPECS = {
    "fermat-1": ["--family", "fermat", "--turns", "1"],
    "fermat-1.5": ["--family", "fermat", "--turns", "1.5"],
    "fermat-2": ["--family", "fermat", "--turns", "2"],
    "sine-0.1": ["--family", "sine", "--lambda", "0.1"],
    "sine-0.24": ["--family", "sine", "--lambda", "0.24"],
    **{f"ck-k{k}": ["--family", "ck", "--lambda", "1", "--k", str(k)] for k in range(4)},
    "custom-quadratic": ["--family", "custom", "--samples", str(HERE / "fixtures" / "quadratic_33.json")],
    "fermat-1-parts3": ["--family", "fermat", "--turns", "1", "--parts", "3"],
}

CASES = {
    **{f"verify-{name}": ["verify", *flags, *VERIFY] for name, flags in SPECS.items()},
    **{f"oracle-{name}": ["oracle", *flags, *ORACLE] for name, flags in SPECS.items()},
}


def _report(argv: list[str], out: Path) -> bytes:
    assert run([*argv, "--out", str(out)]) in (0, 1)
    return out.read_bytes()


@pytest.mark.parametrize("name", CASES)
def test_report_matches_golden(name, tmp_path):
    got = _report(CASES[name], tmp_path / "report.json")
    assert got == (REPORTS / f"{name}.json").read_bytes()


if __name__ == "__main__":
    REPORTS.mkdir(parents=True, exist_ok=True)
    for name, argv in CASES.items():
        _report(argv, REPORTS / f"{name}.json")
        sys.stdout.write(f"wrote {name}.json\n")
