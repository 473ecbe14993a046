"""Byte-for-byte CLI regression: stdout, exit code and written files.

The expected outputs in ``data/cli_golden.json`` were recorded before the
positivity checks were moved onto ``lti.canonical``, and the order-8 cases
before the compound and sample scans were vectorised; any change to them
is a change of behaviour.  Regenerate with
``PYTHONPATH=src python tests/test_cli_golden.py`` only when a behaviour
change is intended.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from vardim.cli import main

GOLDEN = Path(__file__).with_name("data") / "cli_golden.json"

# One bank, one cascade and one complex-pole system, each in every file
# form that can hold it (partial fractions need simple real poles).
SYSTEMS = {
    "bank-pfs": "poles = [0.9, 0.6, 0.3, 0.1]\n"
                "residues = [0.5, 1.0, 0.3, 0.7]\n",
    "bank-rtf": "num = [2.5, -3.54, 1.425, -0.1656]\n"
                "den = [1.0, -1.9, 1.17, -0.261, 0.0162]\n",
    "bank-ss": "A = [[0.9, 0, 0, 0], [0, 0.6, 0, 0], [0, 0, 0.3, 0],\n"
               "     [0, 0, 0, 0.1]]\n"
               "b = [0.5, 1.0, 0.3, 0.7]\n"
               "c = [1, 1, 1, 1]\n",
    "cascade-pfs": "poles = [0.8, 0.5, 0.2]\n"
                   "residues = [6.666666666666667, -10.0, "
                   "3.3333333333333335]\n",
    "cascade-rtf": "num = [1.0, 0.4]\n"
                   "den = [1.0, -1.5, 0.66, -0.08]\n",
    "cascade-ss": "A = [[1.5, -0.66, 0.08], [1, 0, 0], [0, 1, 0]]\n"
                  "b = [1, 0, 0]\n"
                  "c = [0, 1.0, 0.4]\n",
    "complex-rtf": "num = [2.0, -1.8, 0.52]\n"
                   "den = [1.0, -1.5, 0.79, -0.225]\n",
    "complex-ss": "A = [[0.9, 0, 0], [0, 0.3, -0.4], [0, 0.4, 0.3]]\n"
                  "b = [1.0, 0.5, 0.5]\n"
                  "c = [1, 1, 1]\n",
}

COMMANDS = {
    "check-hankel-2": ["check", "--operator", "hankel", "--k", "2"],
    "check-toeplitz-2": ["check", "--operator", "toeplitz", "--k", "2"],
    "check-external": ["check", "--operator", "external"],
    "check-hankel-total": ["check", "--operator", "hankel-total"],
    "check-toeplitz-total": ["check", "--operator", "toeplitz-total"],
    "compound-2": ["compound", "--j", "2"],
    "decompose-hankel-2": ["decompose", "--operator", "hankel", "--k", "2",
                           "--out", "dec."],
    "decompose-toeplitz-2": ["decompose", "--operator", "toeplitz", "--k",
                             "2", "--out", "dec."],
}

# Order-8 systems checked at k=4, where every compound of order 4 has
# C(8, 4) = 70 pole/residue terms.
SIZE_SYSTEMS = {
    "bank8-pfs": "poles = [0.95, 0.85, 0.75, 0.65, 0.55, 0.45, 0.35, 0.25]\n"
                 "residues = [0.5, 1.0, 0.3, 0.7, 0.4, 0.9, 0.2, 0.6]\n",
    "bank8-ss": "A = [[0.95, 0, 0, 0, 0, 0, 0, 0], "
                "[0, 0.85, 0, 0, 0, 0, 0, 0],\n"
                "     [0, 0, 0.75, 0, 0, 0, 0, 0], "
                "[0, 0, 0, 0.65, 0, 0, 0, 0],\n"
                "     [0, 0, 0, 0, 0.55, 0, 0, 0], "
                "[0, 0, 0, 0, 0, 0.45, 0, 0],\n"
                "     [0, 0, 0, 0, 0, 0, 0.35, 0], "
                "[0, 0, 0, 0, 0, 0, 0, 0.25]]\n"
                "b = [0.5, 1.0, 0.3, 0.7, 0.4, 0.9, 0.2, 0.6]\n"
                "c = [1, 1, 1, 1, 1, 1, 1, 1]\n",
    "cascade8-pfs": "poles = [0.95, 0.85, 0.75, 0.65, 0.55, 0.45, 0.35, "
                    "0.25]\n"
                    "residues = [4640.6250000000055, -25564.236111111128, "
                    "59057.2916666667, -73828.12500000006, 53602.43055555556, "
                    "-22401.041666666653, 4921.874999999996, "
                    "-428.8194444444444]\n",
    "cascade8-rtf": "num = [1.0, 1.2, 0.39, 0.028000000000000004]\n"
                    "den = [1.0, -4.8, 9.87, -11.339999999999998, "
                    "7.950337499999998, -3.4769699999999997, "
                    "0.9245751874999999, -0.13638862499999999, "
                    "0.0085251181640625]\n",
}
SYSTEMS.update(SIZE_SYSTEMS)

SIZE_COMMANDS = {
    "check-hankel-4": ["check", "--operator", "hankel", "--k", "4"],
    "check-toeplitz-4": ["check", "--operator", "toeplitz", "--k", "4"],
}
COMMANDS.update(SIZE_COMMANDS)

CASES = ([f"{s}:{c}" for s in SYSTEMS if s not in SIZE_SYSTEMS
          for c in COMMANDS if c not in SIZE_COMMANDS]
         + [f"{s}:{c}" for s in SIZE_SYSTEMS for c in SIZE_COMMANDS])


def run_case(case: str, workdir: Path) -> dict:
    """Run one command on one system file inside ``workdir``."""
    system, command = case.split(":")
    (workdir / "system.sys").write_text(SYSTEMS[system])
    argv = COMMANDS[command] + ["--system", "system.sys"]
    out = io.StringIO()
    old = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        os.chdir(old)
    files = {p.name: p.read_text() for p in sorted(workdir.glob("dec.*"))}
    return {"exit": code, "stdout": out.getvalue(), "files": files}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", CASES)
def test_cli_output_unchanged(case, golden, tmp_path):
    assert run_case(case, tmp_path) == golden[case]


def _record():
    import tempfile
    result = {}
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            result[case] = run_case(case, Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(result)} cases to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _record()
