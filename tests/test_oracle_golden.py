"""Oracle parity: verdicts, counts and first violations of ``ovd_verify``
and ``ovd_matrix`` on fixed inputs.

The expected ``ovd_verify`` results in ``data/oracle_golden.json`` were
recorded before ``ovd_verify`` applied its order rule at a variation count
of 0 and before its lattice candidates were built block by block.  Every
system here has a nonnegative impulse response, so neither change may move
a result.  The ``matrix/`` results were recorded when ``ovd_matrix``
replaced the matrix oracle that allowed k sign changes; each keeps the
verdict and rank that oracle gave at k - 1, with (``order=True``) and
without (``order=False``) the leading-sign clause.  Output floats are left
out: they come from BLAS and may differ across machines.  Regenerate with
``PYTHONPATH=src python tests/test_oracle_golden.py`` only when a
behaviour change is intended.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from vardim.lti import (PartialFractionSystem, RationalTransferFunction,
                        partial_fractions)
from vardim.oracle import OvdReport, demo_system, ovd_matrix, ovd_verify

GOLDEN = Path(__file__).with_name("data") / "oracle_golden.json"
FIRST = 8


def positive_bank(n):
    return PartialFractionSystem(tuple(zip(np.linspace(1.0, 0.3, n),
                                           np.linspace(0.9, 0.1, n))))


def serial_cascade(n):
    zeros = -np.linspace(0.2, 0.6, n // 2)
    return RationalTransferFunction(tuple(np.atleast_1d(np.poly(zeros))),
                                    tuple(np.poly(np.linspace(0.9, 0.1, n))))


def systems():
    out = {"demo": demo_system()}
    for n in (2, 3, 4):
        out[f"bank{n}"] = positive_bank(n)
        out[f"cascade{n}-rtf"] = serial_cascade(n)
        out[f"cascade{n}-bank"] = partial_fractions(serial_cascade(n))
    return out


VARIANTS = {
    "plain": {},
    "samples": {"samples": 64},
    "extra": {"extra_inputs": [(0.5, -1.0, 0.25)]},
    "stop1": {"stop_at": 1},
    "stop7": {"stop_at": 7},
    "no-lattice": {"alphabet": (), "samples": 64,
                   "extra_inputs": [(0.5, -1.0, 0.25)]},
}


def verify_record(rep) -> dict:
    return {"passed": rep.passed, "inputs_checked": rep.inputs_checked,
            "rank": rep.rank, "violations": len(rep.violations),
            "first": [[v.kind, list(v.input), v.input_variation,
                       v.output_variation]
                      for v in rep.violations[:FIRST]]}


def system_records(name, sys) -> dict:
    out = {}
    for kind in ("hankel", "toeplitz"):
        for k in (1, 2, 3):
            for length in (6, 9):
                for variant, kw in VARIANTS.items():
                    rep = ovd_verify(sys, kind, k, length, length + 1, **kw)
                    out[f"{name}/{kind}/k={k}/L={length}/{variant}"] = \
                        verify_record(rep)
    return out


def matrices():
    rng = np.random.default_rng(7)
    x = np.linspace(0.1, 0.9, 5)
    return {
        "exp-kernel": np.exp(np.outer(x, x)),
        "demo-hankel": np.array([[1.3, 0.95, 0.774], [0.95, 0.774, 0.6436],
                                 [0.774, 0.6436, 0.5336]]),
        "anti-identity": np.eye(4)[::-1],
        "random": rng.uniform(-1.0, 1.0, size=(5, 4)),
        "rank-one": np.outer([1.0, 2.0, 0.5], [0.3, 1.0, 0.7, 0.2]),
    }


def matrix_records() -> dict:
    out = {}
    for name, X in matrices().items():
        for k in (2, 3, 4):
            rep = ovd_matrix(X, k, samples=64)
            # The same run read without the leading-sign clause.
            lax = OvdReport(rep.passed_variation_only,
                            rep.variation_violations, rep.inputs_checked,
                            rep.rank)
            for order, r in ((True, rep), (False, lax)):
                out[f"matrix/{name}/k={k}/order={order}"] = verify_record(r)
    return out


def record() -> dict:
    out = matrix_records()
    for name, sys in systems().items():
        out.update(system_records(name, sys))
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def recorded(golden, prefix):
    return {k: v for k, v in golden.items() if k.startswith(prefix + "/")}


@pytest.mark.parametrize("name", sorted(systems()))
def test_ovd_verify_unchanged(golden, name):
    assert system_records(name, systems()[name]) == recorded(golden, name)


def test_ovd_matrix_unchanged(golden):
    assert matrix_records() == recorded(golden, "matrix")


if __name__ == "__main__":
    cases = sorted(record().items())
    GOLDEN.write_text("{\n" + ",\n".join(
        f"{json.dumps(key)}: {json.dumps(rec, sort_keys=True)}"
        for key, rec in cases) + "\n}\n")
