"""The four workloads as fixed, seeded call sets.

A call is one check, one ``ovd_verify`` call or one ``vardim`` process.
Each call carries the construction label of its system for that question
(``True``, ``False`` or ``None``) and returns an outcome: a status plus a
digest that must repeat exactly when the call is repeated.
"""

from __future__ import annotations

import os
import signal
import subprocess
import zlib
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import gen
import vardim
from vardim import VardimError

TIERS = ("certified", "refuted", "holds-to-horizon", "unsupported")
DECIDED = {"certified", "refuted", "pass", "violation", "ok"}
# Statuses that contradict a label of True / of False.
AGAINST_TRUE = {"refuted", "violation"}
AGAINST_FALSE = {"certified"}
FAILED = "failed"
MALFORMED = "malformed"
STOPPED = (FAILED, "DeadlineExceeded")

WORKLOADS = ("hankel-grid", "toeplitz-ladder", "oracle-lattice", "cli-mix")

# A call still running after this many seconds is stopped and counted as
# failed.
CALL_DEADLINE_S = 6.0

ORACLE_INPUT_LENGTH = 9      # the full 3^9 lattice
ORACLE_OUTPUT_LENGTH = 10
ORACLE_SAMPLES = 64
CLI_HORIZON = 32
CLI_ORACLE_INPUT_LENGTH = 6
# Exit codes of `vardim check`; 2, 4 and 5 also end a command that fails
# with a VardimError, which prints "error: ..." on stderr instead.
CHECK_EXIT = {0: "certified", 3: "holds-to-horizon", 4: "refuted",
              5: "unsupported"}


@dataclass(frozen=True)
class Call:
    name: str
    run: Callable[[], tuple]
    label: Optional[bool] = None
    case: Optional[gen.Case] = None


class DeadlineExceeded(Exception):
    """A call was stopped at the benchmark's per-call deadline."""


def _deadline(signum, frame):
    raise DeadlineExceeded()


def classify(call: Call) -> tuple:
    """Run one call under a wall-clock deadline; return (status, digest).

    A VardimError is a legitimate answer to a question; any other
    exception, the deadline included, is a failure.
    """
    signal.signal(signal.SIGALRM, _deadline)
    try:
        signal.setitimer(signal.ITIMER_REAL, CALL_DEADLINE_S)
        try:
            return call.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except VardimError as exc:
        return ("vardim-error", type(exc).__name__)
    except Exception as exc:  # noqa: BLE001 - every other raise is counted
        return (FAILED, type(exc).__name__)


def report_outcome(report) -> tuple:
    verdict = report.verdict
    kind = (report.witness or {}).get("kind")
    well_formed = (verdict in TIERS
                   and (verdict != "refuted" or bool(report.witness))
                   and (verdict != "certified" or bool(report.certificate)))
    return (verdict if well_formed else MALFORMED, kind)


def check_call(name: str, check: str, case: gen.Case, k: int,
               operator: str) -> Call:
    """A check looked up on the package at call time, so that a traced run
    sees the traced binding."""
    return Call(name,
                lambda: report_outcome(getattr(vardim, check)(case.system, k)),
                case.label(operator, k), case)


def oracle_call(name: str, case: gen.Case, kind: str, k: int,
                seed: int) -> Call:
    def run():
        rep = vardim.ovd_verify(case.system, kind, k, ORACLE_INPUT_LENGTH,
                                ORACLE_OUTPUT_LENGTH, samples=ORACLE_SAMPLES,
                                seed=seed)
        if rep.passed == bool(rep.violations) or rep.inputs_checked < 1:
            return (MALFORMED, rep.inputs_checked)
        return ("pass" if rep.passed else "violation", rep.inputs_checked,
                len(rep.violations))
    return Call(name, run, case.label(kind, k), case)


def hankel_grid(seed: int) -> list:
    rng = gen.rng_for("hankel-grid", seed)
    calls = []
    for n, k in gen.grid():
        for case in (gen.positive_bank(n, rng), gen.negated_bank(n, k, rng),
                     gen.complex_tail_state_space(n, rng)):
            calls.append(check_call(f"hankel n={n} k={k} {case.kind}",
                                    "check_hankel_k", case, k, "hankel"))
    return calls


def toeplitz_ladder(seed: int) -> list:
    rng = gen.rng_for("toeplitz-ladder", seed)
    calls = []
    for n, k in gen.grid():
        for case in (gen.serial_cascade(n, rng),
                     gen.serial_cascade(n, rng, sign=-1.0),
                     gen.broken_alternating_bank(n, k, rng)):
            calls.append(check_call(f"toeplitz n={n} k={k} {case.kind}",
                                    "check_toeplitz_k", case, k, "toeplitz"))
    return calls


def oracle_cases(rng) -> list:
    demo = gen.Case("demo", vardim.demo_system(),
                    hankel=gen.Face(fails_from=3),
                    toeplitz=gen.Face(fails_from=2),
                    poles=(0.9, 0.5, 0.1), residues=(0.9, 0.5, -0.1))
    cases = [demo]
    for n in (2, 3, 4):
        cases.append(gen.positive_bank(n, rng))
        cases.append(gen.serial_cascade(n, rng, as_bank=True))
    return cases


def oracle_lattice(seed: int) -> list:
    rng = gen.rng_for("oracle-lattice", seed)
    calls = []
    for case in oracle_cases(rng):
        n = len(case.poles)
        for kind in ("hankel", "toeplitz"):
            for k in (2, 3):
                calls.append(oracle_call(
                    f"ovd {kind} k={k} n={n} {case.kind}", case, kind, k,
                    rng.randrange(1 << 30)))
    return calls


def _vec(vals) -> str:
    return "[" + ", ".join(repr(float(v)) for v in vals) + "]"


def sys_text(case: gen.Case, fmt: str) -> str:
    """System-definition text of a case, written from its factors."""
    if fmt == "pfs":
        return (f"poles = {_vec(case.poles)}\n"
                f"residues = {_vec(case.residues)}\n")
    if fmt == "rtf":
        den = np.poly(case.poles)
        num = np.zeros(1)
        for i, r in enumerate(case.residues):
            rest = np.poly(case.poles[:i] + case.poles[i + 1:])
            num = np.polyadd(num, r * rest)
        return f"num = {_vec(num)}\nden = {_vec(den)}\n"
    n = len(case.poles)
    rows = ", ".join(_vec([case.poles[i] if j == i else 0.0
                           for j in range(n)]) for i in range(n))
    return (f"A = [{rows}]\nb = {_vec(case.residues)}\n"
            f"c = {_vec([1.0] * n)}\n")


def cli_call(name: str, argv: list, case: gen.Case, label, root: str,
             launcher: Callable[[list], list]) -> Call:
    """One ``vardim`` process; its exit code and a checksum of its stdout
    are the outcome, so a repeat must print the same bytes.  Any exit other
    than 0, 2, 3, 4 or 5 is a crash (an uncaught exception exits 1)."""
    command = argv[0]
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def run():
        try:
            proc = subprocess.run(launcher(argv), capture_output=True,
                                  text=True, env=env,
                                  timeout=CALL_DEADLINE_S)
        except subprocess.TimeoutExpired as exc:
            raise DeadlineExceeded() from exc
        out, code = proc.stdout, proc.returncode
        if code not in (0, 2, 3, 4, 5):
            return (FAILED, f"exit {code}")
        if proc.stderr.startswith("error: "):
            return ("vardim-error", code)
        if command == "check":
            status = CHECK_EXIT[code]
            expected = f"verdict: {status}\n"
        elif command == "oracle":
            status = {0: "pass", 4: "violation"}.get(code, MALFORMED)
            expected = f"passed: {'yes' if code == 0 else 'no'}\n"
        else:
            status = "ok" if code == 0 else MALFORMED
            expected = "compound-order:" if command == "compound" else "t,g\n"
        if expected not in out:
            return (MALFORMED, code)
        return (status, code, zlib.crc32(out.encode()))
    return Call(name, run, label, case)


def cli_mix(seed: int, workdir: str, root: str,
            launcher: Callable[[list], list]) -> list:
    """Nine commands on each of the three file formats, in seeded order.

    The systems are the generator's pattern without jitter, the same in
    every format: whether a true cascade's Toeplitz check certifies or
    stops at the horizon hinges on rounding, so drawn magnitudes would make
    each run's process mix (and its time) a coin toss.  The seed orders
    the 27 processes.
    """
    bank = gen.positive_bank(4, None)
    casc = gen.serial_cascade(4, None)
    flip = gen.serial_cascade(3, None, sign=-1.0)
    plan = [
        (["check", "--operator", "hankel", "--k", "2"], bank, "hankel", 2),
        (["check", "--operator", "toeplitz", "--k", "2"], casc, "toeplitz", 2),
        (["check", "--operator", "external"], flip, "external", 1),
        (["check", "--operator", "hankel-total"], casc, "hankel-total", 1),
        (["check", "--operator", "toeplitz-total"], bank, "toeplitz-total", 1),
        (["compound", "--j", "2"], bank, None, 0),
        (["impulse", "--horizon", str(CLI_HORIZON)], casc, None, 0),
        (["oracle", "--operator", "hankel", "--k", "2", "--input-length",
          str(CLI_ORACLE_INPUT_LENGTH), "--horizon", "8"], bank, "hankel", 2),
        (["oracle", "--operator", "toeplitz", "--k", "2", "--input-length",
          str(CLI_ORACLE_INPUT_LENGTH), "--horizon", "8"], casc,
         "toeplitz", 2),
    ]
    calls = []
    for fmt in ("pfs", "rtf", "ss"):
        paths = {}
        for case in (bank, casc, flip):
            paths[case.kind] = os.path.join(workdir, f"{fmt}-{case.kind}.sys")
            with open(paths[case.kind], "w", encoding="utf-8") as fh:
                fh.write(sys_text(case, fmt))
        for argv, case, op, k in plan:
            calls.append(cli_call(
                f"cli {fmt} {' '.join(argv[:3])} {case.kind}",
                argv + ["--system", paths[case.kind]], case,
                case.label(op, k) if op else None, root, launcher))
    gen.rng_for("cli-mix", seed).shuffle(calls)
    return calls
