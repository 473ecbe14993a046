"""Command-line front end.

Exit codes: 0 certified/success, 2 parse or usage error, 3 holds only to
the checked horizon, 4 refuted, 5 unsupported hypothesis.
"""

from __future__ import annotations

import argparse
import sys as _sys
from typing import Optional

from .compound import compound_transfer
from .errors import ParseError, StructuralError, VardimError
from .lti import (DEFAULT_HORIZON, impulse_response, pole_residue_form,
                  recombine, require_horizon)
from .oracle import (DEFAULT_SEED, SCENARIOS, heavy_ball, ovd_verify,
                     run_scenario)
from .positivity import (CERTIFIED, HOLDS, REFUTED, UNSUPPORTED,
                         check_external, check_hankel_k, check_hankel_total,
                         check_toeplitz_k, check_toeplitz_total,
                         hankel_decompose, render_report, toeplitz_decompose)
from .signals import forward_difference
from .sysfile import format_float as _fmt, load_system, serialize_system

EXIT_OK = 0
EXIT_PARSE = 2
_VERDICT_EXIT = {CERTIFIED: 0, HOLDS: 3, REFUTED: 4, UNSUPPORTED: 5}


def _parse_alphabet(text: str) -> tuple:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ParseError(f"bad alphabet {text!r}: {exc}") from exc


def _parse_seed(text: str) -> int:
    return int(text, 16)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vardim",
        description="Variation-diminishing analysis of discrete-time "
                    "linear systems")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, k=False, operator=False):
        p.add_argument("--system", required=True, metavar="PATH",
                       help="system-definition file")
        p.add_argument("--horizon", type=int, default=DEFAULT_HORIZON)
        p.add_argument("--out", metavar="PATH", default=None)
        if operator:
            p.add_argument("--operator", choices=(
                "hankel", "toeplitz", "external", "hankel-total",
                "toeplitz-total"), required=True)
        if k:
            p.add_argument("--k", type=int, default=1)

    p = sub.add_parser("impulse", help="impulse response as CSV")
    common(p)

    p = sub.add_parser("check", help="positivity verdict with certificate")
    common(p, k=True, operator=True)
    p.add_argument("--format", choices=("text", "csv"), default="text")

    p = sub.add_parser("compound", help="compound system of a given order")
    common(p)
    p.add_argument("--j", type=int, required=True)

    p = sub.add_parser("decompose", help="dominant/remainder split")
    common(p, k=True, operator=True)

    p = sub.add_parser("oracle", help="brute-force variation check")
    common(p, k=True, operator=True)
    p.add_argument("--input-length", type=int, default=6)
    p.add_argument("--alphabet", default="-1,0,1", help="comma-separated "
                   "input values; a leading '-' needs --alphabet=-1,1")
    p.add_argument("--samples", type=int, default=0)
    p.add_argument("--seed", type=_parse_seed, default=DEFAULT_SEED,
                   metavar="HEX")

    p = sub.add_parser("heavyball", help="momentum smoothing classifier")
    p.add_argument("--a", type=float, required=True,
                   help="quadratic curvature")
    p.add_argument("--alpha", type=float, required=True, help="step size")
    p.add_argument("--beta", type=float, required=True, help="momentum")
    p.add_argument("--steps", type=int, default=64)
    p.add_argument("--out", metavar="PATH", default=None)

    p = sub.add_parser("scenario", help="run the worked demo scenarios")
    p.add_argument("--name", choices=sorted(SCENARIOS) + ["all"],
                   default="all")
    p.add_argument("--horizon", type=int, default=8)
    p.add_argument("--out", metavar="PATH", default=None)
    return parser


def _write(text: str, path: Optional[str]):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        _sys.stdout.write(text)


def _impulse_csv(sys, horizon: int) -> str:
    g = impulse_response(sys, horizon)
    lines = ["t,g"]
    for t in range(horizon + 1):
        lines.append(f"{t},{_fmt(g.value(t))}")
    return "\n".join(lines) + "\n"


def cmd_impulse(args) -> int:
    sys = load_system(args.system)
    _write(_impulse_csv(sys, args.horizon), args.out)
    return EXIT_OK


def _dispatch_check(sys, operator: str, k: int, horizon: int):
    if operator == "hankel":
        return check_hankel_k(sys, k, horizon)
    if operator == "toeplitz":
        return check_toeplitz_k(sys, k, horizon)
    if operator == "external":
        return check_external(sys, horizon)
    if operator == "hankel-total":
        return check_hankel_total(sys, horizon)
    return check_toeplitz_total(sys, horizon)


def cmd_check(args) -> int:
    sys = load_system(args.system)
    report = _dispatch_check(sys, args.operator, args.k, args.horizon)
    if args.format == "csv":
        text = ("property,k,verdict,horizon,t0\n"
                f"{report.property_name},{report.k},{report.verdict},"
                f"{report.horizon},{report.t0}\n")
    else:
        text = render_report(report) + "\n"
    _write(text, args.out)
    return _VERDICT_EXIT[report.verdict]


def cmd_compound(args) -> int:
    sys = load_system(args.system)
    require_horizon(args.horizon)
    pfs = pole_residue_form(sys, "compound reports need")
    n = len(pfs.terms)
    horizon = args.horizon
    lines = [f"compound-order: {args.j}"]
    if args.j > n:
        lines.append("note: order exceeds the system order; the compound "
                     "response is identically zero")
        samples = [0.0] * horizon
    else:
        comp = compound_transfer(pfs, args.j)
        lines.append(f"poles: {', '.join(_fmt(p) for p in comp.poles)}")
        lines.append(f"residues: "
                     f"{', '.join(_fmt(r) for r in comp.residues)}")
        g = impulse_response(comp, horizon)
        samples = [g.value(t) for t in range(1, horizon + 1)]
    lines.append("samples:")
    lines.append("t,value")
    for t, v in enumerate(samples, start=1):
        lines.append(f"{t},{_fmt(v)}")
    _write("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_decompose(args) -> int:
    sys = load_system(args.system)
    if args.operator not in ("hankel", "toeplitz"):
        raise ParseError("decompose needs --operator hankel or toeplitz")
    if args.operator == "hankel":
        dec = hankel_decompose(sys, args.k, args.horizon)
    else:
        dec = toeplitz_decompose(sys, args.k, args.horizon)
    prefix = args.out or "decomposition."
    dom_path = prefix + "dominant.sys"
    rem_path = prefix + "remainder.sys"
    _write(serialize_system(dec.dominant), dom_path)
    remainder = dec.remainder
    if dec.mode == "toeplitz-multiplicative" and len(remainder.fir):
        remainder = recombine(remainder)
    _write(serialize_system(remainder), rem_path)
    report = [f"mode: {dec.mode}",
              f"dominant: {dom_path}",
              f"remainder: {rem_path}"]
    if dec.factor_pole is not None:
        report.append(f"factor-pole: {_fmt(dec.factor_pole)}")
    if dec.note:
        report.append(f"note: {dec.note}")
    _sys.stdout.write("\n".join(report) + "\n")
    return EXIT_OK


def cmd_oracle(args) -> int:
    sys = load_system(args.system)
    if args.operator not in ("hankel", "toeplitz"):
        raise ParseError("oracle needs --operator hankel or toeplitz")
    alphabet = _parse_alphabet(args.alphabet)
    report = ovd_verify(sys, args.operator, args.k, args.input_length,
                        args.horizon, alphabet=alphabet,
                        samples=args.samples, seed=args.seed)
    lines = [f"operator: {args.operator}",
             f"k: {args.k}",
             f"inputs-checked: {report.inputs_checked}",
             f"rank: {report.rank}",
             f"passed: {'yes' if report.passed else 'no'}"]
    for v in report.violations[:8]:
        lines.append(f"violation: kind: {v.kind} input: "
                     f"{_fmt_tuple(v.input)} variations: "
                     f"{v.input_variation} -> {v.output_variation}")
    _write("\n".join(lines) + "\n", args.out)
    return EXIT_OK if report.passed else _VERDICT_EXIT[REFUTED]


def _fmt_tuple(vals) -> str:
    return "(" + ", ".join(_fmt(v) for v in vals) + ")"


def cmd_heavyball(args) -> int:
    scen = heavy_ball(args.a, args.alpha, args.beta, args.steps)
    lines = [f"curvature: {_fmt(scen.curvature)}",
             f"step-size: {_fmt(scen.step_size)}",
             f"momentum: {_fmt(scen.momentum)}",
             f"threshold: {_fmt(scen.threshold)}",
             f"meets-threshold: {'yes' if scen.meets_threshold else 'no'}",
             f"iterate-extrema: {scen.iterate_extrema}",
             f"consistent: {'yes' if scen.consistent else 'no'}",
             "closed-loop:",
             render_report(scen.closed_loop_report, indent="  ")]
    _write("\n".join(lines) + "\n", args.out)
    return _VERDICT_EXIT[scen.closed_loop_report.verdict]


def _scenario_block(name: str, horizon: int) -> str:
    res = run_scenario(name, horizon)
    lines = [f"# scenario: {res.scenario}",
             f"# {res.verdict_text}",
             "t,u,y,dy"]
    kind, vec = SCENARIOS[name]
    dy = forward_difference(res.output)
    if kind == "hankel":
        for tau in range(len(vec), 0, -1):
            lines.append(f"{-tau},{_fmt(vec[tau - 1])},,")
    for t in range(res.output.support_start, res.output.support_end + 1):
        u = ""
        if kind == "toeplitz" and 0 <= t < len(vec):
            u = _fmt(vec[t])
        d = _fmt(dy.value(t)) if t < res.output.support_end else ""
        lines.append(f"{t},{u},{_fmt(res.output.value(t))},{d}")
    return "\n".join(lines) + "\n"


def cmd_scenario(args) -> int:
    names = sorted(SCENARIOS) if args.name == "all" else [args.name]
    text = "".join(_scenario_block(n, args.horizon) for n in names)
    _write(text, args.out)
    return EXIT_OK


_COMMANDS = {
    "impulse": cmd_impulse,
    "check": cmd_check,
    "compound": cmd_compound,
    "decompose": cmd_decompose,
    "oracle": cmd_oracle,
    "heavyball": cmd_heavyball,
    "scenario": cmd_scenario,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0,) else 0
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, ValueError) as exc:
        # The library raises ValueError only on caller error.
        _sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except StructuralError as exc:
        _sys.stderr.write(f"error: {exc}\n")
        return _VERDICT_EXIT[REFUTED]
    except VardimError as exc:
        _sys.stderr.write(f"error: {exc}\n")
        return _VERDICT_EXIT[UNSUPPORTED]


if __name__ == "__main__":
    raise SystemExit(main())
