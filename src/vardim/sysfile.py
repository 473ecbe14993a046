"""System-definition files: trivial key = value text, one representation
per file.

Recognized key sets:
  poles, residues       -> partial fractions (optional fir array, t >= 1)
  num, den              -> rational transfer function (descending powers)
  A, b, c               -> state space

Values are numbers or (nested) bracketed arrays; ``#`` starts a comment.
"""

from __future__ import annotations

import ast
from typing import Union

import numpy as np

from .errors import ParseError
from .lti import (PartialFractionSystem, RationalTransferFunction, StateSpace)
from .signals import Signal

_KEYSETS = {
    frozenset({"poles", "residues"}): "pfs",
    frozenset({"poles", "residues", "fir"}): "pfs",
    frozenset({"num", "den"}): "rtf",
    frozenset({"A", "b", "c"}): "ss",
}


def parse_system(text: str):
    """Parse one system definition; raises ParseError on malformed input."""
    entries = {}
    buffer = ""
    key = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if buffer:
            buffer += " " + line.strip()
        else:
            if "=" not in line:
                raise ParseError(f"line {lineno}: expected 'key = value'")
            key, _, rhs = line.partition("=")
            key = key.strip()
            if not key.isidentifier():
                raise ParseError(f"line {lineno}: bad key {key!r}")
            if key in entries:
                raise ParseError(f"line {lineno}: duplicate key {key!r}")
            buffer = rhs.strip()
        if buffer.count("[") == buffer.count("]"):
            try:
                entries[key] = ast.literal_eval(buffer)
            except (ValueError, SyntaxError) as exc:
                raise ParseError(f"line {lineno}: cannot parse value for "
                                 f"{key!r}: {exc}") from exc
            buffer = ""
    if buffer:
        raise ParseError("unterminated array value")
    if not entries:
        raise ParseError("empty system definition")

    form = _KEYSETS.get(frozenset(entries))
    if form is None:
        raise ParseError(
            f"keys {sorted(entries)} do not match any representation; "
            "use poles/residues, num/den, or A/b/c")
    try:
        if form == "pfs":
            poles = _vector(entries["poles"], "poles")
            residues = _vector(entries["residues"], "residues")
            if len(poles) != len(residues):
                raise ParseError("poles and residues differ in length")
            fir = Signal(1, _vector(entries.get("fir", ()), "fir"))
            return PartialFractionSystem(tuple(zip(residues, poles)), fir)
        if form == "rtf":
            return RationalTransferFunction(
                tuple(_vector(entries["num"], "num")),
                tuple(_vector(entries["den"], "den")))
        A = entries["A"]
        rows = A if isinstance(A, (list, tuple)) else (A,)
        return StateSpace(np.array([_vector(row, "A") for row in rows]),
                          _vector(entries["b"], "b"),
                          _vector(entries["c"], "c"))
    except ParseError:
        raise
    except Exception as exc:
        raise ParseError(f"invalid system definition: {exc}") from exc


def _vector(value, name: str) -> tuple:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return (float(value),)
    if not isinstance(value, (list, tuple)):
        raise ParseError(f"{name} must be a number or an array")
    out = []
    for v in value:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ParseError(f"{name} entries must be numbers")
        out.append(float(v))
    return tuple(out)


def load_system(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_system(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def format_float(x: float) -> str:
    """The shortest text that reads back as the same float."""
    return repr(float(x))


def _fmt_vec(vals) -> str:
    return "[" + ", ".join(format_float(v) for v in vals) + "]"


def serialize_system(sys: Union[PartialFractionSystem,
                                RationalTransferFunction, StateSpace]) -> str:
    """Emit a definition that re-parses to a response-equivalent system."""
    if isinstance(sys, PartialFractionSystem):
        lines = [f"poles = {_fmt_vec(sys.poles)}",
                 f"residues = {_fmt_vec(sys.residues)}"]
        fir = sys.fir
        if len(fir):
            if fir.support_start < 1:
                raise ValueError("serializable FIR tails start at t >= 1")
            vals = [fir.value(t) for t in range(1, fir.support_end + 1)]
            lines.append(f"fir = {_fmt_vec(vals)}")
        return "\n".join(lines) + "\n"
    if isinstance(sys, RationalTransferFunction):
        return (f"num = {_fmt_vec(sys.num)}\n"
                f"den = {_fmt_vec(sys.den)}\n")
    if isinstance(sys, StateSpace):
        rows = ", ".join(_fmt_vec(row) for row in sys.A)
        return (f"A = [{rows}]\n"
                f"b = {_fmt_vec(sys.b)}\n"
                f"c = {_fmt_vec(sys.c)}\n")
    raise TypeError(f"unsupported system type {type(sys).__name__}")
