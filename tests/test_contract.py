"""The numerical contract: every tolerance is a ``vardim.tolerance`` constant.

Verdicts depend only on the system, k and the horizon, so no public
function or method takes a tolerance.  The only exceptions count sign
changes at a zero level the caller computes from its own data.
"""

import importlib
import inspect
import pkgutil
import re
import types

import pytest

import vardim
from vardim import tolerance

# Public callables that take a zero level as data.
ZERO_LEVEL_TAKERS = {"variation", "first_nonzero_sign", "row_variations",
                     "Signal.trimmed"}

# Every named tolerance and what it must stay.  ``RANK_TOL`` stays apart
# from ``SLACK_TOL``: with ``is_pd`` at 1e-9, negated banks change witness.
TOLERANCES = {
    (tolerance, "ZERO_TOL"): 1e-12,
    (tolerance, "RANK_TOL"): 1e-10,
    (tolerance, "SLACK_TOL"): 1e-9,
    (tolerance, "ROOT_TOL"): 1e-8,
}


def _public_callables():
    """(qualified name, callable) for every export of ``vardim`` and every
    public method or constructor of an exported class."""
    for name, obj in sorted(vars(vardim).items()):
        if name.startswith("_") or isinstance(obj, types.ModuleType):
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            yield name, obj
            for attr, member in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


def _takes_tolerance(fn) -> bool:
    try:
        params = inspect.signature(fn).parameters
    except (TypeError, ValueError):
        return False
    return any("tol" in p.lower() for p in params)


def test_no_public_tolerance_parameter():
    found = {name for name, fn in _public_callables()
             if _takes_tolerance(fn)}
    assert found == ZERO_LEVEL_TAKERS


def test_walk_sees_methods():
    names = {name for name, _ in _public_callables()}
    assert {"Signal.is_zero", "check_external", "ovd_verify",
            "PartialFractionSystem.scaled"} <= names


@pytest.mark.parametrize("key", sorted(TOLERANCES, key=lambda k: (
    k[0].__name__, k[1])), ids=lambda k: f"{k[0].__name__}.{k[1]}")
def test_tolerance_value_is_pinned(key):
    module, name = key
    assert getattr(module, name) == TOLERANCES[key]


def test_every_named_tolerance_is_pinned():
    # The constants each module assigns itself, imported ones excluded.
    named = set()
    for info in pkgutil.iter_modules(vardim.__path__):
        module = importlib.import_module(f"vardim.{info.name}")
        for name in re.findall(r"^(\w+(?:_TOL|_MARGIN)) = ",
                               inspect.getsource(module), re.M):
            named.add((module, name))
    assert named == set(TOLERANCES)
