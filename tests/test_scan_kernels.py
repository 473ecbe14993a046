"""The vectorised residue-space route against its scalar definitions.

``compound_transfer``, the ``PartialFractionSystem`` constructor and the
partial-fraction scans of ``check_external`` run as numpy array operations.
The scalar definitions they replace are kept below as test-only references;
terms must compare equal with ``==`` and reports by ``repr``.
"""

import collections
import itertools
import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import vardim.positivity
from vardim.compound import compound_transfer
from vardim.errors import UnsupportedRepresentationError
from vardim.lti import (PartialFractionSystem, StateSpace, dominance_key,
                        partial_fraction_samples)
from vardim.positivity import (CERTIFIED, EXTERNAL, HOLDS, PREFIX_TERMS,
                               REFUTED, SCAN_BLOCK_BYTES, WITNESS_SEARCH_CAP,
                               PositivityReport, _fmt, _sample_scale,
                               _finite_stop, _SampleScan, _weight,
                               check_external, check_hankel_k)
from vardim.tolerance import SLACK_TOL, ZERO_TOL
from vardim.signals import Signal

# ---------------------------------------------------------------------------
# Scalar references.


def ref_terms(terms) -> tuple:
    """The scalar constructor: validate, drop zero residues, sort by
    dominance, reject repeated poles."""
    cleaned = []
    for r, p in terms:
        r, p = float(r), float(p)
        if not (math.isfinite(r) and math.isfinite(p)):
            raise ValueError("residues and poles must be finite")
        if r != 0.0:
            cleaned.append((r, p))
    cleaned.sort(key=lambda rp: dominance_key(rp[1]))
    for (_, pa), (_, pb) in zip(cleaned, cleaned[1:]):
        if abs(pa - pb) <= ZERO_TOL * max(1.0, abs(pa), abs(pb)):
            raise UnsupportedRepresentationError(
                f"repeated pole {pa}; use StateSpace for repeated poles")
    return tuple(cleaned)


def ref_compound_terms(pfs: PartialFractionSystem, j: int) -> tuple:
    """The scalar index-tuple loop with its sequential merge."""
    if j == 1:
        return pfs.terms
    return ref_terms(tuple((math.fsum(parts), pole)
                           for pole, parts in ref_merged(pfs, j)))


def ref_merged(pfs: PartialFractionSystem, j: int) -> list:
    """(first pole, residues) of each merged group of the scalar loop's
    order-j products, by ascending pole."""
    n = len(pfs.terms)
    residues, poles = pfs.residues, pfs.poles
    raw = []
    for v in itertools.combinations(range(n), j):
        res = 1.0
        for i in v:
            res *= residues[i]
        for a, b in itertools.combinations(v, 2):
            res *= (poles[a] - poles[b]) ** 2
        pole = 1.0
        for i in v:
            pole *= poles[i]
        raw.append((pole, res))
    raw.sort(key=lambda pr: pr[0])
    merged = []
    for pole, res in raw:
        if merged and abs(pole - merged[-1][0]) <= ZERO_TOL * max(
                1.0, abs(pole), abs(merged[-1][0])):
            merged[-1][1].append(res)
        else:
            merged.append((pole, [res]))
    return merged


def ref_samples(pfs: PartialFractionSystem, horizon: int) -> list:
    vals = []
    for t in range(horizon + 1):
        acc = [r * p ** (t - 1) for r, p in pfs.terms] if t >= 1 else []
        acc.append(pfs.fir.value(t))
        vals.append(math.fsum(acc))
    return vals


def ref_scale(pfs: PartialFractionSystem) -> float:
    parts = [abs(r) for r in pfs.residues]
    parts.extend(abs(v) for v in pfs.fir.values)
    return max(math.fsum(parts), 1e-300)


def ref_negative_sample(pfs, start, tol):
    rho = max((abs(p) for p in pfs.poles), default=0.0)
    weight = math.fsum(abs(r) for r in pfs.residues)
    fir = pfs.fir.trimmed(0.0)
    fir_end = fir.support_end if len(fir) else 0
    # The last t at which max(1, weight) * rho^(t+1) is still a double.
    last = WITNESS_SEARCH_CAP
    if rho > 1.0:
        last = int(math.log(sys.float_info.max / max(1.0, weight))
                   / math.log(rho)) - 1
    horizon = max(start, 8)
    while horizon <= WITNESS_SEARCH_CAP:
        stop = min(horizon, last)
        g = ref_samples(pfs, stop)
        for t in range(stop + 1):
            if g[t] < -tol:
                return (t, g[t])
        if (rho <= 1.0 and horizon > fir_end
                and weight * rho ** (horizon - 1) <= tol / 2):
            return None
        horizon *= 4
    return None


def ref_check_external(pfs, horizon=64, tol=ZERO_TOL) -> PositivityReport:
    """``check_external`` on a partial-fraction system, scalar scans: the
    tail-dominance certificate first, then the witness search."""
    theta = tol * ref_scale(pfs) if not pfs.is_zero() else tol
    need = max(horizon, pfs.fir.support_end + 1 if len(pfs.fir) else 1)
    g = ref_samples(pfs, need)
    t0 = next((t for t in range(need + 1) if abs(g[t]) > theta), None)
    for t in range(need + 1):
        if g[t] < -theta:
            return PositivityReport(
                EXTERNAL, 1, REFUTED, horizon, t0=t0,
                witness={"kind": "negative-sample", "time": t,
                         "value": g[t]})
    if pfs.is_zero() or t0 is None:
        return PositivityReport(
            EXTERNAL, 1, CERTIFIED, horizon, t0=t0,
            certificate="impulse response identically zero")
    if not pfs.terms:
        return PositivityReport(
            EXTERNAL, 1, CERTIFIED, horizon, t0=t0,
            certificate=f"finite support exhausted at t="
                        f"{pfs.fir.support_end}")
    r1, p1 = pfs.terms[0]
    rest = pfs.terms[1:]
    strict = all(p1 - abs(p) > SLACK_TOL * max(1.0, p1)
                 for _, p in rest)
    if strict and p1 > 0 and r1 > 0:
        fir = pfs.fir.trimmed(0.0)
        fir_end = fir.support_end if len(fir) else 0
        for t_star in range(max(1, fir_end + 1), need + 1):
            lead = r1 * p1 ** (t_star - 1)
            tail = math.fsum(abs(r) * abs(p) ** (t_star - 1)
                             for r, p in rest)
            if lead > tail:
                return PositivityReport(
                    EXTERNAL, 1, CERTIFIED, horizon, t0=t0,
                    certificate=(f"tail dominance from t={t_star}: "
                                 f"{_fmt(lead)} > {_fmt(tail)} and samples "
                                 f"nonnegative up to t={t_star}"))
    found = ref_negative_sample(pfs, need, theta)
    if not found:
        return PositivityReport(EXTERNAL, 1, HOLDS, horizon, t0=t0)
    witness = {"kind": "negative-sample"}
    if p1 < 0 or r1 < 0:
        witness = {"kind": "dominant-structure",
                   "reason": ("dominant pole negative" if p1 < 0 else
                              "dominant residue nonpositive"),
                   "pole": p1, "residue": r1}
    witness.update({"time": found[0], "value": found[1]})
    return PositivityReport(EXTERNAL, 1, REFUTED, horizon, t0=t0,
                            witness=witness)


def outcome(fn, *args, **kwargs):
    """repr of the result, or the exception's type and message."""
    try:
        return repr(fn(*args, **kwargs))
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# Systems.


def even_poles(n):
    return [0.95 - i * 0.9 / (n - 1) for i in range(n)] if n > 1 else [0.5]


def spread(n):
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    return [0.2 + 0.8 * ((i + 1) * golden % 1.0) for i in range(n)]


def cascade(poles, zeros):
    res = []
    for i, p in enumerate(poles):
        r = 1.0
        for z in zeros:
            r *= p - z
        for j, q in enumerate(poles):
            if j != i:
                r /= p - q
        res.append(r)
    return PartialFractionSystem(tuple(zip(res, poles)))


def small_systems():
    """Banks, negated banks, alternating banks, cascades and random
    systems with negative poles, n = 2..8."""
    rng = np.random.default_rng(7)
    out = [PartialFractionSystem(((0.9, 0.9), (0.5, 0.5), (-0.1, 0.1)))]
    for n in range(2, 9):
        poles, res = even_poles(n), spread(n)
        out.append(PartialFractionSystem(tuple(zip(res, poles))))
        neg = list(res)
        neg[n // 2] = -neg[n // 2]
        out.append(PartialFractionSystem(tuple(zip(neg, poles))))
        alt = [(-1) ** i * r for i, r in enumerate(res)]
        out.append(PartialFractionSystem(tuple(zip(alt, poles))))
        out.append(cascade(poles, [-0.1 - 0.2 * i for i in range(n // 2)]))
        p = rng.uniform(-0.95, 0.95, n)
        out.append(PartialFractionSystem(
            tuple(zip(rng.uniform(-1.5, 1.5, n).tolist(), p.tolist()))))
    # Pole products that coincide exactly and nearly.
    out.append(PartialFractionSystem(
        ((1.0, 0.8), (0.5, 0.5), (0.7, 0.4), (0.3, 0.25), (0.2, 0.1))))
    return out


SYSTEMS = small_systems()


# ---------------------------------------------------------------------------
# Bit identity on fixed systems.


class TestScalarReferences:
    def test_constructor_matches_scalar(self):
        for pfs in SYSTEMS:
            raw = pfs.terms[::-1] + ((0.0, 0.123),)
            assert PartialFractionSystem(raw).terms == ref_terms(raw)

    def test_constructor_errors_match_scalar(self):
        for raw in (((1.0, float("nan")),), ((float("inf"), 0.5),),
                    ((1.0, 0.5), (2.0, 0.5 + 1e-14)),
                    ((1.0, 0.5), (0.0, 0.5), (2.0, -0.5))):
            assert outcome(lambda: PartialFractionSystem(raw).terms) == \
                outcome(ref_terms, raw)

    def test_compound_terms_match_scalar_every_order(self):
        for pfs in SYSTEMS:
            for j in range(1, len(pfs.terms) + 1):
                assert compound_transfer(pfs, j).terms == \
                    ref_compound_terms(pfs, j)

    def test_compound_reports_match_scalar_every_order(self):
        for pfs in SYSTEMS:
            for j in range(1, len(pfs.terms) + 1):
                comp = compound_transfer(pfs, j)
                for signed in (comp, comp.scaled(-1.0)):
                    assert repr(check_external(signed)) == \
                        repr(ref_check_external(signed))

    def test_scaled_matches_scalar(self):
        for pfs in SYSTEMS:
            for a in (-1.0, 0.5, 3.0, 0.0):
                assert pfs.scaled(a).terms == ref_terms(
                    tuple((a * r, p) for r, p in pfs.terms))


# ---------------------------------------------------------------------------
# Compound merges: whole runs, the sequential fallback, pairs and both
# dominance orders of the hand-over.


def grid_bank(n: int) -> PartialFractionSystem:
    """Poles n/(n+1), ..., 1/(n+1): products over index tuples whose
    integer products coincide agree to the last bits, so many merge in
    groups of two and of three or more."""
    return PartialFractionSystem(tuple(zip(
        spread(n), [(n - i) / (n + 1) for i in range(n)])))


def assert_compounds_match_scalar(pfs: PartialFractionSystem):
    for j in range(1, len(pfs.terms) + 1):
        got, want = compound_transfer(pfs, j).terms, ref_compound_terms(pfs,
                                                                         j)
        assert got == want
        assert repr(got) == repr(want)


class TestCompoundMerges:
    def test_grid_poles_every_order(self):
        sizes = collections.Counter()
        for n in range(10, 17):
            pfs = grid_bank(n)
            for j in range(2, n + 1):
                groups = ref_merged(pfs, j)
                sizes.update(min(len(parts), 3) for _, parts in groups)
                want = ref_terms(tuple((math.fsum(parts), pole)
                                       for pole, parts in groups))
                got = compound_transfer(pfs, j).terms
                assert got == want
                assert repr(got) == repr(want)
        assert sizes[2] > 1000 and sizes[3] > 1000

    def test_chain_wider_than_merge_tol_is_decided_step_by_step(self):
        # The pairs (0.8, 0.5), (0.9, d) and (0.6, f) have products about
        # 0.7e-12 apart: each step is within ZERO_TOL, the run spans more.
        d = (0.4 + 0.7e-12) / 0.9
        f = (0.4 + 1.4e-12) / 0.6
        pfs = PartialFractionSystem(tuple(zip(
            spread(6), (0.9, 0.8, 0.6, f, 0.5, d))))
        near = [(pole, parts) for pole, parts in ref_merged(pfs, 2)
                if abs(pole - 0.4) < 1e-10]
        assert [len(parts) for _, parts in near] == [2, 1]
        chain = sorted((0.8 * 0.5, 0.9 * d, 0.6 * f))
        assert all(b - a <= ZERO_TOL for a, b in zip(chain, chain[1:]))
        assert chain[-1] - chain[0] > ZERO_TOL
        assert_compounds_match_scalar(pfs)

    def test_mixed_signs_and_poles_above_one(self):
        pfs = PartialFractionSystem(tuple(zip(
            spread(8), (2.0, -1.5, 1.25, -0.8, 0.5, -0.4, 0.25, 0.1))))
        for j in range(2, 9):
            assert (np.array(compound_transfer(pfs, j).poles) <= 0).any()
        assert_compounds_match_scalar(pfs)

    def test_zero_products_keep_the_sign_of_the_first(self):
        # A zero pole makes products -0.0 and 0.0, which compare equal;
        # the merged term's pole is the one of the first in index order.
        for poles in ((0.0, 0.5, -0.5, -0.75, 0.9),
                      (0.9, -0.8, 0.6, 0.0, -0.3, 0.2, -0.1, 0.05)):
            pfs = PartialFractionSystem(tuple(zip(spread(len(poles)),
                                                  poles)))
            assert_compounds_match_scalar(pfs)

    def test_merge_that_cancels_to_zero_drops_the_term(self):
        # 0.8 * 0.25 == 0.5 * 0.4 == 0.2 exactly, and the residues of the
        # two products are exact negatives, so their group sums to 0.
        g_ab, g_cd = (0.8 - 0.25) ** 2, (0.5 - 0.4) ** 2
        positive = PartialFractionSystem(
            ((g_cd, 0.8), (-g_ab, 0.5), (1.0, 0.4), (1.0, 0.25)))
        # (+-0.8) * (+-0.5) meet at 0.4 and -0.4 with cancelling residues.
        mixed = PartialFractionSystem(
            ((1.0, 0.8), (-1.0, -0.8), (0.5, 0.5), (0.5, -0.5)))
        for pfs, poles in ((positive, (0.8 * 0.5, 0.8 * 0.4, 0.5 * 0.25,
                                       0.4 * 0.25)),
                           (mixed, (0.8 * -0.8, 0.5 * -0.5))):
            pair = compound_transfer(pfs, 2)
            assert pair.poles == poles
            assert_compounds_match_scalar(pfs)


# ---------------------------------------------------------------------------
# Random systems, including FIR tails, zero residues, negative poles and
# residues at +-theta.

poles_st = st.lists(st.floats(-0.95, 0.95), min_size=0, max_size=6,
                    unique=True)
residue_st = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))
fir_st = st.lists(st.one_of(st.just(0.0), st.floats(-1.0, 1.0)), max_size=4)
# Where a sample sits relative to theta: on it, or just beside it.
SIDES = (-1.0, 1.0, -1.0 - 2.0 ** -40, -1.0 + 2.0 ** -40, 1.0 + 2.0 ** -40)


def build(terms, fir: dict) -> PartialFractionSystem:
    span = max(fir, default=-1)
    try:
        return PartialFractionSystem(tuple(terms), Signal(
            0, tuple(fir.get(t, 0.0) for t in range(span + 1))))
    except UnsupportedRepresentationError:
        assume(False)


@st.composite
def systems_with_tolerance(draw):
    """A partial-fraction system and a tolerance; optionally a residue
    placed at +-theta, or g(1) placed at +-theta through the FIR tail."""
    tol = draw(st.sampled_from((ZERO_TOL, 1e-9, 1e-15)))
    poles = draw(poles_st)
    terms = [(draw(residue_st), p) for p in poles]
    start = draw(st.integers(0, 3))
    fir = {start + i: v for i, v in enumerate(draw(fir_st))}
    pfs = build(terms, fir)
    place = draw(st.sampled_from((None, "residue", "sample")))
    side = draw(st.sampled_from(SIDES))
    if place == "residue":
        theta = tol * _sample_scale(pfs, _weight(pfs)[0])
        pfs = build(terms + [(side * theta, draw(st.floats(-0.95, 0.95)))],
                    fir)
    elif place == "sample":
        rest = math.fsum(r for r, _ in terms)
        for _ in range(3):
            theta = tol * _sample_scale(pfs, _weight(pfs)[0])
            fir[1] = side * theta - rest
            pfs = build(terms, fir)
    return pfs, tol


class TestRandomSystems:
    @settings(max_examples=200, deadline=None)
    @given(systems_with_tolerance(), st.integers(1, 40),
           st.sampled_from((None, 1, 2, 3, 7)))
    def test_check_external_matches_scalar(self, case, horizon, rows):
        # ``rows`` caps a scan block at that many samples, so the powers
        # continue across block boundaries.  A prefix budget of 0 leaves
        # every t >= 1 to the blocks; the default one hands them what it
        # leaves undecided, from libm's powers.
        pfs, tol = case
        size = SCAN_BLOCK_BYTES if rows is None else 8 * rows * max(
            len(pfs.terms), 1)
        want = ref_check_external(pfs, horizon, tol)
        for prefix in (0, PREFIX_TERMS):
            with mock.patch.object(vardim.positivity, "SCAN_BLOCK_BYTES",
                                   size), \
                    mock.patch.object(vardim.positivity, "ZERO_TOL", tol), \
                    mock.patch.object(vardim.positivity, "PREFIX_TERMS",
                                      prefix):
                rep = check_external(pfs, horizon)
            assert repr(rep) == repr(want)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(residue_st, st.one_of(
        st.floats(-0.95, 0.95),
        st.sampled_from((0.9, 0.8, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, -0.4)))),
        min_size=2, max_size=7, unique_by=lambda rp: rp[1]))
    def test_compounds_match_scalar(self, terms):
        # Grid poles make pole products coincide exactly or nearly.
        pfs = build(terms, {})
        for j in range(1, len(pfs.terms) + 1):
            assert outcome(lambda: compound_transfer(pfs, j).terms) == \
                outcome(ref_compound_terms, pfs, j)


# ---------------------------------------------------------------------------
# Guard band, memory and the regressions.


class TestGuardBand:
    # g(1) = 1 + r - 1 = r exactly, but numpy's sum rounds 1 + r first and
    # lands on the other side of -theta.
    PFS = PartialFractionSystem(((1.0, 0.9), (-2.000010000002e-12, 0.5),
                                 (-1.0, 0.3)))

    def test_case_straddles_the_threshold(self):
        weight = _weight(self.PFS)[0]
        theta = ZERO_TOL * _sample_scale(self.PFS, weight)
        scan = _SampleScan(self.PFS, theta, weight)
        ts, approx, bound, _, _ = next(scan._blocks(1))
        assert ts.tolist() == [0, 1]
        exact = partial_fraction_samples(self.PFS.terms, self.PFS.fir, (1,))[0]
        assert exact < -theta < approx[1]
        assert abs(approx[1] + theta) <= bound[1]

    def test_exact_sample_decides(self):
        # Without the prefix, the blocks reach the band at t = 1.
        with mock.patch.object(vardim.positivity, "PREFIX_TERMS", 0):
            rep = check_external(self.PFS)
        assert rep.verdict == REFUTED
        assert rep.witness == {"kind": "negative-sample", "time": 1,
                               "value": -2.000010000002e-12}
        assert repr(rep) == repr(ref_check_external(self.PFS))

    def test_prefix_decides_without_the_band(self):
        with mock.patch.object(_SampleScan, "_blocks",
                               side_effect=AssertionError):
            rep = check_external(self.PFS)
        assert repr(rep) == repr(ref_check_external(self.PFS))


def wide_straddle() -> PartialFractionSystem:
    """400 terms in 20 chunks of 20 columns.  g(1) = 1 + r - 1 + 397e-25
    with 1 and r in the first chunk and -1 in the second, so the chunked
    sum rounds 1 + r and lands above -theta, while the exact sample lies
    below it."""
    terms = [(1.0, 0.995), (-2.000006938895904e-12, 0.99)] + [
        (1e-25, p) for p in np.linspace(0.97, 0.02, 398).tolist()]
    terms[20] = (-1.0, terms[20][1])
    return PartialFractionSystem(tuple(terms))


class TestWideGuardBand:
    PFS = wide_straddle()

    def test_case_straddles_the_threshold_inside_the_band(self):
        weight = _weight(self.PFS)[0]
        theta = ZERO_TOL * _sample_scale(self.PFS, weight)
        scan = _SampleScan(self.PFS, theta, weight)
        assert len(self.PFS.arrays[0]) == 400
        assert (scan.s, scan.c) == (20, 20)
        ts, approx, bound, _, _ = next(scan._blocks(1))
        exact = partial_fraction_samples(self.PFS.terms, self.PFS.fir, (1,))[0]
        assert exact < -theta < approx[1]
        assert abs(approx[1] + theta) <= bound[1]

    def test_exact_sample_decides(self):
        with mock.patch.object(vardim.positivity, "PREFIX_TERMS", 0):
            rep = check_external(self.PFS)
        exact = partial_fraction_samples(self.PFS.terms, self.PFS.fir, (1,))[0]
        assert rep.verdict == REFUTED
        assert rep.witness == {"kind": "negative-sample", "time": 1,
                               "value": exact}
        assert repr(rep) == repr(ref_check_external(self.PFS))


@st.composite
def dominated_systems(draw):
    """A system whose leading pole p1 > 0 (up to 3) and residue r1 > 0
    have the strict gap that tail dominance needs, other poles of either
    sign (some just past the gap), an optional FIR tail, a horizon and a
    zero level down to 1e-200 of the scale."""
    p1 = draw(st.floats(1e-3, 3.0))
    terms = [(draw(st.floats(0.01, 2.0)), p1)]
    ratios = draw(st.lists(st.one_of(st.floats(0.0, 0.999), st.sampled_from(
        (1.0 - 2e-9, 1.0 - 1e-8, 1.0 - 1e-6))), max_size=6, unique=True))
    for ratio in ratios:
        sign = draw(st.sampled_from((1.0, -1.0)))
        terms.append((draw(st.floats(-2.0, 2.0)), sign * ratio * p1))
    start = draw(st.integers(0, 3))
    fir = {start + i: v for i, v in enumerate(draw(fir_st))}
    pfs = build(terms, fir)
    tol = draw(st.sampled_from((ZERO_TOL, 1e-15, 1e-200)))
    return pfs, tol, draw(st.integers(1, 200))


class TestPrefix:
    @settings(max_examples=300, deadline=None)
    @given(dominated_systems())
    def test_early_stop_agrees_with_a_block_only_scan(self, case):
        # check_external's scan of this system, up to the last finite
        # sample at or before the horizon.
        pfs, tol, horizon = case
        (r1, p1), rest = pfs.terms[0], pfs.terms[1:]
        assume(r1 > 0 and p1 > 0 and all(
            p1 - abs(p) > SLACK_TOL * max(1.0, p1) for _, p in rest))
        weight, rho = _weight(pfs)
        theta = tol * _sample_scale(pfs, weight)
        fir_end = pfs.fir.support_end if len(pfs.fir) else 0
        stop = _finite_stop(rho, weight, max(horizon, fir_end + 1))
        start = max(1, fir_end + 1)
        scan = _SampleScan(pfs, theta, weight)
        t0, neg, t_star = scan.run(stop, dominance_from=start)
        # Only where the prefix certified at t* and stopped short of stop.
        assume(t_star is not None and scan.next <= stop
               and scan.power is None)
        assert neg is None
        with mock.patch.object(vardim.positivity, "PREFIX_TERMS", 0):
            blocks = _SampleScan(pfs, theta, weight).run(
                stop, dominance_from=start)
        assert blocks == (t0, None, t_star)
        g = partial_fraction_samples(pfs.terms, pfs.fir, range(stop + 1))
        assert len(g) == stop + 1 and min(g) >= -theta

    def test_small_system_builds_no_kernel(self):
        pfs = PartialFractionSystem(((1.0, 0.9), (0.5, 0.5), (-0.1, 0.1)))
        weight = _weight(pfs)[0]
        scan = _SampleScan(pfs, ZERO_TOL * weight, weight)
        assert scan.run(64, dominance_from=1) == (1, None, 1)
        assert scan.power is None and scan.next == 2

    def test_subnormal_lead_does_not_stop_the_scan(self):
        # At t = 2 the lead 13.5 u rounds up to 14 u and each tail term
        # 1.5 u down to u, so the exact test sees dominance, 14 u > 10 u,
        # where the tail is 15 u.  The samples then fall like -1.5**t u,
        # below -theta = -1e-312 from t = 66 on.  The lead is below
        # ``tiny``, so the scan goes on and finds them.
        u = 2.0 ** -1074
        pfs = PartialFractionSystem(
            ((9 * u, 1.5),) + tuple((-u, 1.5 * (1 - 2e-9 * i))
                                    for i in range(1, 11)),
            Signal(0, (1e-300,)))
        weight = _weight(pfs)[0]
        scan = _SampleScan(pfs, ZERO_TOL * _sample_scale(pfs, weight), weight)
        assert scan.lead_tail(2) == (14 * u, 10 * u)
        rep = check_external(pfs, 200)
        assert rep.verdict == REFUTED and rep.witness["time"] == 66
        assert repr(rep) == repr(ref_check_external(pfs, 200))

    def test_cancelling_sample_gives_up_to_the_blocks(self):
        # g(1) = 1 - 1 = 0 before any sample clears theta: the blocks take
        # over at t = 1 and find t0 = 2.
        pfs = PartialFractionSystem(((1.0, 0.9), (-1.0, 0.5)))
        starts = []
        blocks = _SampleScan._blocks

        def recording(self, stop):
            starts.append(self.next)
            return blocks(self, stop)

        with mock.patch.object(_SampleScan, "_blocks", recording):
            rep = check_external(pfs)
        assert starts == [1]
        assert rep.t0 == 2 and rep.verdict == CERTIFIED
        assert repr(rep) == repr(ref_check_external(pfs))


class TestScanCost:
    def test_order_eight_compound_of_sixteen_within_budget(self):
        bank = PartialFractionSystem(tuple(zip(spread(16), even_poles(16))))
        comp = compound_transfer(bank, 8)
        tracemalloc.start()
        try:
            rep = check_external(comp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.verdict == CERTIFIED
        # One 2 MiB block plus the exact lead and tail lists; all 64 samples
        # of all 11 946 terms at once would take 6 MiB.
        assert peak < 4 << 20


class TestUnreachableModes:
    # canonical drops the unreachable modes, leaving the term at 0.9.
    @pytest.mark.parametrize("poles", [(0.9, 0.5), (0.9, 0.5, 0.2)])
    def test_k_above_canonical_order_uses_total_characterization(
            self, poles):
        n = len(poles)
        ss = StateSpace(np.diag(poles), [1.0] + [0.0] * (n - 1), [1.0] * n)
        one_term = PartialFractionSystem(((1.0, 0.9),))
        for k in range(2, n + 1):
            rep = check_hankel_k(ss, k)
            assert rep.verdict == CERTIFIED
            assert repr(rep) == repr(check_hankel_k(one_term, k))
