"""System-level positivity verdicts with certificates and witnesses.

Exact external positivity is undecidable at reasonable cost, so every
check returns one of three tiers: ``refuted`` (with a concrete witness),
``certified`` (with a finitely checkable certificate, typically geometric
tail dominance of the leading pole), or ``holds-to-horizon`` when samples
are clean but no structural certificate applies.  ``unsupported`` marks
inputs outside the hypotheses of the finite reductions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from sys import float_info
from typing import Optional

import numpy as np

from .compound import compound_impulse, compound_transfer, reversal_sign
from .errors import (BudgetExceededError, StructuralError,
                     UnsupportedRepresentationError)
from .exact import serial_lag
from .lti import (DEFAULT_HORIZON, PartialFractionSystem,
                  RationalTransferFunction, canonical, dominance_key,
                  hankel_matrix, impulse_response, overflow_error,
                  partial_fraction_samples, pole_residue_form, recombine,
                  require_horizon, toeplitz_matrix)
from .signals import Signal
from .tolerance import SLACK_TOL, ZERO_TOL
from .totpos import is_pd, is_psd, minor_zero_threshold

CERTIFIED = "certified"
HOLDS = "holds-to-horizon"
REFUTED = "refuted"
UNSUPPORTED = "unsupported"

# How far the sampler is willing to extend past the horizon to pin a
# concrete negative sample for structurally refuted systems.
WITNESS_SEARCH_CAP = 1 << 18
# Bytes of terms one block of the guarded sample scan holds at most (one
# float64 array of block length x term count, reused block to block).
SCAN_BLOCK_BYTES = 1 << 21
# Exact terms the guarded sample scan sums at most before its block kernel
# runs: its prefix covers t = 0..PREFIX_TERMS // m of an m-term system.
PREFIX_TERMS = 160

EXTERNAL = "external"
HANKEL_K = "hankel-k"
TOEPLITZ_K = "toeplitz-k"
HANKEL_TOTAL = "hankel-total"
TOEPLITZ_TOTAL = "toeplitz-total"

_NO_FIR = Signal()


@dataclass(frozen=True)
class PositivityReport:
    """Verdict record emitted by every system-level check.

    ``details`` lists the sub-checks that ran, in order, up to and
    including the first refuted one.
    """

    property_name: str
    k: Optional[int]
    verdict: str
    horizon: int
    certificate: Optional[str] = None
    witness: Optional[dict] = None
    t0: Optional[int] = None
    details: tuple = ()

    def __post_init__(self):
        if self.verdict == REFUTED and self.witness is None:
            raise ValueError("refuted reports need a concrete witness")
        if self.verdict == CERTIFIED and self.certificate is None:
            raise ValueError("certified reports need a certificate")


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_report(report: PositivityReport, indent: str = "") -> str:
    """Stable key-value serialization with a nested witness block."""
    lines = [
        f"{indent}property: {report.property_name}",
        f"{indent}k: {report.k if report.k is not None else 'none'}",
        f"{indent}verdict: {report.verdict}",
        f"{indent}horizon: {report.horizon}",
        f"{indent}t0: {report.t0 if report.t0 is not None else 'none'}",
        f"{indent}certificate: {report.certificate or 'none'}",
    ]
    if report.witness:
        lines.append(f"{indent}witness:")
        for key, value in report.witness.items():
            lines.append(f"{indent}  {key}: {_fmt(value)}")
    else:
        lines.append(f"{indent}witness: none")
    if report.details:
        lines.append(f"{indent}checks:")
        for sub in report.details:
            lines.append(f"{indent}  - property: {sub.property_name} "
                         f"k: {sub.k} verdict: {sub.verdict}")
    return "\n".join(lines)


def _first_nonzero_time(g: Signal, tol: float,
                        end: int) -> Optional[int]:
    return next((t for t in range(g.support_start,
                                  min(g.support_end, end) + 1)
                 if abs(g.value(t)) > tol), None)


def _finite_response(sys, stop: int) -> Signal:
    """``impulse_response(sys, stop)``, or its samples before the first one
    that leaves the doubles; layers that read past them raise
    (``_reaching``)."""
    try:
        return impulse_response(sys, stop)
    except BudgetExceededError as exc:
        if exc.time < 2:  # no sample past g(0) is finite
            raise
        return impulse_response(sys, exc.time - 1)


def _reaching(g: Signal, stop: int) -> Signal:
    """Samples g from ``_finite_response`` that a layer reads up to t =
    ``stop``; BudgetExceededError as ``impulse_response`` raises it when g
    ends before ``stop``, at a sample that left the doubles."""
    if g.support_end < stop:
        raise overflow_error(g.support_end + 1)
    return g


def _weight(pfs: PartialFractionSystem) -> tuple:
    """sum|r| (``math.fsum``) and rho = max|p| over the terms of a
    partial-fraction system, each read once from its arrays."""
    r, p = pfs.arrays
    return math.fsum(np.abs(r).tolist()), float(np.abs(p).max(initial=0.0))


def _sample_scale(pfs: PartialFractionSystem, weight: float) -> float:
    """sum|r| plus sum|FIR| (one ``math.fsum``), at least 1e-300, given
    weight = sum|r| from ``_weight``."""
    if len(pfs.fir):
        parts = np.abs(pfs.arrays[0]).tolist()
        parts.extend(abs(v) for v in pfs.fir.values)
        weight = math.fsum(parts)
    return max(weight, 1e-300)


class _SampleScan:
    """Guarded scan of the samples g(t) of a partial-fraction system against
    the thresholds ``check_external`` uses.

    A scan first decides what it can from exact samples alone (the
    prefix, see ``run``); the block kernel below takes over where the
    prefix ends undecided, and builds its state only then.

    numpy forms the terms r * p**(t-1) for a block of consecutive t at a
    time and sums them.  A block doubles its rows with the squares p**2,
    p**4, ...; row t then holds p**(t-1) as a product of t - 1 rounded
    factors, as many as repeated multiplication from t = 1 takes.  A
    kernel that first runs at t = T > 1, after the prefix, starts from
    libm's p**(T-1): exact at T = 2, else within one ulp, which is no more
    than T - 1 rounded factors can err.  The m terms of a row sit in c
    chunks of s columns, s = isqrt(m - 1) + 1 and c = ceil(m / s),
    zero-padded to c * s; a row is summed chunk by chunk, then over its c
    chunk sums, each level one matrix-vector product with ones.  With
    u = 2**-53, a sum of s terms in any order is within (s - 1) u of their
    summed magnitudes (Higham, ch. 4), so the bound holds whatever order
    the product adds in, and a row sum plus the FIR sample adds at most
    (s + c) u, about 2 sqrt(m) u instead of (m + 1) u.  Each approximate
    term is within (t + 1) u of the exact term, and the exact sample
    ``partial_fraction_samples`` (libm pow within one ulp, one product, a
    correctly rounded sum) is within 4 u of the exact value, so the two
    differ by at most

        B(t) = (t + s + c + 7) * 2**-52 * W(t) + (t + 3) * (m + 1)
               * 2**-1074 * max(1, max|r|),

    W(t) being the computed sum of |terms| and the last part covering
    underflow.  The tail (the |terms| with the leading one zeroed) is
    summed the same way.  A sample whose approximation lies within B(t) of
    a threshold, or is not finite, is re-decided from its exact value, so
    every decision equals the one the exact samples give.  Blocks hold at
    most ``SCAN_BLOCK_BYTES`` of terms; later scans continue the powers
    where the previous one stopped.
    """

    def __init__(self, pfs: PartialFractionSystem, theta: float,
                 weight: float):
        self.pfs = pfs
        self.theta = theta
        self.r, self.p = pfs.arrays
        m = len(self.r)
        self.s = math.isqrt(max(m, 1) - 1) + 1
        self.c = -(-m // self.s)
        # The least lead at t* that stops the prefix early (see ``run``).
        self.tiny = (weight + m) * 2.0 ** -1010
        self.power = None  # the block kernel's state, built by _kernel
        self.next = 0
        self._exact = {}

    @cached_property
    def _lists(self) -> tuple:
        return self.r.tolist(), self.p.tolist()

    def sample(self, t: int) -> float:
        if t not in self._exact:
            terms = zip(*self._lists) if t >= 1 else ()
            self._exact[t] = partial_fraction_samples(terms, self.pfs.fir,
                                                      (t,))[0]
        return self._exact[t]

    @cached_property
    def _magnitudes(self) -> tuple:
        return np.abs(self.r[1:]).tolist(), np.abs(self.p[1:]).tolist()

    def lead_tail(self, t: int) -> tuple:
        """Leading term and the sum of the other terms' magnitudes at t."""
        lead = partial_fraction_samples(
            zip(self.r[:1].tolist(), self.p[:1].tolist()), _NO_FIR, (t,))
        tail = partial_fraction_samples(zip(*self._magnitudes), _NO_FIR,
                                        (t,))
        return lead[0], tail[0]

    def dominates(self, t: int) -> bool:
        lead, tail = self.lead_tail(t)
        return lead > tail

    def _kernel(self):
        """The block kernel's state: residues and poles zero-padded to the
        chunked width, the powers p**(t-1) at the first t >= max(next, 1),
        and the vectors of ones."""
        m, s, c = len(self.r), self.s, self.c
        width = c * s
        self.rows = max(1, SCAN_BLOCK_BYTES // (8 * max(width, 1)))
        self.floor = (m + 1) * 2.0 ** -1074 * float(
            np.abs(self.r).max(initial=1.0))
        self.padded = np.zeros((2, width))
        self.padded[0, :m] = self.r
        self.padded[1, :m] = self.p
        self.power = np.ones(width)
        e = max(self.next, 1) - 1
        if e:
            self.power[:m] = [p ** e for p in self._lists[1]]
        self.ones = np.ones(s), np.ones(c)

    def _blocks(self, stop: int):
        """Yield (t, approximate g, bound, lead, tail) arrays for blocks of
        t from ``next`` up to ``stop``; t = 0 has no pole terms."""
        if self.next > stop:
            return
        if self.power is None:
            self._kernel()
        fir = self.pfs.fir
        m, s, c = len(self.r), self.s, self.c
        r, p = self.padded
        ones_s, ones_c = self.ones

        def row_sums(q):
            # Chunk sums, then the sum of each row's chunk sums.
            return q.reshape(-1, s).dot(ones_s).reshape(len(q), c).dot(ones_c)

        buf = np.empty((min(self.rows, stop - self.next + 1), c * s))
        while self.next <= stop:
            ts = np.arange(self.next, min(self.next + self.rows, stop + 1))
            q = buf[:len(ts)]
            first = 1 if ts[0] == 0 else 0  # the row of the first t >= 1
            q[:first] = 0.0
            if first < len(q):
                q[first] = self.power
                # Doubling: the rows so far times p**(2**i), itself formed
                # by repeated squaring, fill as many rows again.
                step, k = p, first + 1
                while True:
                    end = min(2 * k - first, len(q))
                    np.multiply(q[first:first + end - k], step, out=q[k:end])
                    if end == len(q):
                        break
                    step, k = step * step, end
                self.power = q[-1] * p
            self.next = int(ts[-1]) + 1
            q *= r
            lead = q[:, 0].copy() if m else np.zeros(len(ts))
            g = row_sums(q)
            np.abs(q, out=q)
            if m:
                q[:, 0] = 0.0
            tail = row_sums(q)
            w = tail + np.abs(lead)
            lo = max(int(ts[0]), fir.support_start)
            hi = min(int(ts[-1]), fir.support_end)
            if lo <= hi:  # FIR samples in this block
                f = np.zeros(len(ts))
                f[lo - ts[0]:hi - ts[0] + 1] = fir.values[
                    lo - fir.support_start:hi - fir.support_start + 1]
                g += f
                w += np.abs(f)
            bound = (ts + (s + c + 7)) * 2.0 ** -52 * w + (ts + 3) * self.floor
            yield ts, g, bound, lead, tail

    @staticmethod
    def _first(ts, certain, near, exact) -> Optional[int]:
        """First t that is certain, or near the threshold and ``exact``."""
        for i in np.flatnonzero(certain | near).tolist():
            t = int(ts[i])
            if not near[i] or exact(t):
                return t
        return None

    def run(self, stop: int, t0: Optional[int] = None,
            dominance_from: Optional[int] = None) -> tuple:
        """Scan on from the last sample scanned up to ``stop``: t0 (unless
        already known), the first negative sample and the first
        tail-dominance time t* from ``dominance_from``.  The scan ends at
        the first negative sample.  ``dominance_from`` may be given only
        for a leading term r1 p1**(t-1) with r1 > 0, p1 > 0 and
        p1 - |p| > SLACK_TOL * max(1, p1) for every other pole p, and no
        FIR sample from it on.

        The prefix decides t = next..min(stop, PREFIX_TERMS // m) in order
        from exact samples and exact dominance tests.  It gives up at the
        first t >= 1 at which no sample has yet cleared theta, where a wide
        compound cancels, so t0 is known by the time t* is.  It returns at
        the first negative sample, and at t* when the lead there and theta
        are at least ``tiny``: no later sample can then fall below -theta
        (README, "Compound check cost").  The blocks scan what the prefix
        leaves.
        """
        theta = self.theta
        t_star = None
        end = min(stop, PREFIX_TERMS // max(len(self.r), 1))
        while self.next <= end:
            t = self.next
            g = self.sample(t)
            if t0 is None and abs(g) > theta:
                t0 = t
            if g < -theta:
                return t0, t, None
            if t0 is None and t >= 1:
                break
            self.next = t + 1
            if (t_star is None and dominance_from is not None
                    and t >= dominance_from):
                lead, tail = self.lead_tail(t)
                if lead > tail:
                    t_star = t
                    if self.tiny <= min(lead, theta):
                        return t0, None, t_star
        for ts, g, bound, lead, tail in self._blocks(stop):
            lo, hi = g + theta, g - theta
            near_lo = ~(np.abs(lo) > bound)
            if t0 is None:
                t0 = self._first(
                    ts, ((lo < 0) | (hi > 0)), near_lo | ~(np.abs(hi) > bound),
                    lambda t: abs(self.sample(t)) > theta)
            neg = self._first(ts, lo < 0, near_lo,
                              lambda t: self.sample(t) < -theta)
            if neg is not None:
                return t0, neg, None
            if dominance_from is not None and t_star is None:
                live = ts >= dominance_from
                d = lead - tail
                t_star = self._first(
                    ts, (d > 0) & live, ~(np.abs(d) > bound) & live,
                    self.dominates)
        return t0, None, t_star


def _finite_stop(rho: float, weight: float, stop: int) -> int:
    """``stop``, or with rho > 1 the last t at which max(1, weight)
    rho^(t+1) is below the largest double if that comes first, so that
    every power, term and sum of the samples up to it is finite (rho and
    weight = sum|r| from ``_weight``)."""
    if rho <= 1.0:
        return stop
    return min(stop, int(math.log(float_info.max / max(1.0, weight))
                         / math.log(rho)) - 1)


def _witness_horizon(rho: float, weight: float, fir_end: int, start: int,
                     tol: float) -> int:
    """Last sample the witness search examines: the first of the horizons
    max(start, 8) * 4**i (up to ``WITNESS_SEARCH_CAP``) at which the bound
    weight rho^(t-1) is at most tol/2, past the FIR support (ending at
    ``fir_end``) with rho <= 1 (no later sample can then fall below
    -tol), else the last of them, or 0 when even the first exceeds the
    cap; never past ``_finite_stop``."""
    horizon = max(start, 8)
    last = 0
    while horizon <= WITNESS_SEARCH_CAP:
        last = horizon
        if (rho <= 1.0 and horizon > fir_end
                and weight * rho ** (horizon - 1) <= tol / 2):
            break
        horizon *= 4
    return _finite_stop(rho, weight, last)


def check_external(sys, horizon: int = DEFAULT_HORIZON) -> PositivityReport:
    """Three-tier external positivity check.

    The samples of a partial-fraction system up to the horizon are scanned
    first, and a negative one refutes; on unstable systems the scan stops
    at the last sample that is still a finite double.  A strictly dominant
    simple real pole with a positive leading residue earns a geometric tail
    certificate as soon as the scan finds the time t* from which the
    leading term outweighs the others.  Without a certificate the search
    for a negative sample goes on past the horizon: negative or
    sign-alternating dominant dynamics, or a real zero at or above the
    dominant pole, force one at finite time.  It refutes with the sample it finds (witness kind
    ``dominant-structure`` for a negative dominant pole or residue,
    ``negative-sample`` otherwise), or ends ``holds-to-horizon``.  Systems
    convertible only to state-space or rational form are sampled.
    """
    require_horizon(horizon)
    pfs = canonical(sys)
    if not isinstance(pfs, PartialFractionSystem):
        return _check_external_sampled(impulse_response(sys, horizon), horizon)
    weight, rho = _weight(pfs)
    theta = ZERO_TOL * (_sample_scale(pfs, weight) if not pfs.is_zero()
                        else 1.0)
    fir_end = pfs.fir.support_end if len(pfs.fir) else 0
    need = max(horizon, fir_end + 1)
    dominance_from = None
    residues, poles = pfs.arrays
    if len(residues):
        r1, p1 = float(residues[0]), float(poles[0])
        if r1 > 0 and p1 > 0 and bool(np.all(
                p1 - np.abs(poles[1:]) > SLACK_TOL * max(1.0, p1))):
            dominance_from = max(1, fir_end + 1)
    scan = _SampleScan(pfs, theta, weight)
    stop = _finite_stop(rho, weight, need)
    t0, neg, t_star = scan.run(stop, dominance_from=dominance_from)
    if neg is not None:
        return PositivityReport(
            EXTERNAL, 1, REFUTED, horizon, t0=t0,
            witness={"kind": "negative-sample", "time": neg,
                     "value": scan.sample(neg)})

    if pfs.is_zero() or (t0 is None and stop == need):
        return PositivityReport(
            EXTERNAL, 1, CERTIFIED, horizon, t0=t0,
            certificate="impulse response identically zero")

    if not len(residues):
        # Pure FIR tail: the sampled window covers the whole support.
        return PositivityReport(
            EXTERNAL, 1, CERTIFIED, horizon, t0=t0,
            certificate=f"finite support exhausted at t="
                        f"{pfs.fir.support_end}")

    if t_star is not None:
        lead, tail = scan.lead_tail(t_star)
        return PositivityReport(
            EXTERNAL, 1, CERTIFIED, horizon, t0=t0,
            certificate=(f"tail dominance from t={t_star}: "
                         f"{_fmt(lead)} > {_fmt(tail)} and samples "
                         f"nonnegative up to t={t_star}"))

    found = scan.run(_witness_horizon(rho, weight, fir_end, need, theta),
                     t0)[1]
    if found is None:
        return PositivityReport(EXTERNAL, 1, HOLDS, horizon, t0=t0)
    witness = {"kind": "negative-sample"}
    if p1 < 0 or r1 < 0:
        witness = {"kind": "dominant-structure",
                   "reason": ("dominant pole negative" if p1 < 0 else
                              "dominant residue nonpositive"),
                   "pole": p1, "residue": r1}
    witness.update({"time": found, "value": scan.sample(found)})
    return PositivityReport(EXTERNAL, 1, REFUTED, horizon, t0=t0,
                            witness=witness)


def _zero_level(g: Signal, end: int) -> float:
    """Zero level of samples without a partial-fraction form: ``ZERO_TOL``
    times the largest of 1 and |g(t)| up to t = end."""
    x = g.to_array()[:end + 1 - g.support_start]
    return ZERO_TOL * max(1.0, float(np.max(np.abs(x))))


def _check_external_sampled(g: Signal, horizon: int) -> PositivityReport:
    """Sign test of the samples of g up to the horizon; later ones are not
    read."""
    theta = _zero_level(g, horizon)
    t0 = _first_nonzero_time(g, theta, horizon)
    for t in range(horizon + 1):
        if g.value(t) < -theta:
            return PositivityReport(
                EXTERNAL, 1, REFUTED, horizon, t0=t0,
                witness={"kind": "negative-sample", "time": t,
                         "value": g.value(t)})
    return PositivityReport(EXTERNAL, 1, HOLDS, horizon, t0=t0)


def _compound_reach(form, j: int, horizon: int) -> int:
    """Last sample of a canonical form that its order-j compound reads: 0
    for a partial-fraction form read as residues and poles (at j = 1, or
    with no FIR tail), else horizon + 2j - 2."""
    if isinstance(form, PartialFractionSystem) and (j == 1
                                                    or not len(form.fir)):
        return 0
    return horizon + 2 * j - 2


def check_hankel_k(sys, k: int,
                   horizon: int = DEFAULT_HORIZON) -> PositivityReport:
    """Order-k check for the past-to-future operator.

    Applies the finite reduction: the order-(k-1) windows at offsets 1 and
    2 must be positive (semi)definite and the k-th compound system must be
    externally positive; a refuted window ends the check before the
    compound is built.  For k above the order of the canonical form (modes
    without residue dropped), and for partial-fraction inputs that it
    certifies, the total-positivity characterization is used: it reads
    their residues and poles as given, so its sign test is exact for them.
    """
    require_horizon(horizon)
    if k < 1:
        raise ValueError("k must be >= 1")
    form = canonical(sys)
    if k > form.order or isinstance(sys, PartialFractionSystem):
        total = check_hankel_total(form, horizon)
        if k > form.order or total.verdict == CERTIFIED:
            return replace(total, property_name=HANKEL_K, k=k)

    # One sampling of sys serves the zero level, t0, the windows (which
    # read g(1..2k-2)) and the compound.  A converted form is a pure
    # partial-fraction form, whose compound reads no samples (reach 0).
    need = max(horizon, 2 * k + 2)
    reach = _compound_reach(form, k, horizon)
    pfs = isinstance(form, PartialFractionSystem)
    stop = max(1, 2 * k - 2) if pfs else need
    g = _reaching(_finite_response(sys, max(stop, reach)), stop)
    if pfs:
        # check_external's zero level.  t0 is looked for up to the last
        # finite sample, but past the windows only when none clears it.
        weight, rho = _weight(form)
        theta = ZERO_TOL * _sample_scale(form, weight)
        t0_end = max(stop, _finite_stop(rho, weight, need))
    else:
        theta = _zero_level(g, need)
        t0_end = need
    t0 = _first_nonzero_time(g, theta, t0_end)
    if t0 is None and g.support_end < t0_end:
        g = _reaching(_finite_response(sys, t0_end), t0_end)
        t0 = _first_nonzero_time(g, theta, t0_end)
    for offset, test, kind in ((1, is_pd, "definite"),
                               (2, is_psd, "semidefinite")):
        if k >= 2 and not test(hankel_matrix(g, offset, k - 1)):
            return PositivityReport(
                HANKEL_K, k, REFUTED, horizon, t0=t0,
                witness={"kind": f"window-not-positive-{kind}",
                         "offset": offset, "order": k - 1})

    sub = _compound_external(form, k, horizon, 1, g)
    witness = {**sub.witness, "compound-order": k} if sub.witness else None
    certificate = None
    if sub.verdict == CERTIFIED:
        certificate = (f"windows at offsets 1,2 definite and compound "
                       f"order {k} externally positive ({sub.certificate})")
    return PositivityReport(HANKEL_K, k, sub.verdict, horizon,
                            certificate=certificate, witness=witness,
                            t0=t0, details=(sub,))


def check_toeplitz_k(sys, k: int,
                     horizon: int = DEFAULT_HORIZON) -> PositivityReport:
    """Order-k check for the causal convolution operator.

    A num/den input with no pole at zero and k - 1 at most its order is
    first decided exactly (``_serial_lag_report``).  Otherwise the
    (k-1)-th largest pole must be nonzero (else the finite reduction does
    not apply and the verdict is ``unsupported``).  The sign-adjusted
    compounds of orders 1..k must be externally positive and the initial
    Toeplitz windows strictly positive.  The compounds are checked in
    order, and the first refuted one ends the check with its witness and
    order; the windows are tested only when none is refuted.  t0 is that
    of the order-1 compound, the system itself.
    """
    require_horizon(horizon)
    if k < 1:
        raise ValueError("k must be >= 1")
    if (isinstance(sys, RationalTransferFunction) and sys.den[-1] != 0.0
            and k - 1 <= sys.order):
        exact = _serial_lag_report(sys, k, horizon)
        if exact is not None:
            return exact
    form = canonical(sys)
    poles = _pole_magnitudes(form)
    if k >= 2 and (k - 1 > len(poles) or abs(poles[k - 2]) <= ZERO_TOL):
        return PositivityReport(TOEPLITZ_K, k, UNSUPPORTED, horizon)

    # One sampling of form serves every compound that reads samples and
    # the initial windows (g(0..2k-4)); with none, the windows sample it
    # once the ladder has passed.
    reach = _compound_reach(form, min(k, form.order), horizon)
    g = _finite_response(form, max(reach, 2 * k - 4)) if reach else None
    details = []
    for j in range(1, k + 1):
        sub = _compound_external(form, j, horizon, reversal_sign(j), g)
        if j == 1 and sub.t0 is None:
            # No sample rises above the zero level.  Only a certified
            # order-1 check has shown the response to be zero.
            return PositivityReport(
                TOEPLITZ_K, k, sub.verdict, horizon, t0=None,
                certificate=("impulse response identically zero"
                             if sub.verdict == CERTIFIED else None))
        details.append(sub)
        if sub.verdict == REFUTED:
            return PositivityReport(
                TOEPLITZ_K, k, REFUTED, horizon, t0=details[0].t0,
                witness={**sub.witness, "compound-order": j},
                details=tuple(details))

    t0 = details[0].t0
    if g is None:
        g = _finite_response(form, max(1, 2 * k - 4))
    witness = _initial_window_witness(_reaching(g, 2 * k - 4), k, t0)
    certificate = None
    if witness is not None:
        verdict = REFUTED
    elif any(sub.verdict == HOLDS for sub in details):
        verdict = HOLDS
    else:
        verdict = CERTIFIED
        certificate = (f"sign-adjusted compounds of orders 1..{k} externally "
                       f"positive and initial windows positive")
    return PositivityReport(TOEPLITZ_K, k, verdict, horizon,
                            certificate=certificate, witness=witness,
                            t0=t0, details=tuple(details))


def _serial_lag_report(rtf: RationalTransferFunction, k: int,
                       horizon: int) -> Optional[PositivityReport]:
    """Order-k verdict of a num/den input decided on its coefficients as
    given, or None when they decide nothing.  D is monic, so the first
    sample is g(t0) = num[0] exactly, at t0 = deg D - deg N.

    * A negative numerator (num[0] < 0 and no coefficient above zero)
      refutes at order 1 with that sample.  Whichever leading numerator
      coefficients are read as rounding noise, the first sample left is
      negative, so the refutation never rests on the sign of a cancelled
      term alone.
    * The exact serial-lag test (``exact.serial_lag``) with D squarefree
      certifies every order: the Toeplitz operator is totally positive.
    """
    num, den = rtf.num, rtf.den
    t0 = len(den) - len(num)
    if num[0] < 0.0:
        if max(num) > 0.0:
            return None
        sample = {"kind": "negative-sample", "time": t0, "value": num[0]}
        sub = PositivityReport(EXTERNAL, 1, REFUTED, horizon, t0=t0,
                               witness=sample)
        return PositivityReport(TOEPLITZ_K, k, REFUTED, horizon, t0=t0,
                                witness={**sample, "compound-order": 1},
                                details=(sub,))
    lag = serial_lag(rtf)
    if not (lag.holds and lag.simple):
        return None
    return PositivityReport(
        TOEPLITZ_K, k, CERTIFIED, horizon, t0=t0,
        certificate=(f"serial lag by exact root counts: gain > 0, den "
                     f"squarefree with {lag.poles}/{lag.den_degree} roots "
                     f"in (0, inf), squarefree(num) with "
                     f"{lag.zeros}/{lag.distinct_zeros} roots in "
                     f"(-inf, 0]"))


def _initial_window_witness(g: Signal, k: int, t0: int) -> Optional[dict]:
    """Strict positivity of the windows below the swap-identity range; the
    one at t0 is triangular, with determinant g(t0)^j."""
    for j in range(1, k):
        for t in range(t0 + 1, j):
            window = toeplitz_matrix(g, t, j)
            d = float(np.linalg.det(window))
            if d <= minor_zero_threshold(window):
                return {"kind": "initial-window-not-positive",
                        "time": t, "order": j, "value": d}
    return None


def _pole_magnitudes(form) -> tuple:
    if isinstance(form, PartialFractionSystem):
        # Poles in dominance order; the FIR tail's poles at zero sort last.
        return form.poles + (0.0,) * (form.order - len(form.poles))
    if isinstance(form, RationalTransferFunction):
        return form.poles
    lam = np.linalg.eigvals(form.A)
    return tuple(sorted((complex(v) for v in lam), key=dominance_key))


def _compound_external(form, j: int, horizon: int, sign: int,
                       g: Optional[Signal]) -> PositivityReport:
    """External positivity of ``sign`` times the order-j compound of a
    canonical form.  Above the form's order the compound is zero.  It is
    the form itself at j = 1, or the residue formula for a pure pole/residue
    form, both in partial fractions; otherwise the samples
    g_[j](1..horizon), each the determinant of an order-j Hankel window of
    the samples g of the form (g itself at j = 1), which must come from
    ``_finite_response`` up to ``_compound_reach`` at least."""
    if j > form.order:
        return PositivityReport(
            EXTERNAL, 1, CERTIFIED, horizon, t0=None,
            certificate=f"compound order {j} above system order: zero")
    reach = _compound_reach(form, j, horizon)
    if not reach:
        comp = form if j == 1 else compound_transfer(form, j)
    else:
        g = _reaching(g, reach)
        comp = g if j == 1 else compound_impulse(g, j, horizon)
    if sign != 1:
        comp = comp.scaled(float(sign))
    if isinstance(comp, Signal):
        return _check_external_sampled(comp, horizon)
    return check_external(comp, horizon)


@dataclass(frozen=True)
class Decomposition:
    """Dominant/remainder split of a system.

    Additive mode: source = dominant + remainder (both partial fraction).
    Multiplicative mode: source = lag factor times remainder, where the
    factor has impulse p1**t for t >= 0 (``factor_pole`` = p1) and
    ``dominant`` stores its strictly proper part.
    """

    mode: str  # "hankel-additive" | "toeplitz-multiplicative"
    dominant: PartialFractionSystem
    remainder: PartialFractionSystem
    factor_pole: Optional[float] = None
    note: str = ""


def _decomposable(sys, k: int, horizon: int,
                  check) -> PartialFractionSystem:
    """The canonical form of ``sys`` when it is a pure pole/residue form of
    order at least k whose order-k ``check`` does not refute."""
    pfs = pole_residue_form(sys, "decomposition needs")
    n = len(pfs.terms)
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for order {n}")
    if check(pfs, k, horizon).verdict == REFUTED:
        raise StructuralError(
            f"order-{k} check refuted; no dominant decomposition exists")
    return pfs


def hankel_decompose(sys, k: int,
                     horizon: int = DEFAULT_HORIZON) -> Decomposition:
    """Split off the k leading first-order terms.

    Precondition: the order-k check must not refute.  The dominant part
    must satisfy the parallel-lag total positivity pattern; the remainder
    is vetted at order k-1 at the necessary-condition tier (coefficient
    signs plus leading compound samples).
    """
    pfs = _decomposable(sys, k, horizon, check_hankel_k)
    dominant = PartialFractionSystem(pfs.terms[:k])
    remainder = PartialFractionSystem(pfs.terms[k:])
    total = check_hankel_total(dominant, horizon)
    if total.verdict != CERTIFIED:
        raise StructuralError(
            "dominant part violates the parallel-lag pattern: "
            f"{total.witness}")
    # The certified dominant part gives every split stage its order-(k-s)
    # coefficient pattern; the part after the leading term is spot-checked.
    note = ""
    if k >= 2:
        _spot_check_compounds(PartialFractionSystem(pfs.terms[1:]), k - 1)
        note = "split stages vetted at the necessary-condition tier"
    return Decomposition("hankel-additive", dominant, remainder, None, note)


def _spot_check_compounds(pfs: PartialFractionSystem, k: int):
    n = len(pfs.terms)
    g = impulse_response(pfs, 2 * min(k, n) + 4)
    scale = max(1.0, float(np.max(np.abs(g.to_array()))))
    for j in range(2, min(k, n) + 1):
        for t, d in enumerate(compound_impulse(g, j, 2).values, start=1):
            if d < -SLACK_TOL * scale ** j:
                raise StructuralError(
                    f"remainder window determinant at t={t}, order {j} "
                    f"is negative: {d}")


def toeplitz_decompose(sys, k: int,
                       horizon: int = DEFAULT_HORIZON) -> Decomposition:
    """Extract the dominant lag factor z/(z - p1) multiplicatively.

    The remainder is the exact inverse-filtered system: its impulse
    response is g(t) - p1 g(t-1), realized in residue space with a direct
    tail for pole-at-zero parts.  All real zeros of the source must lie
    below the k-th pole.
    """
    pfs = _decomposable(sys, k, horizon, check_toeplitz_k)
    p1 = pfs.terms[0][1]
    p_cut = pfs.terms[k - 1][1]
    rtf = recombine(pfs)
    for z in rtf.zeros:
        if z.imag == 0.0 and z.real >= p_cut - ZERO_TOL * max(1.0, abs(
                p_cut)):
            raise StructuralError(
                f"real zero {z.real} is not below pole {p_cut}")

    # Inverse filtering by (z - p1)/z: the remainder response is
    # g(t) - p1 g(t-1), assembled exactly in residue space.
    terms = []
    fir = {1: math.fsum(pfs.residues)}
    for r, p in pfs.terms[1:]:
        if abs(p) <= ZERO_TOL:
            # A pole-at-zero term is the pulse r at t=1; filtering leaves
            # the pulse and subtracts p1 r at t=2.
            fir[2] = fir.get(2, 0.0) - p1 * r
            continue
        coeff = r * (p - p1) / p
        terms.append((coeff, p))
        fir[1] -= coeff
    if abs(fir.get(1, 0.0)) <= ZERO_TOL * _sample_scale(pfs,
                                                        _weight(pfs)[0]):
        fir[1] = 0.0
    span = max(fir)
    fir_signal = Signal(1, tuple(fir.get(t, 0.0) for t in range(1, span + 1)))
    remainder = PartialFractionSystem(tuple(terms), fir_signal)
    dominant = PartialFractionSystem(((p1, p1),)) if p1 != 0 else \
        PartialFractionSystem(())
    note = "zero bound checked on the source system"
    return Decomposition("toeplitz-multiplicative", dominant, remainder,
                         float(p1), note)


def check_hankel_total(sys, horizon: int = DEFAULT_HORIZON) -> PositivityReport:
    """Exact parallel-lag characterization: every residue and pole
    nonnegative."""
    require_horizon(horizon)
    pfs = canonical(sys)
    if not isinstance(pfs, PartialFractionSystem):
        return PositivityReport(
            HANKEL_TOTAL, None, REFUTED, horizon,
            witness={"kind": "non-real-or-repeated-poles"})
    fir = pfs.fir
    terms = list(pfs.terms)
    if len(fir):
        if fir.support_end > 1 or fir.value(0) != 0.0:
            return PositivityReport(
                HANKEL_TOTAL, None, REFUTED, horizon,
                witness={"kind": "higher-order-zero-pole-dynamics"})
        terms.append((fir.value(1), 0.0))
    for i, (r, p) in enumerate(terms, start=1):
        if r < 0:
            return PositivityReport(
                HANKEL_TOTAL, None, REFUTED, horizon,
                witness={"kind": "negative-residue", "index": i,
                         "residue": r})
        if p < 0:
            return PositivityReport(
                HANKEL_TOTAL, None, REFUTED, horizon,
                witness={"kind": "negative-pole", "index": i, "pole": p})
    return PositivityReport(
        HANKEL_TOTAL, None, CERTIFIED, horizon,
        certificate="parallel interconnection of nonnegative first-order "
                    "terms")


def check_toeplitz_total(sys,
                         horizon: int = DEFAULT_HORIZON) -> PositivityReport:
    """Exact serial-lag characterization: positive gain, real nonnegative
    poles, real nonpositive zeros.

    A num/den input is decided by exact root counts
    (``exact.serial_lag``).  When they refute it, the witness is the float
    root (or gain) that ``_root_witness`` finds, or else the failing root
    count.  Other inputs are recombined and tested on their float roots.
    """
    require_horizon(horizon)
    if isinstance(sys, RationalTransferFunction):
        lag = serial_lag(sys)
        witness = None if lag.holds else (_root_witness(sys)
                                          or lag.failure())
    else:
        pfs = canonical(sys)
        if not isinstance(pfs, PartialFractionSystem):
            raise UnsupportedRepresentationError(
                "operation needs simple real poles")
        witness = _root_witness(recombine(pfs))
    if witness is not None:
        return PositivityReport(TOEPLITZ_TOTAL, None, REFUTED, horizon,
                                witness=witness)
    return PositivityReport(
        TOEPLITZ_TOTAL, None, CERTIFIED, horizon,
        certificate="serial interconnection of first-order lags with "
                    "nonpositive zeros")


def _root_witness(rtf: RationalTransferFunction) -> Optional[dict]:
    """The first nonpositive gain, complex or negative pole, or complex or
    positive zero among the float roots of ``rtf``."""
    if rtf.gain <= 0:
        return {"kind": "nonpositive-gain", "gain": rtf.gain}
    scale = max(1.0, max(abs(p) for p in rtf.poles))
    for p in rtf.poles:
        if p.imag != 0.0:
            return {"kind": "complex-pole", "pole": str(p)}
        if p.real < -ZERO_TOL * scale:
            return {"kind": "negative-pole", "pole": p.real}
    for z in rtf.zeros:
        if z.imag != 0.0:
            return {"kind": "complex-zero", "zero": str(z)}
        if z.real > ZERO_TOL * scale:
            return {"kind": "positive-real-zero", "zero": z.real}
    return None
