"""Ionic charge-density functions.

A Nonlinearity bundles a charge density f(phi), its derivative, and the
antiderivative F(phi) anchored at the reference potential (F(phi*) = 0,
F' = f).  The built-in provenances are exponential sums over ion species:

    classical   f(phi) = sum_i z_i c_i exp(-z_i phi)
    f0          f0(phi) = (1/|Omega|) sum_i m_i z_i exp(-z_i (phi - phi0*))
    fhat1       same shape with signed coefficients mhat_i (no zero/monotone
                contract)
    f1          f1 = -Q f0' + fhat1, one sum with coefficients
                -Q a0_i b_i + ahat_i on the exponents of f0

Evaluators accept floats or numpy arrays, are immutable after construction,
and are safe to share across threads.  A scalar call runs the same formulas
on Python floats (no one-element arrays); arrays, 0-d arrays and exponents
past the overflow guard take the array path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    AllSameSignValences,
    ConfigError,
    MismatchedReference,
    NeutralityViolated,
    NonDecreasingDetected,
    NoSignChange,
    UnsupportedProvenance,
)
from .numerics import bisect_root, is_scalar

NEUTRALITY_TOL = 8 * 2.0**-53  # times sum |m_i z_i|: the rounding of neutral decimal amounts
REFERENCE_RTOL = 1e-13  # bisection width of the reference potential
DECAY_SAMPLES = 2048  # grid that brackets the maximum of f' in decay_rate
_EXP_GUARD = 700.0  # exponents beyond this go through the stabilized path
_TAYLOR_TERMS = 12
_TAYLOR_ORDER = 18  # highest order of the Taylor sums of _Expm1Sum
# Taylor window of _Expm1Sum, times 1/max|b_i|, by the lowest order kept.  Within
# 1 order 19 is below 1/19! (8e-18) of a moment; 0.65 is the widest window that
# keeps the bits of the pinned constants, and F is within 4 ulp just beyond it
_TAYLOR_WINDOW = {1: 0.65, 2: 0.65, 3: 1.0}


@dataclass(frozen=True)
class IonSpecies:
    """One ion species: valence z != 0 and a positive amount.

    role 'bulk' marks a bulk concentration (classical PB); role 'mass' marks
    a total mass (conserved-charge model).
    """

    z: float
    amount: float
    role: str = "bulk"

    def __post_init__(self):
        if self.z == 0:
            raise ConfigError("ion valence must be nonzero")
        if not self.amount > 0:
            raise ConfigError("ion amount must be positive")
        if self.role not in ("bulk", "mass"):
            raise ConfigError(f"unknown species role {self.role!r}")


def check_neutrality(species: Sequence[IonSpecies]):
    """Raise NeutralityViolated unless |sum m_i z_i| <= NEUTRALITY_TOL sum |m_i z_i|."""
    total = sum(s.amount * s.z for s in species)
    scale = sum(abs(s.amount * s.z) for s in species)
    if scale == 0 or abs(total) > NEUTRALITY_TOL * scale:
        raise NeutralityViolated(
            f"sum(m_i z_i) = {total:.3e} (scale {scale:.3e}); species must be neutral"
        )


def _exponents(d, b):
    """(t, m) with t[..., j] = d * b[j] and m = max over j of t[..., j].

    Filled one term column at a time and reduced with np.maximum: the same
    bits as np.multiply.outer(d, b) and t.max(axis=-1), without their fixed
    per-call cost, which dominates for the two or three terms of a salt.
    """
    t = np.empty(d.shape + b.shape)
    for j, bj in enumerate(b):
        np.multiply(d, bj, out=t[..., j])
    m = t[..., 0].copy()
    for j in range(1, len(b)):
        np.maximum(m, t[..., j], out=m)
    return t, m


class _ExpSum:
    """E(phi) = sum_i a_i exp(b_i (phi - ref)), with stable evaluation.

    Large exponents are evaluated by factoring out the dominant one, so the
    sign survives even when the magnitude overflows (the value is then +-inf).
    """

    __slots__ = ("a", "b", "ref", "_terms")

    def __init__(self, a, b, ref=0.0):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.ref = float(ref)
        self._terms = tuple(zip(self.a.tolist(), self.b.tolist()))  # (a_i, b_i) floats

    def __call__(self, phi):
        if is_scalar(phi):
            return self._scalar(float(phi))
        t, m = _exponents(np.asarray(phi, dtype=float) - self.ref, self.b)
        big = m > _EXP_GUARD
        if not big.any():
            return np.exp(t, out=t) @ self.a
        t -= m[..., None]
        out = np.exp(t, out=t) @ self.a
        safe = np.where(big, 0.0, m)
        out = out * np.exp(safe)
        return np.where(big, np.where(out > 0, np.inf, np.where(out < 0, -np.inf, 0.0)), out)

    def _scalar(self, phi: float) -> float:
        d = phi - self.ref
        m = max(bi * d for _, bi in self._terms)
        if m <= _EXP_GUARD:
            total = 0.0
            for ai, bi in self._terms:
                total += ai * math.exp(bi * d)
            return total
        total = 0.0
        for ai, bi in self._terms:
            total += ai * math.exp(bi * d - m)
        if total == 0.0:
            return 0.0
        return math.inf if total > 0 else -math.inf

    def derivative(self) -> "_ExpSum":
        return _ExpSum(self.a * self.b, self.b, self.ref)

    def with_anchor(self, anchor: float) -> "_AnchoredExpSum":
        return _AnchoredExpSum(self.a, self.b, self.ref, anchor)


def _call_from_delta(self, phi):
    """Evaluate at phi through self.from_delta(phi - self.anchor)."""
    scalar = is_scalar(phi)
    d = np.atleast_1d(np.asarray(phi, dtype=float)) - self.anchor
    out = self.from_delta(d)
    return float(out[0]) if scalar else out.reshape(np.shape(phi))


class _AnchoredExpSum(_ExpSum):
    """_ExpSum whose terms nearly cancel at `anchor` (e.g. f(phi*) = 0).

    Within a small window around the anchor the plain sum loses relative
    accuracy to cancellation, so a Taylor expansion about the anchor is used
    there instead.
    """

    __slots__ = ("anchor", "_taylor", "_switch")

    def __init__(self, a, b, ref, anchor):
        super().__init__(a, b, ref)
        self.anchor = float(anchor)
        w = self.a * np.exp(self.b * (self.anchor - self.ref))
        coeffs = np.empty(_TAYLOR_TERMS + 1)
        fact = 1.0
        coeffs[0] = float(np.sum(w))
        for n in range(1, _TAYLOR_TERMS + 1):
            fact *= n
            coeffs[n] = float(np.sum(w * self.b**n)) / fact
        self._taylor = coeffs
        self._switch = 0.05 / max(1.0, float(np.max(np.abs(self.b))))

    __call__ = _call_from_delta

    def from_delta(self, delta):
        """Evaluate at anchor + delta with delta supplied exactly; preserves
        relative accuracy for exponentially small offsets."""
        d = np.atleast_1d(np.asarray(delta, dtype=float))
        near = np.abs(d) <= self._switch
        out = np.empty(d.shape)
        if near.any():
            dn = d[near]
            acc = np.full(dn.shape, self._taylor[_TAYLOR_TERMS])
            for n in range(_TAYLOR_TERMS - 1, -1, -1):
                acc *= dn
                acc += self._taylor[n]
            out[near] = acc
        if (~near).any():
            out[~near] = _ExpSum.__call__(self, self.anchor + d[~near])
        return out


def _horner(coeffs, d, acc):
    """The polynomial sum_n coeffs[n] d^(N - n), N = len(coeffs), highest
    order first and without a constant term, summed into acc: zeros, in
    place, or 0.0 on floats."""
    for c in coeffs:
        acc += c
        acc *= d
    return acc


class _Expm1Sum:
    """S(delta) = sum_i c_i expm1(b_i delta), delta = phi - anchor, less its
    Taylor terms below order `low`, for each column of c: S = O(delta^low).

    Those terms, the moments sum_i c_i b_i^n / n! for n < low, cancel by
    construction, and the coefficients only round to that: F of a density
    with a zero at the anchor has low = 2 (its first moment is f(anchor)),
    the remainders n_j of profiles._F0Terms have low = 3.  Dropping them on
    both sides of the window keeps their rounding out of S: within
    |delta| <= _TAYLOR_WINDOW[low] / max|b_i| S is the Taylor sum of orders
    low to _TAYLOR_ORDER, beyond it the expm1 sum less those terms.  Each
    column sums its terms in order, element by element, so an offset has
    the same bits in any batch; a float call of one column runs the same
    formulas on Python floats.  Past the overflow guard a column is +-inf
    with the sign of its fastest-growing term.
    """

    __slots__ = ("b", "c", "anchor", "_terms", "_taylor", "_head", "_window")

    def __init__(self, b, c, low, anchor):
        self.b = np.asarray(b, dtype=float)
        self.c = np.asarray(c, dtype=float)  # (k,), or (k, m) for m columns
        self.anchor = float(anchor)
        self._terms = tuple(zip(self.c.tolist(), self.b.tolist())) if self.c.ndim == 1 else None
        # Taylor coefficients sum_i c_i b_i^n / n!, highest order first; the
        # head, orders low - 1..1, is 0 in the Taylor sum
        orders = np.arange(_TAYLOR_ORDER, 0, -1)
        factorials = np.array([[float(math.factorial(n))] for n in orders])
        coeffs = (self.b ** orders[:, None]) @ self.c.reshape(len(self.b), -1) / factorials
        rows = coeffs[:, 0].tolist() if self.c.ndim == 1 else list(coeffs)
        self._head = rows[_TAYLOR_ORDER - low + 1 :]
        self._taylor = rows[: _TAYLOR_ORDER - low + 1] + [0.0] * len(self._head)
        self._window = _TAYLOR_WINDOW[low] / float(np.max(np.abs(self.b)))

    def __call__(self, phi):
        """S at phi, one column only."""
        if isinstance(phi, (float, int)):
            d = float(phi) - self.anchor
            if abs(d) <= self._window:
                return _horner(self._taylor, d, 0.0)
            if max(bi * d for _, bi in self._terms) <= _EXP_GUARD:
                total = 0.0
                for ci, bi in self._terms:
                    total += ci * math.expm1(bi * d)
                return total - _horner(self._head, d, 0.0)
        return _call_from_delta(self, phi)

    def from_delta(self, delta):
        """S at anchor + delta with delta supplied exactly, of shape
        delta.shape + (m,) for m columns."""
        d = np.atleast_1d(np.asarray(delta, dtype=float))
        # the Taylor sum at every offset, in one array (np.full: the calloc
        # of np.zeros faulted more pages in per call); those beyond the
        # window, where it may overflow, are then overwritten
        with np.errstate(over="ignore", invalid="ignore"):
            out = _horner(self._taylor, self._column(d), np.full(d.shape + self.c.shape[1:], 0.0))
        far = (d > self._window) | (d < -self._window)
        if far.any():
            out[far] = self._far(d[far])
        return out

    def _column(self, d):
        """d shaped to broadcast against one row of coefficients."""
        return d if self.c.ndim == 1 else d[..., None]

    def _far(self, d):
        t, m = _exponents(d, self.b)
        overflow = m > _EXP_GUARD
        # the fastest-growing term decides the sign at huge arguments;
        # found before the clipping below can tie the exponents (a zero
        # coefficient leaves the clipped sum)
        lead = np.argmax(t, axis=-1) if overflow.any() else None
        np.minimum(t, _EXP_GUARD, out=t)
        np.expm1(t, out=t)
        # the term columns summed in order, element by element: a matmul
        # rounds a 1-row batch differently from a long one
        val = self._column(t[..., 0]) * self.c[0]
        for j in range(1, len(self.b)):
            val += self._column(t[..., j]) * self.c[j]
        if self._head:
            val -= _horner(self._head, self._column(d), np.zeros(val.shape))
        if lead is not None:
            sign = self.c[lead]
            hit = self._column(overflow) & (sign != 0.0)
            val = np.where(hit, np.copysign(np.inf, sign), val)
        return val


_ZERO_AT_REFERENCE = ("classical", "f0", "custom")  # strictly decreasing, f(phi*) = 0


@dataclass(frozen=True)
class Nonlinearity:
    """Charge density f with derivative, antiderivative and reference data."""

    f: Callable
    df: Callable
    F: Callable
    phi_star: float | None
    provenance: str
    q: float | None = None  # drift constant of an f1 density

    @property
    def monotone(self) -> bool:
        """Whether this provenance carries the strictly-decreasing contract."""
        return self.provenance in _ZERO_AT_REFERENCE


def _exp_terms_nonlinearity(a, b, ref, provenance, phi_star=None, q=None):
    esum = _ExpSum(a, b, ref)
    desum = esum.derivative()
    if phi_star is None:
        phi_star = _decreasing_zero(esum, desum)
    # F = sum_i (w_i/b_i) expm1(b_i (phi - phi*)), w_i = a_i exp(b_i (phi* - ref));
    # a density with a zero at phi* has F = O((phi - phi*)^2) there
    w = esum.a * np.exp(esum.b * (phi_star - esum.ref))
    low = 2 if provenance in _ZERO_AT_REFERENCE else 1
    return Nonlinearity(
        f=esum.with_anchor(phi_star),  # terms cancel at phi*; Taylor there
        df=desum,
        F=_Expm1Sum(esum.b, w / esum.b, low, phi_star),
        phi_star=phi_star,
        provenance=provenance,
        q=q,
    )


def make_classical_pb(species: Sequence[IonSpecies]) -> Nonlinearity:
    """Classical PB charge density f(phi) = sum z_i c_i exp(-z_i phi)."""
    if not species:
        raise ConfigError("species list is empty")
    zs = [s.z for s in species]
    if all(z > 0 for z in zs) or all(z < 0 for z in zs):
        raise AllSameSignValences(
            "need at least one positive and one negative valence"
        )
    a = np.array([s.z * s.amount for s in species])
    b = np.array([-s.z for s in species])
    return _exp_terms_nonlinearity(a, b, 0.0, "classical")


def make_f0(species: Sequence[IonSpecies], volume: float, phi0_star: float) -> Nonlinearity:
    """Limiting conserved-charge density with reference exactly phi0_star."""
    if not volume > 0:
        raise ConfigError("volume must be positive")
    check_neutrality(species)
    a = np.array([s.amount * s.z / volume for s in species])
    b = np.array([-s.z for s in species])
    return _exp_terms_nonlinearity(a, b, phi0_star, "f0", phi_star=float(phi0_star))


def make_fhat1(
    species: Sequence[IonSpecies],
    volume: float,
    phi0_star: float,
    mhat: Sequence[float],
) -> Nonlinearity:
    """First-order mass-correction density; mhat_i are signed, no contracts."""
    if not volume > 0:
        raise ConfigError("volume must be positive")
    if len(mhat) != len(species):
        raise ConfigError("mhat must have one entry per species")
    a = np.array([mh * s.z / volume for mh, s in zip(mhat, species)])
    b = np.array([-s.z for s in species])
    return _exp_terms_nonlinearity(a, b, phi0_star, "fhat1", phi_star=float(phi0_star))


def make_f1(f0: Nonlinearity, fhat1: Nonlinearity, q: float) -> Nonlinearity:
    """Combined first-order density f1 = -q f0' + fhat1: both are exp sums on
    the exponents of f0, so f1 is one, with F1 anchored at phi0*."""
    if f0.provenance != "f0" or fhat1.provenance != "fhat1":
        raise UnsupportedProvenance("make_f1 needs an f0 and an fhat1")
    if f0.phi_star is None or abs(f0.phi_star - fhat1.phi_star) > 1e-12:
        raise MismatchedReference("f0 and fhat1 must share the reference potential")
    a = -q * f0.df.a + fhat1.f.a
    return _exp_terms_nonlinearity(a, f0.df.b, f0.df.ref, "f1", phi_star=f0.phi_star, q=float(q))


def make_custom(f, df, F, phi_star=None) -> Nonlinearity:
    """Wrap user-supplied evaluators of a strictly decreasing density."""
    return Nonlinearity(f=f, df=df, F=F, phi_star=phi_star, provenance="custom")


def find_reference_potential(nl: Nonlinearity) -> float:
    """Unique zero of a strictly decreasing f, by bracket expansion + bisection.

    The bracket grows geometrically from [-1, 1] around 0; after bisection to
    relative width REFERENCE_RTOL, up to three Newton steps polish the root.
    """
    if nl.provenance in ("fhat1", "f1"):
        raise UnsupportedProvenance(
            f"provenance {nl.provenance!r} has no reference-potential contract"
        )
    return _decreasing_zero(nl.f, nl.df)


def _decreasing_zero(f, df) -> float:
    """Zero of a strictly decreasing f, as in find_reference_potential."""
    lo, hi = -1.0, 1.0
    for _ in range(64):
        flo, fhi = f(lo), f(hi)
        if flo > 0.0 > fhi:
            break
        # an exactly-zero endpoint is a root only at moderate arguments;
        # far out it is indistinguishable from exponential underflow
        if flo == 0.0 and abs(lo) <= 64.0:
            return float(lo)
        if fhi == 0.0 and abs(hi) <= 64.0:
            return float(hi)
        if flo <= 0.0:  # f decreasing: zero lies left of lo
            lo *= 2.0
        if fhi >= 0.0:
            hi *= 2.0
    else:
        raise NoSignChange("could not bracket the reference potential")
    # bisection, not brent_root: the radial oracle rebuilds its density through
    # this root every sweep, and where its Picard loop stops follows the
    # last bits of the root, so a switch must wait until oracle bits may move
    root = bisect_root(lambda x: f(x) > 0.0, lo, hi, REFERENCE_RTOL)
    for _ in range(3):
        slope = df(root)
        if not np.isfinite(slope) or slope == 0.0:
            break
        step = f(root) / slope
        if not np.isfinite(step):
            break
        cand = root - step
        if abs(f(cand)) >= abs(f(root)):
            break
        root = cand
    return float(root)


def decay_rate(nl: Nonlinearity, interval: tuple[float, float]) -> float:
    """m_f = sqrt(-max f') over [lo, hi], by dense sampling plus golden-section
    refinement of the best bracket."""
    lo, hi = float(interval[0]), float(interval[1])
    if lo > hi:
        raise ConfigError("interval must satisfy lo <= hi")
    if lo == hi:
        slope = float(nl.df(lo))
        if slope >= 0:
            raise NonDecreasingDetected(f"f'({lo}) = {slope:.3e} >= 0")
        return math.sqrt(-slope)
    phi = np.linspace(lo, hi, DECAY_SAMPLES)
    dvals = np.asarray(nl.df(phi), dtype=float)
    if np.any(dvals >= 0):
        bad = phi[int(np.argmax(dvals))]
        raise NonDecreasingDetected(f"f'({bad:.6g}) >= 0 inside the interval")
    j = int(np.argmax(dvals))
    a = phi[max(j - 1, 0)]
    b = phi[min(j + 1, DECAY_SAMPLES - 1)]
    # golden-section maximization of f' on [a, b]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = float(nl.df(c)), float(nl.df(d))
    while b - a > 1e-13 * max(1.0, abs(a) + abs(b)):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = float(nl.df(c))
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = float(nl.df(d))
    best = max(float(np.max(dvals)), fc, fd)
    if best >= 0:
        raise NonDecreasingDetected("max f' >= 0 after refinement")
    return math.sqrt(-best)


def symmetric_salt(concentration: float = 1.0, role: str = "bulk") -> list[IonSpecies]:
    """1:1 salt helper: z = +-1, equal amounts."""
    return [IonSpecies(1.0, concentration, role), IonSpecies(-1.0, concentration, role)]
