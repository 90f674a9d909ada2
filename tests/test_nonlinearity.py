import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from pblayers.errors import (
    AllSameSignValences,
    ConfigError,
    NeutralityViolated,
    NonDecreasingDetected,
    UnsupportedProvenance,
)
from pblayers.geometry import make_annulus
from pblayers.nonlinearity import (
    IonSpecies,
    _ExpSum,
    _Expm1Sum,
    check_neutrality,
    decay_rate,
    find_reference_potential,
    make_classical_pb,
    make_f0,
    make_f1,
    make_fhat1,
    symmetric_salt,
)
from pblayers.profiles import RobinData, _F0Terms


def bisect_zero(fn, lo, hi, n=200):
    flo = fn(lo)
    for _ in range(n):
        mid = 0.5 * (lo + hi)
        if (fn(mid) > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestClassical:
    def test_symmetric_salt_is_minus_two_sinh(self, salt):
        phis = np.linspace(-3, 3, 41)
        assert np.allclose(salt.f(phis), -2 * np.sinh(phis), rtol=1e-14, atol=1e-14)
        assert salt.phi_star == pytest.approx(0.0, abs=1e-14)

    def test_algebraic_cancellation_reference(self):
        f = make_classical_pb([IonSpecies(2, 1), IonSpecies(-1, 2)])
        assert f.f(0.0) == pytest.approx(0.0, abs=1e-14)
        assert f.phi_star == pytest.approx(0.0, abs=1e-13)

    def test_asymmetric_reference_closed_form_and_bisection(self):
        f = make_classical_pb([IonSpecies(1, 2), IonSpecies(-1, 1)])
        # closed form: 2 e^{-p} = e^{p}  =>  p = ln(2)/2
        assert f.phi_star == pytest.approx(math.log(2) / 2, abs=1e-13)
        oracle = bisect_zero(lambda p: 2 * math.exp(-p) - math.exp(p), -2, 2)
        assert f.phi_star == pytest.approx(oracle, abs=1e-12)

    def test_asymmetric_reference_pinned(self):
        # 2:1 salt: the construction-time zero (raw sum) and the public one
        # (Taylor-anchored f, so the Newton polish ends one ulp apart)
        f = make_classical_pb([IonSpecies(2.0, 0.3), IonSpecies(-1.0, 1.7)])
        assert f.phi_star == -0.34715129160938707
        assert find_reference_potential(f) == -0.3471512916093871

    def test_same_sign_valences_rejected(self):
        with pytest.raises(AllSameSignValences):
            make_classical_pb([IonSpecies(1, 1), IonSpecies(2, 1)])

    def test_empty_species_rejected(self):
        with pytest.raises(ConfigError):
            make_classical_pb([])

    def test_overflow_is_signed_not_nan(self, salt):
        assert salt.f(800.0) == -math.inf
        assert salt.f(-800.0) == math.inf
        assert not math.isnan(float(salt.F(800.0)))

    def test_reference_potential_unsupported_provenances(self, msalt):
        f0 = make_f0(msalt, 1.0, 0.0)
        fh = make_fhat1(msalt, 1.0, 0.0, [1.0, 1.0])
        with pytest.raises(UnsupportedProvenance):
            find_reference_potential(fh)
        with pytest.raises(UnsupportedProvenance):
            find_reference_potential(make_f1(f0, fh, 1.0))

    def test_reference_potential_no_sign_change(self):
        from pblayers.errors import NoSignChange
        from pblayers.nonlinearity import make_custom

        positive = make_custom(
            f=lambda p: np.exp(-np.asarray(p, dtype=float)),
            df=lambda p: -np.exp(-np.asarray(p, dtype=float)),
            F=lambda p: -np.exp(-np.asarray(p, dtype=float)),
        )
        with pytest.raises(NoSignChange):
            find_reference_potential(positive)


def _outer_exp_sum(esum, phi):
    """_ExpSum's array path built on np.multiply.outer and .max(axis=-1)."""
    t = np.multiply.outer(np.asarray(phi, dtype=float) - esum.ref, esum.b)
    m = t.max(axis=-1)
    big = m > 700.0
    if not big.any():
        return np.exp(t) @ esum.a
    out = np.exp(t - m[..., None]) @ esum.a
    out = out * np.exp(np.where(big, 0.0, m))
    return np.where(big, np.where(out > 0, np.inf, np.where(out < 0, -np.inf, 0.0)), out)


EXP_SUMS = {
    1: ([0.7], [-1.3], 0.2),
    2: ([1.0, -1.0], [-1.0, 1.0], 0.0),
    3: ([2.0, -0.5, -1.5], [-2.0, 1.0, 1.0], -0.3),
}


class TestExpSumArrayPath:
    @pytest.mark.parametrize("k", sorted(EXP_SUMS))
    @pytest.mark.parametrize("shape", [(4001,), (37, 53)])
    def test_bit_equal_to_outer_reference(self, k, shape):
        a, b, ref = EXP_SUMS[k]
        esum = _ExpSum(a, b, ref)
        rng = np.random.default_rng(k)
        moderate = rng.normal(scale=30.0, size=shape)
        # a few exponents beyond the overflow guard take the stabilized branch
        wide = moderate.copy()
        wide.flat[::97] = rng.uniform(-900.0, 900.0, size=wide.flat[::97].shape)
        for phi in (moderate, wide):
            for e in (esum, esum.derivative()):
                got = e(phi)
                want = _outer_exp_sum(e, phi)
                assert got.shape == shape
                assert got.tobytes() == want.tobytes()

    def test_array_overflow_is_signed_not_nan(self, salt):
        phi = np.array([[800.0, -800.0], [1e4, -1e4]])
        f = salt.df.derivative()  # f'' = -2 sinh, through the plain array path
        assert np.array_equal(f(phi), [[-np.inf, np.inf], [-np.inf, np.inf]])
        assert np.array_equal(salt.df(phi), np.full((2, 2), -np.inf))
        assert np.array_equal(salt.f(phi), [[-np.inf, np.inf], [-np.inf, np.inf]])
        mixed = _ExpSum([1.0, -1.0], [1.0, 1.0])  # cancels exactly: zero, not NaN
        assert np.array_equal(mixed(np.array([800.0, 1.0])), [0.0, 0.0])

    def test_antiderivative_overflow_is_signed_not_nan(self, salt):
        d = np.array([800.0, -800.0, 1e4, -1e4])
        assert np.array_equal(salt.F.from_delta(d), np.full(4, -np.inf))
        # F = integral of exp(x) + exp(-2x) from 0: the leading term decides
        anti = _Expm1Sum([1.0, -2.0], [1.0, -0.5], 1, 0.0)
        assert np.array_equal(anti.from_delta(d), [np.inf, -np.inf, np.inf, -np.inf])
        assert [anti(x) for x in d.tolist()] == [np.inf, -np.inf, np.inf, -np.inf]
        assert not np.isnan(anti.from_delta(np.linspace(-1e3, 1e3, 2001))).any()


def _mixed_from_delta(f, delta):
    """_AnchoredExpSum.from_delta as it was before its lean array path: the
    Taylor sum, as acc * d + c_n from the top order down, gathered at the near
    offsets and the plain sum (the outer reference) at the far ones."""
    taylor = [f._value, *f._taylor[::-1]]  # orders 0..12
    d = np.atleast_1d(np.asarray(delta, dtype=float))
    near = np.abs(d) <= f._switch
    out = np.empty(d.shape)
    if near.any():
        dn = d[near]
        acc = np.full(dn.shape, taylor[12])
        for n in range(11, -1, -1):
            acc *= dn
            acc += taylor[n]
        out[near] = acc
    if (~near).any():
        out[~near] = _outer_exp_sum(f, f.anchor + d[~near])
    return out


# anchored densities: 2 and 3 terms, each with ref = 0 (classical) and ref = phi0* (f0)
ANCHORED = {
    "1:1": make_classical_pb(symmetric_salt()).f,
    "2:1 f0": make_f0([IonSpecies(2.0, 1.0, "mass"), IonSpecies(-1.0, 2.0, "mass")],
                      3.0, 0.3).f,
    "3 terms": make_classical_pb([IonSpecies(2.0, 1.0), IonSpecies(1.0, 0.5),
                                  IonSpecies(-1.0, 2.5)]).f,
    "3 terms f0": make_f0([IonSpecies(2.0, 1.0, "mass"), IonSpecies(1.0, 0.5, "mass"),
                           IonSpecies(-1.0, 2.5, "mass")], 2.0, -0.4).f,
}


class TestAnchoredExpSum:
    """f of a density with a zero at phi*: its float path and its lean array
    path keep every bit of the array path as it was."""

    @staticmethod
    def _offsets(f, rng, shape):
        sw = f._switch
        n = int(np.prod(shape))
        return {
            "near": rng.uniform(-sw, sw, n).reshape(shape),
            "far": (np.sign(rng.uniform(-1.0, 1.0, n))
                    * rng.uniform(1.01 * sw, 30.0, n)).reshape(shape),
            "mixed": rng.uniform(-3 * sw, 3 * sw, n).reshape(shape),
            "nan": np.where(rng.uniform(size=n) < 0.1, np.nan,
                            rng.uniform(-3 * sw, 3 * sw, n)).reshape(shape),
            "all nan": np.full(shape, np.nan),
            "past the guard": np.where(rng.uniform(size=n) < 0.1,
                                       rng.uniform(-1e4, 1e4, n),
                                       rng.uniform(-3 * sw, 3 * sw, n)).reshape(shape),
        }

    @pytest.mark.parametrize("shape", [(4001,), (37, 53), (1,)])
    @pytest.mark.parametrize("name", sorted(ANCHORED))
    def test_array_path_bit_equal_to_mixed_path(self, name, shape):
        f = ANCHORED[name]
        rng = np.random.default_rng(len(name) + len(shape))
        for kind, d in self._offsets(f, rng, shape).items():
            got = f.from_delta(d)
            want = _mixed_from_delta(f, d)
            assert got.shape == shape, kind
            assert got.tobytes() == want.tobytes(), kind
            phi = f.anchor + d
            assert f(phi).tobytes() == _mixed_from_delta(f, phi - f.anchor).tobytes(), kind

    @pytest.mark.parametrize("name", sorted(ANCHORED))
    def test_float_path_bit_equal_to_array_path(self, name):
        f = ANCHORED[name]
        sw = f._switch
        rng = np.random.default_rng(7 * len(name))
        # at +-_switch and 4 ulp either side of it: both sides of each edge
        xs = []
        for edge in (f.anchor + sw, f.anchor - sw):
            around = [edge]
            up = down = edge
            for _ in range(4):
                up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
                around += [float(up), float(down)]
            assert {abs(x - f.anchor) <= sw for x in around} == {True, False}
            xs += around
        # then inside, beyond, past the guard and NaN
        xs += (f.anchor + rng.uniform(-sw, sw, 300)).tolist()
        xs += (f.anchor + rng.uniform(-30.0, 30.0, 300)).tolist()
        xs += [f.anchor + 800.0, f.anchor - 800.0, math.nan]
        batch = f(np.array(xs, dtype=float))
        for x, in_batch in zip(xs, batch.tolist()):
            # a one-element array is what a scalar call evaluated before; inside
            # the window the Taylor sum is elementwise, so any batch agrees (the
            # far sum's matmul rounds a one-row batch differently)
            want = f(np.array([float(x)]))[0]
            if abs(float(x) - f.anchor) <= sw:
                assert np.array(in_batch).tobytes() == want.tobytes()
            for arg in (float(x), np.float64(x), np.array(float(x))):
                got = f(arg)
                assert type(got) is float
                assert np.array(got).tobytes() == want.tobytes()


def _numpy_scalar_loop(esum, phi):
    """_ExpSum._scalar as it ran on the numpy scalars of esum.a and esum.b."""
    d = phi - esum.ref
    m = max(bi * d for bi in esum.b)
    if m <= 700.0:
        total = 0.0
        for ai, bi in zip(esum.a, esum.b):
            total += ai * math.exp(bi * d)
        return total
    total = 0.0
    for ai, bi in zip(esum.a, esum.b):
        total += ai * math.exp(bi * d - m)
    if total == 0.0:
        return 0.0
    return math.inf if total > 0 else -math.inf


SCALAR_F_DENSITIES = {
    "1:1": [IonSpecies(1.0, 1.0), IonSpecies(-1.0, 1.0)],
    "2:1": [IonSpecies(2.0, 0.3), IonSpecies(-1.0, 1.7)],
    "3 terms": [IonSpecies(2.0, 1.0), IonSpecies(1.0, 0.5), IonSpecies(-1.0, 2.5)],
}


class TestScalarCalls:
    @pytest.mark.parametrize("k", sorted(EXP_SUMS))
    def test_exp_sum_scalar_bit_equal_to_numpy_scalar_loop(self, k):
        a, b, ref = EXP_SUMS[k]
        esum = _ExpSum(a, b, ref)
        rng = np.random.default_rng(100 + k)
        phi = rng.normal(scale=30.0, size=100_000)
        phi[::97] = rng.uniform(-900.0, 900.0, size=phi[::97].shape)  # past the guard
        got = [esum._scalar(x) for x in phi.tolist()]
        want = [_numpy_scalar_loop(esum, x) for x in phi.tolist()]
        assert all(type(x) is float for x in got)
        assert np.array(got).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("name", sorted(SCALAR_F_DENSITIES))
    def test_scalar_antiderivative_matches_array_path(self, name):
        F = make_classical_pb(SCALAR_F_DENSITIES[name]).F
        rng = np.random.default_rng(len(name))
        sw = F._window
        d = np.concatenate([
            rng.uniform(-sw, sw, 500), [sw, -sw],
            rng.uniform(-60.0, 60.0, 500), rng.uniform(-3 * sw, 3 * sw, 500),
        ])
        want = F(F.anchor + d)
        for x, w in zip((F.anchor + d).tolist(), want):
            # the Taylor window gives the same bits; the far sum runs libm's
            # expm1 in place of numpy's, summed in order: a few ulp of the
            # terms, which cancel near the window
            near = abs(x - F.anchor) <= sw
            scale = sum(abs(c * math.expm1(b * (x - F.anchor))) for c, b in F._terms)
            for arg in (x, np.float64(x), np.array(x)):
                got = F(arg)
                assert type(got) is float
                assert got == w if near else abs(got - w) <= 4 * np.spacing(scale)
        for x in (800.0, -800.0, 1e4, -1e4):  # both overflow signs
            want = F(np.array([F.anchor + x]))[0]
            assert F(F.anchor + x) == want and math.isinf(want)

    @pytest.mark.parametrize("seq", [list, tuple])
    @pytest.mark.parametrize("name", ["f", "df", "F"])
    def test_sequence_takes_the_array_path(self, name, seq):
        # a list or tuple of potentials is an array, not a scalar
        fn = getattr(make_classical_pb(symmetric_salt()), name)
        phi = [0.5, 1.0, -40.0]
        want = fn(np.array(phi))
        got = fn(seq(phi))
        assert isinstance(got, np.ndarray) and got.tobytes() == want.tobytes()
        for scalar in (0.5, np.float64(0.5), np.array(0.5), 1, np.int64(1)):
            assert type(fn(scalar)) is float


class TestSpecies:
    def test_invalid_species(self):
        with pytest.raises(ConfigError):
            IonSpecies(0.0, 1.0)
        with pytest.raises(ConfigError):
            IonSpecies(1.0, -1.0)
        with pytest.raises(ConfigError):
            IonSpecies(1.0, 1.0, role="other")


class TestConservedChargeDensities:
    def test_f0_symmetric_reduces_to_classical(self, msalt):
        f0 = make_f0(msalt, 1.0, 0.0)
        phis = np.linspace(-2, 2, 21)
        assert np.allclose(f0.f(phis), -2 * np.sinh(phis), rtol=1e-14, atol=1e-14)

    def test_f0_shift_invariance(self, msalt):
        f0 = make_f0(msalt, 1.0, 0.5)
        assert f0.f(0.5) == 0.0
        assert f0.phi_star == 0.5

    def test_f0_slope_at_reference(self, msalt):
        f0 = make_f0(msalt, 1.0, 0.0)
        assert float(f0.df(0.0)) == pytest.approx(-2.0, abs=1e-14)

    def test_f0_neutrality_enforced(self):
        with pytest.raises(NeutralityViolated):
            make_f0([IonSpecies(1, 1, "mass")], 1.0, 0.0)

    @pytest.mark.parametrize("amounts", [(0.1, 0.2, 0.3), (0.2, 0.1, 0.3), (0.7, 0.1, 0.8)])
    def test_neutral_decimal_amounts_pass(self, amounts):
        # 0.1 + 0.2 - 0.3 is 5.6e-17 in floats, 0.8 ulp of the scale 0.6
        m1, m2, m3 = amounts
        check_neutrality([IonSpecies(1, m1, "mass"), IonSpecies(1, m2, "mass"),
                          IonSpecies(-1, m3, "mass")])

    def test_fhat1_zero_coefficients(self, msalt):
        # an exp sum with zero coefficients: exactly 0 everywhere, also past
        # the overflow guard
        fh = make_fhat1(msalt, 1.0, 0.3, [0.0, 0.0])
        phi = 0.3 + np.array([-1e4, -800.0, -1.3, -1e-3, 0.0, 1e-300, 1e-3, 1.3, 800.0, 1e4])
        for fn in (fh.f, fh.df, fh.F):
            for x in phi:
                for arg in (float(x), np.array(x)):
                    assert fn(arg) == 0.0
            assert np.array_equal(fn(phi), np.zeros(phi.shape))
        for fn in (fh.f, fh.F):
            assert np.array_equal(fn.from_delta(phi - 0.3), np.zeros(phi.shape))
        for low in (1, 2, 3):
            anti = _Expm1Sum([-1.0, 1.0], [0.0, -0.0], low, 0.0)
            assert np.array_equal(anti.from_delta(phi), np.zeros(phi.shape))

    def test_fhat1_neutral_coefficients_vanish_at_reference(self, msalt):
        # sum mhat_i z_i = 0 for mhat = (1, 1) with z = (+1, -1)
        fh = make_fhat1(msalt, 1.0, 0.0, [1.0, 1.0])
        assert float(fh.f(0.0)) == pytest.approx(0.0, abs=1e-15)

    def test_fhat1_antiderivative_closed_form(self, msalt):
        fh = make_fhat1(msalt, 1.0, 0.0, [1.0, 1.0])
        phis = np.linspace(-2, 2, 21)
        assert np.allclose(fh.F(phis), -2 * (np.cosh(phis) - 1), rtol=1e-13, atol=1e-14)

    def test_f1_combinations(self, msalt):
        f0 = make_f0(msalt, 1.0, 0.0)
        fh = make_fhat1(msalt, 1.0, 0.0, [1.0, 1.0])
        zero = make_fhat1(msalt, 1.0, 0.0, [0.0, 0.0])
        f1_q0 = make_f1(f0, fh, 0.0)
        phis = np.linspace(-1, 1, 11)
        assert np.allclose(f1_q0.f(phis), fh.f(phis), rtol=0, atol=1e-14)
        f1_pure = make_f1(f0, zero, 1.0)
        assert float(f1_pure.f(0.0)) == pytest.approx(2.0, abs=1e-14)  # -f0'(0) > 0
        f1 = make_f1(f0, fh, 1.0)
        assert float(f1.f(0.0)) == pytest.approx(2.0, abs=1e-14)  # 2 + 0

    def test_f1_one_exp_sum_matches_closures(self, annulus_constants, closure_f1):
        # README annulus: offsets down to 1e-300 and the tail of u
        cc = annulus_constants
        new, old = cc.f1, closure_f1(cc.f0, cc.fhat1, cc.q)
        tiny = np.geomspace(1e-300, 3.0, 2000)
        d = np.concatenate([tiny, -tiny, *(b.u.delta for b in cc.profiles)])
        phi = cc.f0.phi_star + d
        q, f0, fh = abs(cc.q), cc.f0, cc.fhat1
        d2f0 = f0.df.derivative()
        cases = (  # (new, closure, |q part| + |fhat1 part|, ulps)
            (new.f.from_delta(d), old.f.from_delta(d),
             q * abs(f0.df(phi)) + abs(fh.f.from_delta(d)), 4),
            (new.f(phi), old.f(phi), q * abs(f0.df(phi)) + abs(fh.f(phi)), 4),
            (new.df(phi), old.df(phi), q * abs(d2f0(phi)) + abs(fh.df(phi)), 4),
            # the closure sums f0's exponential terms, which cancel by up to
            # 20x just outside the Taylor window (18 ulp measured)
            (new.F.from_delta(d), old.F.from_delta(d),
             q * abs(f0.f.from_delta(d)) + abs(fh.F.from_delta(d)), 32),
            (new.F(phi), old.F(phi), q * abs(f0.f(phi)) + abs(fh.F(phi)), 32),
        )
        for got, want, scale, ulps in cases:
            assert np.all(np.abs(got - want) <= ulps * np.spacing(scale))
        assert new.F(cc.f0.phi_star) == 0.0 and new.q == cc.q

    def test_f1_mismatched_reference(self, msalt):
        f0 = make_f0(msalt, 1.0, 0.0)
        fh = make_fhat1(msalt, 1.0, 0.5, [1.0, 1.0])
        from pblayers.errors import MismatchedReference

        with pytest.raises(MismatchedReference):
            make_f1(f0, fh, 1.0)


class TestDecayRate:
    def test_symmetric_interval(self, salt):
        assert decay_rate(salt, (-1, 1)) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_off_reference_interval(self, salt):
        assert decay_rate(salt, (1, 2)) == pytest.approx(
            math.sqrt(2 * math.cosh(1)), abs=1e-12
        )

    def test_degenerate_interval(self, salt):
        assert decay_rate(salt, (0.5, 0.5)) == pytest.approx(
            math.sqrt(2 * math.cosh(0.5)), abs=1e-14
        )

    def test_inclusion_monotonicity(self, salt):
        # smaller interval containing the slope maximum: rate unchanged;
        # larger interval can only decrease the rate
        assert decay_rate(salt, (-0.5, 0.5)) == pytest.approx(
            decay_rate(salt, (-1, 1)), abs=1e-12
        )
        assert decay_rate(salt, (-3, 3)) <= decay_rate(salt, (1, 2)) + 1e-12

    def test_bad_interval(self, salt):
        with pytest.raises(ConfigError):
            decay_rate(salt, (1, 0))

    def test_increasing_density_detected(self, msalt):
        increasing = make_fhat1(msalt, 1.0, 0.0, [-1.0, -1.0])  # f = 2 sinh
        with pytest.raises(NonDecreasingDetected):
            decay_rate(increasing, (-1, 1))


# salts of three and four species (role mass), and the 3-D annulus whose
# volume scales their f0 (tests/test_ccpb.py)
MULTI_SPECIES_F0 = {
    k: [IonSpecies(z, m, "mass") for z, m in zm]
    for k, zm in {
        3: ((2.0, 1.0), (1.0, 0.5), (-1.0, 2.5)),
        4: ((2.0, 1.0), (1.0, 1.5), (-1.0, 2.0), (-3.0, 0.5)),
    }.items()
}
ANNULUS_3D = make_annulus(3, 1.0, 2.0, RobinData(0.8, -1.7), RobinData(0.8, 1.9))
README_ANNULUS = make_annulus(2, 1.0, 2.0, RobinData(0.1, 1.0), RobinData(0.1, -1.0))
# the densities with a zero at phi* whose F is checked against mpmath; an f0
# has a0_i / b_i as the coefficients of F whatever its phi0*
SECOND_ORDER_DENSITIES = {
    "1:1 f0": lambda: make_f0(symmetric_salt(1.0, "mass"), README_ANNULUS.volume, 0.1),
    "2:1 classical": lambda: make_classical_pb([IonSpecies(2.0, 0.3), IonSpecies(-1.0, 1.7)]),
    "3 species f0": lambda: make_f0(MULTI_SPECIES_F0[3], ANNULUS_3D.volume, 0.1),
}


class TestAntiderivative:
    def test_quadrature_agreement(self, salt):
        star = salt.phi_star
        for phi in np.linspace(star - 5, star + 5, 21):
            if phi == star:
                continue
            ref, err = quad(lambda s: float(salt.f(s)), star, phi, epsabs=1e-14, epsrel=1e-13)
            assert float(salt.F(phi)) == pytest.approx(ref, rel=1e-10, abs=1e-13)

    def test_negativity_away_from_reference(self, salt):
        phis = np.concatenate([np.linspace(-5, -1e-3, 30), np.linspace(1e-3, 5, 30)])
        assert np.all(salt.F(phis) < 0)
        assert float(salt.F(salt.phi_star)) == 0.0

    def test_offsets_keep_their_bits_in_any_batch(self, annulus_constants):
        # F0, Fhat1 and F1 at the offsets of both README-annulus layers, and a
        # three-term F and the remainder columns of f0s of three and four
        # species at offsets on both sides of the Taylor window: the whole
        # array has the bits of one offset at a time (a matmul over the term
        # columns rounded 339-770 of the 4,001 layer offsets differently)
        cc = annulus_constants
        cases = [(F, b.u.delta) for b in cc.profiles for F in (cc.f0.F, cc.fhat1.F, cc.f1.F)]
        three = make_classical_pb(MULTI_SPECIES_F0[3])
        d = np.random.default_rng(7).uniform(-3.0, 3.0, 2000)
        cases.append((three.F, d))
        for species in MULTI_SPECIES_F0.values():
            cases.append((_F0Terms.of(make_f0(species, ANNULUS_3D.volume, 0.1)).n, d))
        for F, d in cases:
            whole = F.from_delta(d)
            one = np.array([F.from_delta(d[i : i + 1])[0] for i in range(len(d))])
            assert np.array_equal(whole.view(np.uint64), one.view(np.uint64))

    @pytest.mark.parametrize("name", sorted(SECOND_ORDER_DENSITIES))
    def test_against_mpmath(self, name):
        # F of a density with a zero at phi*, against the 40-digit
        # sum_i (w_i/b_i) (expm1(x_i) - x_i), x_i = b_i delta, of its float
        # coefficients: its first moment, f(phi*), is 0 by definition, not
        # the -2.2e-16 and 1.39e-17 that the 2:1 salt and the f0 of three
        # species round to.  Offsets |b| delta in [1e-6, 3] on both sides,
        # each exactly phi - phi*, so the float and the array path see the
        # same delta.  Within 4 ulp relative, |error| <= 4 2**-52 |F|
        # (measured 1.1, 2.2 and 2.6; 10.9, 1.1e6 and 1.0e6 when F kept
        # f(phi*) as a linear term and its Taylor window was 0.05/max|b|)
        f = SECOND_ORDER_DENSITIES[name]()
        b = f.f.b.tolist()
        star = mpmath.mpf(f.phi_star)
        w = [mpmath.mpf(a) * mpmath.exp(mpmath.mpf(bi) * (star - mpmath.mpf(f.f.ref)))
             for a, bi in zip(f.f.a.tolist(), b)]
        g = np.geomspace(1e-6, 3.0, 300) / max(map(abs, b))
        d = (f.phi_star + np.concatenate([g, -g])) - f.phi_star
        with mpmath.workdps(40):
            want = np.array([
                float(sum(wi / bi * (mpmath.expm1(bi * mpmath.mpf(x)) - bi * mpmath.mpf(x))
                          for wi, bi in zip(w, b)))
                for x in d.tolist()
            ])
        scalar = np.array([f.F(x) for x in (f.phi_star + d).tolist()])
        for got in (f.F.from_delta(d), scalar):
            assert np.all(np.abs(got - want) <= 4 * 2.0**-52 * np.abs(want))

    def test_remainders_against_mpmath(self):
        # the remainder n_0 of the f0 of three species against the 40-digit
        # sum_i basis_i0 (expm1(x_i) - x_i - x_i^2/2), x_i = b_i delta, over
        # |b| delta in [1e-6, 3] on both sides: within 14 ulp relative
        # (measured 10.0; 14.4 when its expm1 sum kept the rounding of the
        # first two moments)
        terms = _F0Terms.of(make_f0(MULTI_SPECIES_F0[3], ANNULUS_3D.volume, 0.1))
        b, rho = terms.b.tolist(), terms.basis[:, 0].tolist()
        g = np.geomspace(1e-6, 3.0, 300) / max(map(abs, b))
        d = np.concatenate([g, -g])
        with mpmath.workdps(40):
            want = np.array([
                float(sum(r * (mpmath.expm1(x) - x - x * x / 2)
                          for r, x in ((r, bi * mpmath.mpf(di)) for r, bi in zip(rho, b))))
                for di in d.tolist()
            ])
        got = terms.n.from_delta(d)[:, 0]
        assert np.all(np.abs(got - want) <= 14 * 2.0**-52 * np.abs(want))


@st.composite
def species_sets(draw):
    n_pos = draw(st.integers(1, 3))
    n_neg = draw(st.integers(1, 3))
    def one(sign):
        z = sign * draw(st.floats(0.5, 3.0))
        c = draw(st.floats(0.1, 5.0))
        return IonSpecies(z, c)
    return [one(+1) for _ in range(n_pos)] + [one(-1) for _ in range(n_neg)]


@given(species_sets(), st.floats(-4.0, 4.0))
@settings(max_examples=60, deadline=None)
def test_classical_density_properties(species, phi):
    f = make_classical_pb(species)
    assert float(f.df(phi)) < 0
    root_scale = 1.0 + abs(float(f.df(f.phi_star)))
    assert abs(float(f.f(f.phi_star))) <= 1e-10 * root_scale
    if abs(phi - f.phi_star) > 1e-6:
        assert float(f.F(phi)) < 0
