import math
from dataclasses import fields, replace

import mpmath
import numpy as np
import pytest

from pblayers.errors import (
    ConfigError,
    DegenerateTimeMap,
    GridTooCoarse,
    MismatchedReference,
    ModelProfileMismatch,
    NegativeTime,
    NoSignChange,
)
from pblayers.nonlinearity import (
    IonSpecies,
    make_classical_pb,
    make_custom,
    make_f0,
    make_f1,
    make_fhat1,
    symmetric_salt,
)
from pblayers import profiles
from pblayers.numerics import boundary_clustered_nodes
from pblayers.profiles import (
    DEFAULT_NODES,
    MIN_NODES,
    LayerBundle,
    Profile,
    RobinData,
    Tail,
    _from_delta,
    boundary_potential,
    boundary_slope,
    first_integral_drift,
    ode_residual,
    profile_eval,
    solve_theta,
    solve_u,
    solve_v,
    solve_w,
    time_integral_usq,
)

from conftest import whole_array_u, whole_array_w

SQRT2 = math.sqrt(2.0)

# frozen oracle values for f = -2 sinh, gamma = 0.1, phi_bd = 1
U0_ROBIN = 0.8726373409076191          # root of the compatibility equation
INT_USQ_ROBIN = 0.5470557089477659     # integral of u'^2
V0_ROBIN = 0.037185249461187581
VPRIME0_ROBIN = 0.37185249461187581
THETA_PRIME0 = 1.3427240170843739


def compatibility(f, robin):
    """g(x) = phi_bd - x + gamma u'(0) of the Robin compatibility equation."""
    return lambda x: robin.phi_bd - x + robin.gamma * boundary_slope(
        f, f.phi_star, robin.phi_bd, x
    )


def quadrature_v(u):
    """(v, v') by the former solve_v, which summed I and A afresh from the
    speed at the Gauss points of every offset panel; also returns (I, A)."""
    _, _, energy, a_int = whole_array_u(u)
    f, gamma = u.density, u.robin.gamma
    den = u.u0_prime + gamma * float(f.f(u.u0))
    v0 = -gamma / den * energy[0]
    c = v0 / u.u0_prime - a_int
    dv = -_from_delta(f.f, u.phi_star, u.delta) * c - energy / u.derivs
    dv[0] = -energy[0] / den
    return u.derivs * c, dv, energy, a_int


# node counts of the Gauss-point sweep: the fewest, around 2^12 and 2^13
# panels, the default, and the former default of 20,001 nodes
NODE_COUNTS = (5, 4096, 4097, 4098, 8193, 4001, 20001)


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def gouy_chapman(t, phi_bd, slope=False):
    """4 artanh(a e^{-sqrt2 t}), a = tanh(phi_bd / 4), with 1 - a e^{-sqrt2 t}
    summed as -expm1(-sqrt2 t) + (1 - a) e^{-sqrt2 t}, 1 - a = 2 / (e^{|phi_bd|/2}
    + 1), so that it keeps full accuracy at large |phi_bd|; with slope, also
    its t-derivative -4 sqrt2 y / (1 - y^2), y = |a| e^{-sqrt2 t}, signed."""
    s = -SQRT2 * np.asarray(t, dtype=float)
    y = math.tanh(abs(phi_bd) / 4) * np.exp(s)
    one_minus_y = -np.expm1(s) + 2 / (math.exp(abs(phi_bd) / 2) + 1) * np.exp(s)
    value = math.copysign(2.0, phi_bd) * (np.log1p(y) - np.log(one_minus_y))
    if not slope:
        return value
    return value, -math.copysign(4 * SQRT2, phi_bd) * y / (one_minus_y * (1 + y))


class TestLayerProfile:
    # sup errors of the 20,001-node cubic Hermite against Gouy-Chapman on the
    # grid below (Dirichlet, 1:1): |u - u_GC| and max|u' - u'_GC| / max|u'_GC|
    CUBIC_20001_ERRORS = {
        1.0: (8.1e-16, 1.6e-12), 4.0: (4.9e-15, 4.1e-12), 10.0: (8.3e-14, 3.2e-11),
        20.0: (1.3e-12, 1.6e-10), 40.0: (2.1e-11, 1.3e-10),
    }

    def test_gouy_chapman_closed_form(self, salt):
        # the quintic on DEFAULT_NODES nodes is no worse in value or slope,
        # on t in [0, 20] and across the inner sublayer (measured at 4,001
        # nodes: values 5.6e-16 .. 1.4e-12, slopes 1.7e-14 .. 2.1e-12)
        for phi_bd in (1.0, -1.0, 4.0, 10.0, 20.0, 40.0):
            value_err, slope_err = self.CUBIC_20001_ERRORS[abs(phi_bd)]
            # t where u = phi_bd / 2: the inner sublayer, exp(-phi_bd / 4) thin
            t_half = math.log(math.tanh(phi_bd / 4) / math.tanh(phi_bd / 8)) / SQRT2
            tq = np.concatenate((np.linspace(0, 20, 20001), np.linspace(0, 2 * t_half, 2001)))
            val, der = profile_eval(solve_u(salt, RobinData(0.0, phi_bd)), tq)
            want, want_der = gouy_chapman(tq, phi_bd, slope=True)
            assert np.max(np.abs(val - want)) <= value_err, phi_bd
            assert np.max(np.abs(der - want_der)) <= slope_err * np.max(np.abs(want_der)), phi_bd

    # integral of u'^2 over [0, inf) on the two README-annulus boundaries:
    # mpmath quadrature at 30 digits of sqrt(-2 F0) from phi0* to u(0), with
    # F0 = -(1/|Omega|) sum_i m_i expm1(-z_i (x - phi0*)) on the double
    # |Omega|, phi0* and u(0) of the solve
    INT_USQ_ANNULUS = ("0.0999566736546646236", "0.3729322947316460052")

    def test_int_usq_against_mpmath(self, annulus_constants):
        cc = annulus_constants
        volume = mpmath.mpf(cc.domain.volume)
        with mpmath.workdps(30):
            for bundle, recorded in zip(cc.profiles, self.INT_USQ_ANNULUS):
                u = bundle.u
                star = mpmath.mpf(u.phi_star)

                def F0(x):
                    return -sum(
                        s.amount * mpmath.expm1(-s.z * (x - star)) for s in cc.species
                    ) / volume

                ends = sorted((star, mpmath.mpf(u.u0)))
                ref = mpmath.quad(lambda x: mpmath.sqrt(-2 * F0(x)), ends)
                assert abs(ref / mpmath.mpf(recorded) - 1) <= 1e-18
                assert abs(u.int_usq / ref - 1) <= 1e-15
    def test_boundary_slope_dirichlet(self, salt):
        u = solve_u(salt, RobinData(0.0, 1.0))
        assert u.u0_prime == pytest.approx(-2 * SQRT2 * math.sinh(0.5), abs=1e-13)

    def test_value_at_one(self, salt):
        u = solve_u(salt, RobinData(0.0, 1.0))
        val, _ = profile_eval(u, 1.0)
        assert val == pytest.approx(float(gouy_chapman(1.0, 1.0)), abs=1e-11)

    def test_constant_profile_at_reference(self, salt):
        u = solve_u(salt, RobinData(0.3, 0.0))
        assert u.flat
        assert np.all(u.values == 0.0) and np.all(u.derivs == 0.0)

    def test_robin_boundary_value(self, salt):
        u = solve_u(salt, RobinData(0.1, 1.0))
        assert u.u0 == pytest.approx(U0_ROBIN, abs=1e-12)
        assert u.u0 == pytest.approx(0.873, abs=1e-3)
        # Robin condition holds at the boundary node
        assert u.values[0] - 0.1 * u.derivs[0] == pytest.approx(1.0, abs=1e-10)

    def test_boundary_potential_asymmetric_salt_pinned(self):
        # 2:1 salt with phi* != 0, pinned exactly; the residual may not exceed
        # the one at the values a 1e-15 bisection gave.  Its f(phi*) rounds
        # to -2.2e-16, which F once kept as a linear term: then phi_bd = 2
        # gave 0.8989584906947277 (the record)
        f = make_classical_pb([IonSpecies(2.0, 0.3), IonSpecies(-1.0, 1.7)])
        for phi_bd, want, record, bisected in (
            (2.0, 0.8989584906947278, 0.8989584906947277, 0.8989584906947274),
            (-2.0, -1.1174632701687042, -1.1174632701687042, -1.1174632701687042),
        ):
            got = boundary_potential(f, RobinData(0.5, phi_bd))
            assert got == want and abs(got - record) <= 2 * math.ulp(record)
            g = compatibility(f, RobinData(0.5, phi_bd))
            assert abs(g(got)) <= abs(g(bisected))

    @pytest.mark.parametrize("valences", [
        ((2.0, 0.3), (-1.0, 1.7)), ((3.0, 0.7), (-2.0, 0.4), (-1.0, 1.3)),
    ], ids=["2:1", "3:2:1"])
    @pytest.mark.parametrize("phi_bd", [1.0, -1.7, 5.0])
    def test_tail_speed_is_mu_delta(self, valences, phi_bd):
        # f(phi*) rounds to -2.2e-16 and 4.4e-16 on these salts; F vanishes to
        # second order at phi* all the same, so at the last node
        # |u'| = sqrt(-2 F) = mu |delta| (1 + O(delta)).  Keeping f(phi*) as
        # a linear term of F put it 1.5e-5 to 6.2e-5 off
        f = make_classical_pb([IonSpecies(z, c) for z, c in valences])
        u = solve_u(f, RobinData(0.1, phi_bd))
        want = u.mu * abs(u.delta[-1])
        assert abs(abs(u.derivs[-1]) - want) <= 1e-12 * want

    def test_boundary_potential_asymmetric_salt_residual(self):
        # 2:1 salt, either sign of phi_bd: a residual of the compatibility
        # equation below the 2**-51 a bisection to BOUNDARY_RTOL leaves at
        # phi_bd = 2
        f = make_classical_pb([IonSpecies(2.0, 0.3), IonSpecies(-1.0, 1.7)])
        for phi_bd in (2.0, -2.0):
            robin = RobinData(0.5, phi_bd)
            assert abs(compatibility(f, robin)(boundary_potential(f, robin))) <= 4.4e-16

    @pytest.mark.parametrize("gamma, phi_bd", [
        (math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0),
        (0.1, math.nan), (0.1, math.inf), (0.1, -math.inf),
    ])
    def test_non_finite_robin_data_rejected(self, gamma, phi_bd):
        with pytest.raises(ConfigError, match="finite"):
            RobinData(gamma, phi_bd)

    @pytest.mark.parametrize("n_nodes", [-5, 0, 1, 2, MIN_NODES - 1])
    @pytest.mark.parametrize("phi_bd", [1.0, 0.0])
    def test_too_few_nodes_rejected(self, salt, n_nodes, phi_bd):
        with pytest.raises(GridTooCoarse, match="n_nodes"):
            solve_u(salt, RobinData(0.1, phi_bd), n_nodes=n_nodes)

    @pytest.mark.parametrize("phi_bd", [1.0, 0.0])
    def test_fewest_nodes_accepted(self, salt, phi_bd):
        u = solve_u(salt, RobinData(0.1, phi_bd), n_nodes=MIN_NODES)
        assert len(u.t) == MIN_NODES
        assert np.isfinite(ode_residual(u))

    def test_boundary_potential_matches_inline_bisection(self, salt):
        got = boundary_potential(salt, RobinData(0.1, 1.0))
        g = lambda x: 1 - x - 0.1 * math.sqrt(4 * (math.cosh(x) - 1))
        lo, hi = 0.0, 1.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if g(mid) > 0:
                lo = mid
            else:
                hi = mid
        assert got == pytest.approx(0.5 * (lo + hi), abs=1e-12)

    def test_boundary_potential_without_sign_change(self, salt, monkeypatch):
        # a slope that overwhelms phi_bd - U0 keeps the compatibility
        # equation positive; brent_root's bracket check names it
        monkeypatch.setattr(profiles, "boundary_slope", lambda *args: 1e9)
        with pytest.raises(NoSignChange, match="boundary-value equation"):
            boundary_potential(salt, RobinData(0.1, 1.0))

    def test_sign_law_negative_boundary(self, salt):
        u = solve_u(salt, RobinData(0.0, -1.0))
        assert np.all(np.diff(u.values) > 0)
        assert np.all(u.values[:-1] < 0) and np.all(u.values > -1.0 - 1e-14)

    def test_first_integral(self, profile_matrix):
        for (gamma, phi_bd), (u, _) in profile_matrix.items():
            drift = first_integral_drift(u)
            assert drift <= 1e-10 * (1 + u.u0_prime ** 2)

    def test_derivative_envelope(self, profile_matrix):
        for (gamma, phi_bd), (u, _) in profile_matrix.items():
            m_f = u.m_f
            bound = abs(u.u0_prime) * np.exp(-m_f * u.t)
            assert np.all(np.abs(u.derivs) <= bound * (1 + 1e-12) + 1e-300)

    def test_energy_dual_quadrature(self, profile_matrix):
        for (gamma, phi_bd), (u, _) in profile_matrix.items():
            pot = u.int_usq
            tim = time_integral_usq(u)
            assert tim == pytest.approx(pot, rel=1e-8)

    def test_energy_frozen_values(self, salt):
        u0 = solve_u(salt, RobinData(0.0, 1.0))
        assert u0.int_usq == pytest.approx(4 * SQRT2 * (math.cosh(0.5) - 1), rel=1e-12)
        ur = solve_u(salt, RobinData(0.1, 1.0))
        assert ur.int_usq == pytest.approx(INT_USQ_ROBIN, rel=1e-12)

    def test_layer_integrals_stored_read_only(self, profile_matrix, salt):
        for (gamma, phi_bd), (u, _) in profile_matrix.items():
            assert bits(u.energy[0]) == bits(u.int_usq)
            # one value per node: no per-panel Gauss data is kept
            arrays = [getattr(u, fl.name) for fl in fields(u)]
            arrays = [a for a in arrays if isinstance(a, np.ndarray)]
            assert len(arrays) == 7 and all(a.shape == u.t.shape for a in arrays)
            for arr in (u.delta, u.energy, u.energy_integral):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 0.0
        flat = solve_u(salt, RobinData(0.1, 0.0))
        assert flat.energy is None and flat.energy_integral is None and flat.int_usq == 0.0

    @pytest.mark.parametrize("n_nodes", NODE_COUNTS)
    def test_blocked_sweep_matches_whole_array(self, profile_matrix, salt, n_nodes):
        # the sweep over all panels has every bit of the reference's t, u',
        # I and A
        for gamma, phi_bd in profile_matrix:
            u = solve_u(salt, RobinData(gamma, phi_bd), n_nodes)
            got = (u.t, u.derivs, u.energy, u.energy_integral)
            for name, a, b in zip(("t", "u'", "I", "A"), got, whole_array_u(u)):
                assert np.array_equal(bits(a), bits(b)), (gamma, phi_bd, name)

    def test_tail_rate_is_reference_slope(self, salt):
        u = solve_u(salt, RobinData(0.1, 1.0))
        assert u.tail.rate == pytest.approx(SQRT2, abs=1e-13)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("F", [
        lambda x: -2.0 * (np.cosh(x) - 1.0),  # cancels to 0 near phi*
        lambda x: 2.0 * (np.cosh(x) - 1.0),  # wrong sign
    ], ids=["cancelling", "wrong-sign"])
    def test_degenerate_time_map_rejected(self, F):
        f = make_custom(lambda x: -2.0 * np.sinh(x), lambda x: -2.0 * np.cosh(x), F)
        with pytest.raises(DegenerateTimeMap):
            solve_u(f, RobinData(0.1, 1.0))

    def test_custom_density_matches_exp_sum(self, std_bundle):
        # the 1:1 salt through make_custom, with an F that keeps its relative
        # accuracy near phi*
        f = make_custom(
            lambda x: -2.0 * np.sinh(x), lambda x: -2.0 * np.cosh(x),
            lambda x: -4.0 * np.sinh(np.asarray(x) / 2.0) ** 2,
        )
        u, want = solve_u(f, RobinData(0.1, 1.0)), std_bundle.u
        assert np.max(np.abs(u.t - want.t)) <= 1e-15 * want.t_max
        assert np.max(np.abs(u.values - want.values)) <= 1e-15
        assert np.max(np.abs(u.derivs - want.derivs)) <= 1e-15

    def test_nonmonotone_density_rejected(self, msalt):
        f0 = make_f0(msalt, 1.0, 0.0)
        fh = make_fhat1(msalt, 1.0, 0.0, [1.0, 1.0])
        f1 = make_f1(f0, fh, 1.0)
        with pytest.raises(ConfigError):
            solve_u(f1, RobinData(0.0, 1.0))


class TestCurvatureProfile:
    def test_degenerate_and_dirichlet_zero(self, salt):
        u_deg = solve_u(salt, RobinData(0.1, 0.0))
        v_deg = solve_v(u_deg)
        assert np.all(v_deg.values == 0.0)
        u = solve_u(salt, RobinData(0.0, 1.0))
        v = solve_v(u)
        assert v.values[0] == 0.0  # V0 = 0 in the Dirichlet limit
        assert v.v0 == 0.0

    def test_frozen_robin_values(self, std_bundle):
        v = std_bundle.v
        assert v.v0 == pytest.approx(V0_ROBIN, rel=1e-11)
        assert v.v_prime0 == pytest.approx(VPRIME0_ROBIN, rel=1e-11)

    def test_positivity_and_unimodality(self, profile_matrix):
        for (gamma, phi_bd), (u, v) in profile_matrix.items():
            sgn = 1.0 if phi_bd > 0 else -1.0
            signed = sgn * v.values
            assert np.all(signed[1:] > 0)
            if gamma > 0:
                assert signed[0] > 0
            interior = v.derivs[np.abs(v.derivs) > 1e-13]
            flips = np.sum(np.diff(np.sign(interior)) != 0)
            assert flips == 1
            # rising toward the extremum first, mirrored for negative data
            assert sgn * interior[0] > 0 and sgn * interior[-1] < 0
            assert 0 < v.t_star < v.t_max

    def test_energy_balance_identity_negative(self, profile_matrix, salt):
        # g = f(u) v + u' v' stays negative and vanishes along the tail
        for (gamma, phi_bd), (u, v) in profile_matrix.items():
            g = np.asarray(salt.f(u.values)) * v.values + u.derivs * v.derivs
            assert np.all(g < 0)
            assert abs(g[-1]) < 1e-12

    def test_integral_identity(self, profile_matrix, salt, stencil_derivative):
        # v'(t) (-u'(t)) = f(u) v + int_t^inf u'^2, checked against an
        # independent five-point stencil derivative of the v samples
        for (gamma, phi_bd), (u, v) in profile_matrix.items():
            dv_fd = stencil_derivative(v.t, v.values)
            assert np.max(np.abs(dv_fd - v.derivs)) < 1e-7

    def test_ode_residual(self, std_bundle):
        res = ode_residual(std_bundle.v, std_bundle.u)
        assert res <= 1e-10

    def test_matches_gauss_point_quadrature(self, profile_matrix):
        # reading I and A from u changes no bit of v
        for (gamma, phi_bd), (u, v) in profile_matrix.items():
            want_v, want_dv, energy, a_int = quadrature_v(u)
            assert np.array_equal(bits(u.energy), bits(energy)), (gamma, phi_bd)
            assert np.array_equal(bits(u.energy_integral), bits(a_int)), (gamma, phi_bd)
            assert np.array_equal(bits(v.values), bits(want_v)), (gamma, phi_bd)
            assert np.array_equal(bits(v.derivs), bits(want_dv)), (gamma, phi_bd)

    def test_no_antiderivative_call(self):
        # v reads I, A and f(u) = -u'' from u: F is never called, and f only
        # at u(0)
        calls = {"F": 0, "f": 0}

        def f(x):
            calls["f"] += np.size(x)
            return -2.0 * np.sinh(x)

        def F(x):
            calls["F"] += 1
            return -4.0 * np.sinh(np.asarray(x) / 2.0) ** 2

        dens = make_custom(f, lambda x: -2.0 * np.cosh(x), F, phi_star=0.0)
        u = solve_u(dens, RobinData(0.1, 1.0))
        calls.update(F=0, f=0)
        v = solve_v(u)
        assert calls == {"F": 0, "f": 1}
        assert np.all(np.isfinite(v.values))

    def test_density_out_of_equality_and_json(self):
        # 1:1 salts at concentrations 1 and 2 both have phi* = 0; the density
        # a u was solved with is kept out of equality and of
        # profiles_meta.json
        f_a, f_b = (make_classical_pb(symmetric_salt(c)) for c in (1.0, 2.0))
        u = solve_u(f_a, RobinData(0.1, 1.0))
        assert replace(u, density=f_b) == u and "density" not in str(u.to_json_dict())

    @pytest.mark.parametrize("valences", [(1, -1), (2, -1)], ids=["1:1", "2:1"])
    @pytest.mark.parametrize("phi_bd", [-30.0, -20.0, 20.0, 30.0, 35.0, 38.0, 40.0])
    def test_large_boundary_potential(self, valences, phi_bd):
        # the inner sublayer holds a few nodes at most; |v'(0)| = I(0) / |u'(0)
        # + gamma f(u(0))| stays below 2 on these salts (2 tanh(phi_bd / 4) for
        # 1:1 and gamma = 0).  The ODE residuals of u, v and theta, relative
        # to max|y''|, were measured on these cases and at phi_bd -40, 1 and
        # -1.7: at most 1.06e-7 for gamma = 0 (v and theta of the 2:1 salt at
        # phi_bd -40; 3.4e-8 on the list here) and 4.8e-11 for gamma > 0
        z1, z2 = valences
        f = make_classical_pb([IonSpecies(z1, -z2), IonSpecies(z2, z1)])
        for gamma in (0.0, 0.1, 10.0):
            u = solve_u(f, RobinData(gamma, phi_bd))
            v = solve_v(u)
            assert np.all(np.isfinite(v.values)) and np.all(np.isfinite(v.derivs)), gamma
            assert abs(v.v_prime0) <= 2.0, gamma
            assert time_integral_usq(u) == pytest.approx(u.int_usq, rel=1e-10), gamma
            pin = 2e-7 if gamma == 0.0 else 1e-10
            for p in (u, v, solve_theta(u)):
                scale = np.max(np.abs(p.second_derivs))
                assert ode_residual(p, u) <= pin * scale, (gamma, p.kind)


class TestAuxiliaryLayer:
    def test_dirichlet_limit_vanishes_at_boundary(self, salt):
        u = solve_u(salt, RobinData(0.0, 1.0))
        th = solve_theta(u)
        assert th.values[0] == pytest.approx(0.0, abs=1e-14)

    def test_degenerate_is_one(self, salt):
        u = solve_u(salt, RobinData(0.1, 0.0))
        th = solve_theta(u)
        assert np.all(th.values == 1.0)

    def test_limit_is_one(self, std_bundle):
        th = std_bundle.theta
        assert th.tail.limit == 1.0
        assert th.values[-1] == pytest.approx(1.0, abs=1e-9)

    def test_boundary_slope_formula_vs_fd(self, std_bundle, stencil_derivative):
        th = std_bundle.theta
        assert th.theta_prime0 == pytest.approx(THETA_PRIME0, rel=1e-11)
        d_fd = stencil_derivative(th.t[:7], th.values[:7])[0]
        assert d_fd == pytest.approx(th.theta_prime0, abs=1e-8)

    def test_positive_boundary_slope(self, std_bundle):
        assert std_bundle.theta.theta_prime0 > 0

    def test_matches_direct_linear_bvp(self, salt, std_bundle):
        from scipy.integrate import solve_bvp

        u = std_bundle.u
        th = std_bundle.theta
        t_cut = min(u.t_max, 30.0 / u.mu)

        def rhs(t, y):
            uv, _ = profile_eval(u, t)
            return np.vstack([y[1], np.asarray(salt.df(uv)) * (1.0 - y[0])])

        def bc(ya, yb):
            return np.array([ya[0] - 0.1 * ya[1], yb[0] - 1.0])

        t0 = np.linspace(0, t_cut, 2001)
        y0 = np.vstack([1.0 - np.exp(-t0), np.exp(-t0)])
        sol = solve_bvp(rhs, bc, t0, y0, tol=1e-10, max_nodes=200000)
        assert sol.status == 0
        tq = np.linspace(0, t_cut, 4001)
        mine, _ = profile_eval(th, tq)
        assert np.max(np.abs(mine - sol.sol(tq)[0])) < 1e-7

    def test_ode_residual(self, std_bundle):
        res = ode_residual(std_bundle.theta, std_bundle.u)
        assert res <= 1e-10


@pytest.fixture(scope="module")
def w_setup(msalt):
    f0 = make_f0(msalt, 1.0, 0.0)
    fh = make_fhat1(msalt, 1.0, 0.0, [1.0, 1.0])
    u = solve_u(f0, RobinData(0.1, 1.0))
    return f0, fh, u


class TestConservationProfile:
    def test_zero_data_gives_zero(self, msalt, w_setup):
        f0, _, u = w_setup
        zero = make_fhat1(msalt, 1.0, 0.0, [0.0, 0.0])
        f1 = make_f1(f0, zero, 0.0)
        w = solve_w(u, f1)
        assert np.max(np.abs(w.values)) < 1e-13

    def test_dirichlet_boundary_value(self, msalt, w_setup):
        f0, fh, _ = w_setup
        f1 = make_f1(f0, fh, 1.0)
        u = solve_u(f0, RobinData(0.0, 1.0))
        w = solve_w(u, f1)
        assert w.values[0] == pytest.approx(0.0, abs=1e-14)

    def test_limit_is_drift_constant(self, msalt, w_setup):
        f0, fh, u = w_setup
        f1 = make_f1(f0, fh, 1.0)
        w = solve_w(u, f1)
        assert w.tail.limit == pytest.approx(1.0, abs=1e-12)
        assert w.values[-1] == pytest.approx(1.0, abs=1e-8)

    def test_robin_condition(self, msalt, w_setup):
        f0, fh, u = w_setup
        f1 = make_f1(f0, fh, 1.0)
        w = solve_w(u, f1)
        assert w.values[0] - 0.1 * w.derivs[0] == pytest.approx(0.0, abs=1e-12)

    def test_ode_residual(self, msalt, w_setup):
        f0, fh, u = w_setup
        f1 = make_f1(f0, fh, 1.0)
        w = solve_w(u, f1)
        assert ode_residual(w, u, f1) <= 1e-10

    def test_degenerate_constant(self, msalt):
        f0 = make_f0(msalt, 1.0, 0.0)
        fh = make_fhat1(msalt, 1.0, 0.0, [0.0, 0.0])
        f1 = make_f1(f0, fh, 2.5)
        u = solve_u(f0, RobinData(0.1, 0.0))
        w = solve_w(u, f1)
        assert np.all(w.values == 2.5)

    def test_matches_closure_f1(self, annulus_constants, closure_f1):
        # f1 as one exp sum and w in closed form move w by rounding only
        # against the quadrature fed with f1 summed by closures, which
        # solve_w itself rejects: it reads the coefficients of f1
        cc = annulus_constants
        old = closure_f1(cc.f0, cc.fhat1, cc.q)
        for bundle in cc.profiles:
            got, want = bundle.w, whole_array_w(bundle.u, old)
            for a, b in zip((got.values, got.derivs), want):
                assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))
            limit = -float(old.f(cc.phi0_star)) / float(cc.f0.df(cc.phi0_star))
            assert got.tail.limit == pytest.approx(limit, rel=0, abs=1e-13)
            with pytest.raises(MismatchedReference):
                solve_w(bundle.u, old)

    @pytest.mark.parametrize("n_nodes", NODE_COUNTS)
    def test_blocked_sweep_matches_whole_array(self, annulus_constants, annulus_domain, n_nodes):
        # on both README-annulus boundaries, the u that w rests on keeps every
        # bit of the reference sweep over all panels.  At every node count,
        # w'(0) has the bits of the reference's w'(0) and w(0) is within 1e-15
        # of max|w| of its w(0) (limit + u'(0) s(0) rounds at the scale of the
        # limit), neither of which reads the quadrature, and w settles on the
        # limit -f1(phi*)/f0'(phi*).  From 4,001 nodes up, w and w' match the
        # quadrature to 1e-13 of max|w| and max|w'| at every node; with five
        # nodes its panels are decades of offset wide and it misses w by the
        # order of w itself, so the body is not compared there
        cc = annulus_constants
        for k, comp in enumerate(annulus_domain.components):
            u = solve_u(cc.f0, comp.robin, n_nodes)
            got = (u.t, u.derivs, u.energy, u.energy_integral)
            for name, a, b in zip(("t", "u'", "I", "A"), got, whole_array_u(u)):
                assert np.array_equal(bits(a), bits(b)), (k, name)
            w = solve_w(u, cc.f1)
            want = whole_array_w(u, cc.f1)
            limit = -float(cc.f1.f(u.phi_star)) / float(cc.f0.df(u.phi_star))
            scale = np.max(np.abs(w.values))
            assert abs(w.values[0] - want[0][0]) <= 1e-15 * scale, k
            assert w.derivs[0] == want[1][0], k
            assert w.tail.limit == limit, k
            assert abs(w.values[-1] - limit) <= 1e-9 * scale, k
            if n_nodes == MIN_NODES:
                continue
            for name, a, b in zip(("w", "w'"), (w.values, w.derivs), want):
                assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b)), (k, name)

    def test_closed_form_matches_quadrature(self, profile_matrix, salt, msalt):
        # on the 12 configurations of the 1:1 salt (f0 of unit volume at
        # phi* = 0 has the terms of the classical density), w and w' match
        # the Gauss-point quadrature to 1e-13 of their maxima at every node
        f0 = make_f0(msalt, 1.0, 0.0)
        f1 = make_f1(f0, make_fhat1(msalt, 1.0, 0.0, [1.0, 1.0]), 1.0)
        for (gamma, phi_bd), (u, _) in profile_matrix.items():
            w = solve_w(u, f1)
            want = whole_array_w(u, f1)
            for name, a, b in zip(("w", "w'"), (w.values, w.derivs), want):
                assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b)), (gamma, phi_bd, name)

    def test_f1_off_the_exponents_of_f0_rejected(self, msalt, w_setup):
        f0, fh, u = w_setup
        f1 = make_f1(f0, fh, 1.0)
        other = make_f0([IonSpecies(2.0, 1.0, "mass"), IonSpecies(-1.0, 2.0, "mass")], 1.0, 0.0)
        # an f1 on the exponents of f0 but anchored at another phi* (0.5)
        shifted = make_f1(make_f0(msalt, 1.0, 0.5), make_fhat1(msalt, 1.0, 0.5, [1.0, 1.0]), 1.0)
        for bad in (replace(f1, f=other.f), replace(f1, f=lambda x: f1.f(x)), shifted):
            with pytest.raises(MismatchedReference):
                solve_w(u, bad)

    def test_tail_moves_no_more_than_last_node(self, annulus_constants):
        # README annulus, boundary 0: a move of w's last value by up to 1e-13
        # of max|w| moves the tail by no more than that, up to the rounding of
        # the limit, anywhere on [t_max, t_max + 50]
        w = annulus_constants.profiles[0].w
        limit, s = w.tail.limit, np.linspace(0.0, 50.0, 5001)
        want, _ = w.tail(s)
        scale = 1e-13 * np.max(np.abs(w.values))
        for seed in range(5):
            noise = scale * np.random.default_rng(seed).uniform(-1.0, 1.0)
            tail = Tail.anchored(limit, w.tail.rate, w.values[-1] + noise - limit, w.derivs[-1])
            got, _ = tail(s)
            assert np.max(np.abs(got - want)) <= abs(noise) + 4 * np.spacing(abs(limit)), seed

    def test_f1_of_another_salt_rejected(self, w_setup):
        # same exponents and phi* as f0 (the 1:1 salt of amounts 1), but built
        # from the salt of amounts 2: its w would settle on 2.0, not f1.q = 1.0
        _, _, u = w_setup
        salt2 = symmetric_salt(2.0, "mass")
        f1 = make_f1(make_f0(salt2, 1.0, 0.0), make_fhat1(salt2, 1.0, 0.0, [1.0, 1.0]), 1.0)
        with pytest.raises(MismatchedReference, match="w tends to 2.0"):
            solve_w(u, f1)

    def test_f1_without_drift_constant_rejected(self, msalt, w_setup):
        f0, fh, u = w_setup
        f1 = replace(make_f1(f0, fh, 1.0), q=None)
        with pytest.raises(MismatchedReference):
            solve_w(u, f1)


@pytest.fixture(scope="module")
def flat_bundle(msalt):
    """u, v, theta and w with phi_bd = phi* = 0: no layer, every profile constant."""
    f0 = make_f0(msalt, 1.0, 0.0)
    f1 = make_f1(f0, make_fhat1(msalt, 1.0, 0.0, [0.0, 0.0]), 2.5)
    u = solve_u(f0, RobinData(0.1, 0.0))
    return LayerBundle(u, solve_v(u), solve_theta(u), solve_w(u, f1), f1)


class TestLayerBundle:
    def test_w_and_f1_come_together(self, std_bundle, annulus_constants):
        # the model is whether w is there: a bundle never holds w without
        # the f1 it was solved with, nor f1 without w
        cc = annulus_constants
        u, v, w = cc.profiles[0].u, cc.profiles[0].v, cc.profiles[0].w
        assert cc.profiles[0].f1 is cc.f1
        assert (std_bundle.model, cc.profiles[0].model) == ("pb", "ccpb")
        with pytest.raises(ModelProfileMismatch):
            LayerBundle(u, v, w=w)
        with pytest.raises(ModelProfileMismatch):
            LayerBundle(u, v, f1=cc.f1)
        assert [p.kind for p in LayerBundle(u, v, w=w, f1=cc.f1).layers()] == ["u", "v", "w"]
        assert [p.kind for p in std_bundle.layers()] == ["u", "v", "theta"]


class TestJsonMeta:
    """The "meta" keys that to_json_dict gives profiles_meta.json, each a
    typed attribute of the profile."""

    U_KEYS = {"phi_star", "u0", "mu", "m_f", "u0_prime", "int_usq"}
    KEYS = {
        "u": U_KEYS,
        "v": {"v0", "v_prime0", "t_star"},
        "theta": {"theta_prime0", "den"},
        "w": {"w0", "w_prime0", "q", "limit"},
    }

    def test_layer_keys(self, std_bundle, annulus_constants):
        bundles = [std_bundle, *annulus_constants.profiles]
        assert {p.kind for b in bundles for p in b.layers()} == set(self.KEYS)
        for bundle in bundles:
            for p in bundle.layers():
                meta = p.to_json_dict()["meta"]
                assert set(meta) == self.KEYS[p.kind]
                assert all(meta[k] == getattr(p, k) for k in meta)
                assert not p.flat

    def test_flat_keys(self, flat_bundle):
        want = {
            "u": {"phi_star": 0.0, "u0": 0.0, "mu": SQRT2, "m_f": SQRT2,
                  "u0_prime": 0.0, "int_usq": 0.0},
            "v": {"v0": 0.0, "v_prime0": 0.0, "t_star": 0.0},
            "theta": {"theta_prime0": 0.0},
            "w": {"w0": 2.5, "w_prime0": 0.0, "q": 2.5},
        }
        for p in flat_bundle.layers():
            assert p.flat
            assert p.to_json_dict()["meta"] == dict(want[p.kind], degenerate=True)


class TestEvaluation:
    def test_nodes_exact(self, std_bundle):
        u = std_bundle.u
        val, der = profile_eval(u, u.t[1234])
        assert val == u.values[1234] and der == u.derivs[1234]

    def test_tail_model(self, salt):
        # Dirichlet Gouy-Chapman beyond t_max, where u = 4 artanh(y) with
        # y = tanh(phi_bd / 4) exp(-sqrt2 t) below 1e-12
        for phi_bd in (1.0, -1.0):
            u = solve_u(salt, RobinData(0.0, phi_bd))
            tq = u.t_max + np.array([0.5, 1.0, 5.0, 10.0, 30.0])
            y = math.tanh(phi_bd / 4) * np.exp(-SQRT2 * tq)
            val, der = profile_eval(u, tq)
            assert np.max(np.abs(val / (4 * np.arctanh(y)) - 1)) <= 1e-12, phi_bd
            assert np.max(np.abs(der / (-4 * SQRT2 * y / (1 - y * y)) - 1)) <= 1e-12, phi_bd

    # the fitted amplitudes c of the former fixed-rate tails c exp(-mu t), with
    # the nodes chosen in potential space and, before that, in t
    FITTED_AMPLITUDES = {
        "u": (0.8590519589434619, 0.8590519589433202),
        "theta": (-0.8257974445355212, -0.8257972615494388),
    }

    def test_fixed_rate_tails_pinned(self, std_bundle):
        # pinned exactly: the anchored tails must not move a bit
        assert std_bundle.u.tail == Tail(0.0, 1.4142135623730951, 8.726373409076226e-13, 0.0)
        assert std_bundle.theta.tail == Tail(
            1.0, 1.4142135623730951, -8.388570049006286e-13, -2.0194839173657902e-28
        )
        for kind, amplitudes in self.FITTED_AMPLITUDES.items():
            p = getattr(std_bundle, kind)
            for old in amplitudes:
                assert p.tail.a * math.exp(p.tail.rate * p.t_max) == pytest.approx(old, rel=1e-6)

    def test_tail_is_c1_at_t_max(self, profile_matrix, annulus_constants, flat_bundle):
        # the tail gives the last node's value and slope to within 4 ulp
        bundles = [*annulus_constants.profiles, flat_bundle]
        for u, v in profile_matrix.values():
            bundles.append(LayerBundle(u, v, solve_theta(u)))
        for bundle in bundles:
            for p in bundle.layers():
                val, der = p.tail(0.0)
                scale = max(abs(p.tail.limit), abs(p.values[-1]))
                assert abs(val - p.values[-1]) <= 4 * np.spacing(scale), p.kind
                assert abs(der - p.derivs[-1]) <= 4 * np.spacing(abs(p.derivs[-1])), p.kind

    def test_tail_predicts_interior(self, annulus_constants):
        # README annulus: v and w cut at the node nearest 0.6 t_max and
        # continued by the tail anchored there predict the node nearest
        # 0.9 t_max (measured: v 2.0e-15 and 5.6e-15; w 2.7e-6 and 5.2e-7, the
        # rounding of w - q against |q| = 0.61)
        for bundle in annulus_constants.profiles:
            for kind, bound in (("v", 1e-11), ("w", 1e-5)):
                p = getattr(bundle, kind)
                j, k = (int(np.argmin(np.abs(p.t - x * p.t_max))) for x in (0.6, 0.9))
                limit = p.tail.limit
                cut = replace(
                    p, t=p.t[: j + 1], values=p.values[: j + 1], derivs=p.derivs[: j + 1],
                    second_derivs=p.second_derivs[: j + 1],
                    tail=Tail.anchored(limit, p.tail.rate, p.values[j] - limit, p.derivs[j]),
                )
                val, _ = profile_eval(cut, p.t[k])
                assert abs(val - p.values[k]) <= bound * abs(p.values[k] - limit), kind

    def test_negative_time(self, std_bundle):
        with pytest.raises(NegativeTime):
            profile_eval(std_bundle.u, -0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_time(self, std_bundle, bad):
        # no value at a NaN or infinite depth, alone or in an array
        for t in (bad, [0.0, bad, 1.0]):
            with pytest.raises(NegativeTime):
                profile_eval(std_bundle.u, t)

    @pytest.mark.parametrize("seq", [list, tuple])
    def test_sequence_of_depths_is_an_array(self, std_bundle, seq):
        u = std_bundle.u
        ts = [0.0, 1.0, u.t_max + 1.0]  # nodes, interior and tail
        want = profile_eval(u, np.array(ts))
        got = profile_eval(u, seq(ts))
        for g, w in zip(got, want):
            assert isinstance(g, np.ndarray) and g.tobytes() == w.tobytes()
        for t in (1.0, np.float64(1.0), np.array(1.0), 1):
            assert all(type(x) is float for x in profile_eval(u, t))

    def test_interpolation_between_nodes(self, salt):
        u = solve_u(salt, RobinData(0.0, 1.0))
        tq = 0.5 * (u.t[100] + u.t[101])
        val, _ = profile_eval(u, tq)
        assert val == pytest.approx(float(gouy_chapman(tq, 1.0)), abs=1e-11)


class TestOdeResidual:
    def test_constant_profile(self, salt):
        u = solve_u(salt, RobinData(0.1, 0.0))
        assert ode_residual(u) < 1e-13

    def test_closed_form_samples(self, salt):
        # Gouy-Chapman samples, slopes and second derivatives, each from the
        # closed form, on a grid of the default node count
        t = boundary_clustered_nodes(DEFAULT_NODES, 20.0)
        vals = np.asarray(gouy_chapman(t, 1.0))
        a = np.tanh(0.25) * np.exp(-SQRT2 * t)
        derivs = 4 * (-SQRT2) * a / (1 - a * a)
        second = 8 * a * (1 + a * a) / (1 - a * a) ** 2
        p = Profile(
            kind="u", t=t, values=vals, derivs=derivs, second_derivs=second,
            tail=Tail.anchored(0.0, SQRT2, vals[-1], derivs[-1]),
            robin=RobinData(0.0, 1.0),
        )
        # the residual on the density of a u solved with the same data
        assert ode_residual(p, solve_u(salt, RobinData(0.0, 1.0))) <= 1e-10

    def test_grid_too_coarse(self):
        t = np.linspace(0, 1, 4)
        p = Profile(
            kind="u", t=t, values=np.zeros(4), derivs=np.zeros(4), second_derivs=np.zeros(4),
            tail=Tail(0.0, 1.0, 0.0, 0.0), robin=RobinData(0.0, 0.0),
        )
        with pytest.raises(GridTooCoarse):
            ode_residual(p)
