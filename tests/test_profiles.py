import math
from dataclasses import replace

import numpy as np
import pytest

from pblayers.errors import (
    ConfigError,
    DegenerateTimeMap,
    GridTooCoarse,
    MismatchedReference,
    NegativeTime,
)
from pblayers.nonlinearity import (
    IonSpecies,
    make_classical_pb,
    make_custom,
    make_f0,
    make_f1,
    make_fhat1,
)
from pblayers.numerics import boundary_clustered_nodes
from pblayers.profiles import (
    MIN_NODES,
    EquationSpec,
    Profile,
    RobinData,
    Tail,
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


def gouy_chapman(t, phi_bd):
    """4 artanh(a e^{-sqrt2 t}), a = tanh(phi_bd / 4), with 1 - a e^{-sqrt2 t}
    summed as -expm1(-sqrt2 t) + (1 - a) e^{-sqrt2 t}, 1 - a = 2 / (e^{|phi_bd|/2}
    + 1), so that it keeps full accuracy at large |phi_bd|."""
    s = -SQRT2 * np.asarray(t, dtype=float)
    y = math.tanh(abs(phi_bd) / 4) * np.exp(s)
    one_minus_y = -np.expm1(s) + 2 / (math.exp(abs(phi_bd) / 2) + 1) * np.exp(s)
    return math.copysign(2.0, phi_bd) * (np.log1p(y) - np.log(one_minus_y))


class TestLayerProfile:
    def test_gouy_chapman_closed_form(self, salt):
        for phi_bd in (1.0, -1.0, 10.0, 20.0, 40.0):
            # t where u = phi_bd / 2: the inner sublayer, exp(-phi_bd / 4) thin
            t_half = math.log(math.tanh(phi_bd / 4) / math.tanh(phi_bd / 8)) / SQRT2
            tq = np.concatenate((np.linspace(0, 20, 2001), np.linspace(0, 2 * t_half, 2001)))
            u = solve_u(salt, RobinData(0.0, phi_bd))
            val, _ = u(tq)
            assert np.max(np.abs(val - gouy_chapman(tq, phi_bd))) < 1e-10, phi_bd

    def test_boundary_slope_dirichlet(self, salt):
        u = solve_u(salt, RobinData(0.0, 1.0))
        assert u.u0_prime == pytest.approx(-2 * SQRT2 * math.sinh(0.5), abs=1e-13)

    def test_value_at_one(self, salt):
        u = solve_u(salt, RobinData(0.0, 1.0))
        val, _ = u(1.0)
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
        # the one at the values a 1e-15 bisection gave
        f = make_classical_pb([IonSpecies(2.0, 0.3), IonSpecies(-1.0, 1.7)])
        for phi_bd, want, bisected in (
            (2.0, 0.8989584906947277, 0.8989584906947274),
            (-2.0, -1.1174632701687042, -1.1174632701687042),
        ):
            got = boundary_potential(f, RobinData(0.5, phi_bd))
            assert got == want
            g = compatibility(f, RobinData(0.5, phi_bd))
            assert abs(g(got)) <= abs(g(bisected))

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
        assert np.isfinite(ode_residual(u, EquationSpec("u", salt)))

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

    def test_sign_law_negative_boundary(self, salt):
        u = solve_u(salt, RobinData(0.0, -1.0))
        assert np.all(np.diff(u.values) > 0)
        assert np.all(u.values[:-1] < 0) and np.all(u.values > -1.0 - 1e-14)

    def test_first_integral(self, profile_matrix, salt):
        for (gamma, phi_bd), (u, _) in profile_matrix.items():
            drift = first_integral_drift(u, salt)
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
        u, want = solve_u(f, RobinData(0.1, 1.0)), std_bundle["u"]
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
        v_deg = solve_v(u_deg, salt, RobinData(0.1, 0.0))
        assert np.all(v_deg.values == 0.0)
        u = solve_u(salt, RobinData(0.0, 1.0))
        v = solve_v(u, salt, RobinData(0.0, 0.0))
        assert v.values[0] == 0.0  # V0 = 0 in the Dirichlet limit
        assert v.v0 == 0.0

    def test_frozen_robin_values(self, std_bundle):
        v = std_bundle["v"]
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

    def test_ode_residual(self, std_bundle, salt):
        res = ode_residual(std_bundle["v"], EquationSpec("v", salt, u=std_bundle["u"]))
        assert res <= 1e-6

    @pytest.mark.parametrize("valences", [(1, -1), (2, -1)], ids=["1:1", "2:1"])
    @pytest.mark.parametrize("phi_bd", [-30.0, -20.0, 20.0, 30.0, 35.0, 38.0, 40.0])
    def test_large_boundary_potential(self, valences, phi_bd):
        # the inner sublayer holds a few nodes at most; |v'(0)| = I(0) / |u'(0)
        # + gamma f(u(0))| stays below 2 on these salts (2 tanh(phi_bd / 4) for
        # 1:1 and gamma = 0)
        z1, z2 = valences
        f = make_classical_pb([IonSpecies(z1, -z2), IonSpecies(z2, z1)])
        for gamma in (0.0, 0.1, 10.0):
            u = solve_u(f, RobinData(gamma, phi_bd))
            v = solve_v(u, f, RobinData(gamma, 0.0))
            assert np.all(np.isfinite(v.values)) and np.all(np.isfinite(v.derivs)), gamma
            assert abs(v.v_prime0) <= 2.0, gamma
            assert time_integral_usq(u) == pytest.approx(u.int_usq, rel=1e-10), gamma


class TestAuxiliaryLayer:
    def test_dirichlet_limit_vanishes_at_boundary(self, salt):
        u = solve_u(salt, RobinData(0.0, 1.0))
        th = solve_theta(u, salt, RobinData(0.0, 0.0))
        assert th.values[0] == pytest.approx(0.0, abs=1e-14)

    def test_degenerate_is_one(self, salt):
        u = solve_u(salt, RobinData(0.1, 0.0))
        th = solve_theta(u, salt, RobinData(0.1, 0.0))
        assert np.all(th.values == 1.0)

    def test_limit_is_one(self, std_bundle):
        th = std_bundle["theta"]
        assert th.tail.limit == 1.0
        assert th.values[-1] == pytest.approx(1.0, abs=1e-9)

    def test_boundary_slope_formula_vs_fd(self, std_bundle, stencil_derivative):
        th = std_bundle["theta"]
        assert th.theta_prime0 == pytest.approx(THETA_PRIME0, rel=1e-11)
        d_fd = stencil_derivative(th.t[:7], th.values[:7])[0]
        assert d_fd == pytest.approx(th.theta_prime0, abs=1e-8)

    def test_positive_boundary_slope(self, std_bundle):
        assert std_bundle["theta"].theta_prime0 > 0

    def test_matches_direct_linear_bvp(self, salt, std_bundle):
        from scipy.integrate import solve_bvp

        u = std_bundle["u"]
        th = std_bundle["theta"]
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

    def test_ode_residual(self, std_bundle, salt):
        res = ode_residual(std_bundle["theta"], EquationSpec("theta", salt, u=std_bundle["u"]))
        assert res <= 1e-6


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
        w = solve_w(u, f0, f1, 0.0, RobinData(0.1, 0.0))
        assert np.max(np.abs(w.values)) < 1e-13

    def test_dirichlet_boundary_value(self, msalt, w_setup):
        f0, fh, _ = w_setup
        f1 = make_f1(f0, fh, 1.0)
        u = solve_u(f0, RobinData(0.0, 1.0))
        w = solve_w(u, f0, f1, 1.0, RobinData(0.0, 0.0))
        assert w.values[0] == pytest.approx(0.0, abs=1e-14)

    def test_limit_is_drift_constant(self, msalt, w_setup):
        f0, fh, u = w_setup
        f1 = make_f1(f0, fh, 1.0)
        w = solve_w(u, f0, f1, 1.0, RobinData(0.1, 0.0))
        assert w.tail.limit == pytest.approx(1.0, abs=1e-12)
        assert w.values[-1] == pytest.approx(1.0, abs=1e-8)

    def test_robin_condition(self, msalt, w_setup):
        f0, fh, u = w_setup
        f1 = make_f1(f0, fh, 1.0)
        w = solve_w(u, f0, f1, 1.0, RobinData(0.1, 0.0))
        assert w.values[0] - 0.1 * w.derivs[0] == pytest.approx(0.0, abs=1e-12)

    def test_ode_residual(self, msalt, w_setup):
        f0, fh, u = w_setup
        f1 = make_f1(f0, fh, 1.0)
        w = solve_w(u, f0, f1, 1.0, RobinData(0.1, 0.0))
        assert ode_residual(w, EquationSpec("w", f0, u=u, f1=f1)) <= 1e-6

    def test_degenerate_constant(self, msalt):
        f0 = make_f0(msalt, 1.0, 0.0)
        fh = make_fhat1(msalt, 1.0, 0.0, [0.0, 0.0])
        f1 = make_f1(f0, fh, 2.5)
        u = solve_u(f0, RobinData(0.1, 0.0))
        w = solve_w(u, f0, f1, 2.5, RobinData(0.1, 0.0))
        assert np.all(w.values == 2.5)

    def test_drift_constant_mismatch(self, msalt, w_setup):
        f0, fh, u = w_setup
        f1 = make_f1(f0, fh, 1.0)
        with pytest.raises(MismatchedReference):
            solve_w(u, f0, f1, 2.0, RobinData(0.1, 0.0))

    def test_tail_moves_no_more_than_last_node(self, annulus_constants):
        # README annulus, boundary 0: a move of w's last value by up to 1e-13
        # of max|w| moves the tail by no more than that, up to the rounding of
        # the limit, anywhere on [t_max, t_max + 50]
        w = annulus_constants.profiles[0]["w"]
        limit, s = w.tail.limit, np.linspace(0.0, 50.0, 5001)
        want, _ = w.tail(s)
        scale = 1e-13 * np.max(np.abs(w.values))
        for seed in range(5):
            noise = scale * np.random.default_rng(seed).uniform(-1.0, 1.0)
            tail = Tail.anchored(limit, w.tail.rate, w.values[-1] + noise - limit, w.derivs[-1])
            got, _ = tail(s)
            assert np.max(np.abs(got - want)) <= abs(noise) + 4 * np.spacing(abs(limit)), seed

    def test_f1_without_drift_constant_rejected(self, msalt, w_setup):
        f0, fh, u = w_setup
        f1 = replace(make_f1(f0, fh, 1.0), q=None)
        with pytest.raises(MismatchedReference):
            solve_w(u, f0, f1, 1.0, RobinData(0.1, 0.0))


@pytest.fixture(scope="module")
def flat_bundle(msalt):
    """u, v, theta and w with phi_bd = phi* = 0: no layer, every profile constant."""
    f0 = make_f0(msalt, 1.0, 0.0)
    f1 = make_f1(f0, make_fhat1(msalt, 1.0, 0.0, [0.0, 0.0]), 2.5)
    robin0 = RobinData(0.1, 0.0)
    u = solve_u(f0, robin0)
    return {
        "u": u,
        "v": solve_v(u, f0, robin0),
        "theta": solve_theta(u, f0, robin0),
        "w": solve_w(u, f0, f1, 2.5, robin0),
    }


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
        assert {kind for b in bundles for kind in b} == set(self.KEYS)
        for bundle in bundles:
            for kind, p in bundle.items():
                meta = p.to_json_dict()["meta"]
                assert set(meta) == self.KEYS[kind]
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
        for kind, p in flat_bundle.items():
            assert p.flat
            assert p.to_json_dict()["meta"] == dict(want[kind], degenerate=True)


class TestEvaluation:
    def test_nodes_exact(self, std_bundle):
        u = std_bundle["u"]
        val, der = u(u.t[1234])
        assert val == u.values[1234] and der == u.derivs[1234]

    def test_tail_model(self, salt):
        # Dirichlet Gouy-Chapman beyond t_max, where u = 4 artanh(y) with
        # y = tanh(phi_bd / 4) exp(-sqrt2 t) below 1e-12
        for phi_bd in (1.0, -1.0):
            u = solve_u(salt, RobinData(0.0, phi_bd))
            tq = u.t_max + np.array([0.5, 1.0, 5.0, 10.0, 30.0])
            y = math.tanh(phi_bd / 4) * np.exp(-SQRT2 * tq)
            val, der = u(tq)
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
        assert std_bundle["u"].tail == Tail(0.0, 1.4142135623730951, 8.726373409076226e-13, 0.0)
        assert std_bundle["theta"].tail == Tail(
            1.0, 1.4142135623730951, -8.388570049006286e-13, -2.0194839173657902e-28
        )
        for kind, amplitudes in self.FITTED_AMPLITUDES.items():
            p = std_bundle[kind]
            for old in amplitudes:
                assert p.tail.a * math.exp(p.tail.rate * p.t_max) == pytest.approx(old, rel=1e-6)

    def test_tail_is_c1_at_t_max(self, profile_matrix, salt, annulus_constants, flat_bundle):
        # the tail gives the last node's value and slope to within 4 ulp
        bundles = [*annulus_constants.profiles, flat_bundle]
        for (gamma, _), (u, v) in profile_matrix.items():
            bundles.append({"u": u, "v": v, "theta": solve_theta(u, salt, RobinData(gamma, 0.0))})
        for bundle in bundles:
            for kind, p in bundle.items():
                val, der = p.tail(0.0)
                scale = max(abs(p.tail.limit), abs(p.values[-1]))
                assert abs(val - p.values[-1]) <= 4 * np.spacing(scale), kind
                assert abs(der - p.derivs[-1]) <= 4 * np.spacing(abs(p.derivs[-1])), kind

    def test_tail_predicts_interior(self, annulus_constants):
        # README annulus: v and w cut at the node nearest 0.6 t_max and
        # continued by the tail anchored there predict the node nearest
        # 0.9 t_max (measured: v 2.0e-15 and 5.6e-15; w 2.7e-6 and 5.2e-7, the
        # rounding of w - q against |q| = 0.61)
        for bundle in annulus_constants.profiles:
            for kind, bound in (("v", 1e-11), ("w", 1e-5)):
                p = bundle[kind]
                j, k = (int(np.argmin(np.abs(p.t - x * p.t_max))) for x in (0.6, 0.9))
                limit = p.tail.limit
                cut = replace(
                    p, t=p.t[: j + 1], values=p.values[: j + 1], derivs=p.derivs[: j + 1],
                    tail=Tail.anchored(limit, p.tail.rate, p.values[j] - limit, p.derivs[j]),
                )
                val, _ = cut(p.t[k])
                assert abs(val - p.values[k]) <= bound * abs(p.values[k] - limit), kind

    def test_negative_time(self, std_bundle):
        with pytest.raises(NegativeTime):
            std_bundle["u"](-0.5)

    def test_interpolation_between_nodes(self, salt):
        u = solve_u(salt, RobinData(0.0, 1.0))
        tq = 0.5 * (u.t[100] + u.t[101])
        val, _ = u(tq)
        assert val == pytest.approx(float(gouy_chapman(tq, 1.0)), abs=1e-11)


class TestOdeResidual:
    def test_constant_profile(self, salt):
        u = solve_u(salt, RobinData(0.1, 0.0))
        assert ode_residual(u, EquationSpec("u", salt)) < 1e-13

    def test_closed_form_samples(self, salt):
        # Gouy-Chapman samples on the default-resolution grid
        t = boundary_clustered_nodes(20001, 20.0)
        vals = np.asarray(gouy_chapman(t, 1.0))
        a = np.tanh(0.25) * np.exp(-SQRT2 * t)
        derivs = 4 * (-SQRT2) * a / (1 - a * a)
        p = Profile(
            kind="u", t=t, values=vals, derivs=derivs,
            tail=Tail.anchored(0.0, SQRT2, vals[-1], derivs[-1]),
            robin=RobinData(0.0, 1.0),
        )
        assert ode_residual(p, EquationSpec("u", salt)) <= 1e-6

    def test_grid_too_coarse(self, salt):
        t = np.linspace(0, 1, 4)
        p = Profile(
            kind="u", t=t, values=np.zeros(4), derivs=np.zeros(4),
            tail=Tail(0.0, 1.0, 0.0, 0.0), robin=RobinData(0.0, 0.0),
        )
        with pytest.raises(GridTooCoarse):
            ode_residual(p, EquationSpec("u", salt))
