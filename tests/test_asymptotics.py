import math
from dataclasses import replace

import numpy as np
import pytest

from pblayers.asymptotics import ExpansionQuery, grid_rows, region_charge, sample
from pblayers.errors import ConfigError, ModelProfileMismatch, NegativeTime
from pblayers.geometry import RegionParams, make_disk
from pblayers.profiles import LayerBundle, RobinData, profile_eval, solve_u, solve_v


def at(name, bundle, t, eps=1e-4, order=2, h=1.0, d=2):
    """The expansion term `name` of bundle at the one depth t."""
    return getattr(sample(bundle, [t]), name)(ExpansionQuery(h, eps, order, d))[0]


class TestPointwiseEvaluators:
    def test_potential_far_field_pb(self, std_bundle):
        val = at("potential", std_bundle, 40.0)
        assert val == pytest.approx(0.0, abs=1e-10)  # tends to the reference

    def test_potential_far_field_ccpb(self, annulus_constants):
        eps = 1e-4
        bundle = annulus_constants.profiles[0]
        val = at("potential", bundle, bundle.u.t_max, eps, h=0.5)
        expected = annulus_constants.phi0_star + math.sqrt(eps) * annulus_constants.q
        assert val == pytest.approx(expected, abs=1e-6)

    def test_robin_consistency(self, std_bundle):
        # value(0) - gamma [u'(0) + sqrt(eps)(d-1)H v'(0)] recovers phi_bd
        eps = 1e-4
        val = at("potential", std_bundle, 0.0, eps)
        _, du = profile_eval(std_bundle.u, 0.0)
        _, dv = profile_eval(std_bundle.v, 0.0)
        recon = val - 0.1 * (du + math.sqrt(eps) * 1.0 * dv)
        assert recon == pytest.approx(1.0, abs=1e-9)

    def test_field_order1_value(self, salt):
        u = solve_u(salt, RobinData(0.0, 1.0))
        v = solve_v(u)
        coef = at("field", LayerBundle(u, v), 0.0, 1e-4, order=1)
        assert coef == pytest.approx(-2 * math.sqrt(2) * math.sinh(0.5) / 1e-2, rel=1e-12)

    def test_field_constant_profile(self, salt):
        u = solve_u(salt, RobinData(0.1, 0.0))
        v = solve_v(u)
        assert at("field", LayerBundle(u, v), 1.0) == 0.0

    def test_sqrt_eps_scaling_exact(self, std_bundle):
        # order-2 minus order-1 must be exactly sqrt(eps) times an
        # eps-independent function of t
        def value(name, eps, order):
            return at(name, std_bundle, 0.7, eps, order)

        for name in ("potential", "charge_density", "traction"):
            d1 = value(name, 1e-4, 2) - value(name, 1e-4, 1)
            d2 = value(name, 1e-6, 2) - value(name, 1e-6, 1)
            assert d1 / math.sqrt(1e-4) == pytest.approx(
                d2 / math.sqrt(1e-6), rel=1e-12
            )

    def test_charge_density_order1_is_density_of_u(self, std_bundle, salt):
        got = at("charge_density", std_bundle, 0.0, order=1)
        u0 = std_bundle.u.u0
        assert got == pytest.approx(float(salt.f(u0)), rel=1e-14)

    def test_charge_density_pb_far_field(self, std_bundle):
        assert at("charge_density", std_bundle, 40.0) == pytest.approx(0.0, abs=1e-9)

    def test_charge_density_ccpb_far_field_subleading(self, annulus_constants):
        # sqrt(eps)[f0'(phi0*) Q + f1(phi0*)] collapses to the neutral
        # correction, which vanishes
        eps = 1e-4
        cc = annulus_constants
        bundle = cc.profiles[0]
        val = at("charge_density", bundle, bundle.u.t_max, eps, h=0.5)
        lim = math.sqrt(eps) * (float(cc.f0.df(cc.phi0_star)) * cc.q + float(cc.f1.f(cc.phi0_star)))
        assert abs(lim) <= 1e-8 * math.sqrt(eps) * abs(float(cc.f0.df(cc.phi0_star)))
        assert abs(val) <= 1e-6 * math.sqrt(eps) + 1e-12

    def test_ccpb_needs_w(self, annulus_constants):
        # the conserved-charge potential is the PB one plus sqrt(eps) w(t),
        # and a bundle holding f1 without its w is refused
        bundle = annulus_constants.profiles[0]
        w0, _ = profile_eval(bundle.w, 0.0)
        pb = replace(bundle, w=None, f1=None)
        extra = at("potential", bundle, 0.0, h=0.5) - at("potential", pb, 0.0, h=0.5)
        assert extra == pytest.approx(1e-2 * w0, rel=1e-9, abs=1e-15)
        with pytest.raises(ModelProfileMismatch):
            replace(bundle, w=None)

    def test_ccpb_density_needs_f1(self, annulus_constants):
        # the conserved-charge density adds sqrt(eps)[f'(u) w + f1(u)] with
        # the bundle's own f1, and a bundle holding w without f1 is refused
        cc = annulus_constants
        bundle = cc.profiles[0]
        assert bundle.f1 is cc.f1
        u0, _ = profile_eval(bundle.u, 0.0)
        w0, _ = profile_eval(bundle.w, 0.0)
        pb = replace(bundle, w=None, f1=None)
        extra = at("charge_density", bundle, 0.0, h=0.5) - at("charge_density", pb, 0.0, h=0.5)
        expected = 1e-2 * (float(bundle.u.density.df(u0)) * w0 + float(cc.f1.f(u0)))
        assert extra == pytest.approx(expected, rel=1e-9, abs=1e-15)
        with pytest.raises(ModelProfileMismatch):
            replace(bundle, f1=None)


class TestMaxwellTraction:
    def test_leading_term_is_energy_density(self, std_bundle):
        # -F(u) = u'^2 / 2 >= 0 on the whole trajectory; the identity the
        # traction formula rests on is re-asserted here
        from pblayers.profiles import first_integral_drift

        u = std_bundle.u
        assert first_integral_drift(u) <= 1e-10 * (1 + u.u0_prime ** 2)
        for t in np.linspace(0, 10, 21):
            lead = at("traction", std_bundle, t, order=1)
            _, du = profile_eval(u, t)
            assert lead == pytest.approx(du * du / 2, rel=1e-10, abs=1e-14)
            assert lead >= 0

    def test_dirichlet_boundary_value(self, salt):
        u = solve_u(salt, RobinData(0.0, 1.0))
        lead = at("traction", LayerBundle(u, solve_v(u)), 0.0, order=1)
        assert lead == pytest.approx(2 * (math.cosh(1.0) - 1.0), rel=1e-12)

    def test_far_field_vanishes(self, std_bundle):
        assert at("traction", std_bundle, 40.0) == pytest.approx(0.0, abs=1e-12)


class TestRegionCharge:
    def test_degenerate_is_zero(self, salt):
        u = solve_u(salt, RobinData(0.1, 0.0))
        v = solve_v(u)
        dom = make_disk(1.0, RobinData(0.1, 0.0))
        params = RegionParams(eps=1e-4, beta=0.25, T=5.0)
        rep = region_charge(dom, 0, params, LayerBundle(u, v))
        assert rep.region1 == 0.0 and rep.region2 == 0.0 and rep.sign == 0

    def test_sign_laws(self, salt):
        params = RegionParams(eps=1e-4, beta=0.25, T=5.0)
        for phi_bd, expected in ((1.0, -1), (-1.0, 1), (0.5, -1), (-0.5, 1)):
            dom = make_disk(1.0, RobinData(0.1, phi_bd))
            u = solve_u(salt, RobinData(0.1, phi_bd))
            v = solve_v(u)
            rep = region_charge(dom, 0, params, LayerBundle(u, v))
            assert rep.sign == expected
            assert math.copysign(1, rep.region1) == expected
            assert math.copysign(1, rep.region2) == expected

    def test_ratio_law(self, std_bundle, pb_disk_domain):
        u = std_bundle.u
        params = RegionParams(eps=1e-6, beta=0.25, T=1.0)
        rep = region_charge(pb_disk_domain, 0, params, std_bundle)
        _, du0 = profile_eval(u, 0.0)
        _, duT = profile_eval(u, 1.0)
        target = duT / (du0 - duT)
        assert rep.region2 / rep.region1 == pytest.approx(target, rel=1e-3)
        assert rep.region2 / rep.region1 > 0

    def test_no_region3_entry(self, std_bundle, pb_disk_domain):
        # no Region III bound with constants known in advance exists, so the
        # report writes none
        params = RegionParams(eps=1e-4, beta=0.25, T=5.0)
        rep = region_charge(pb_disk_domain, 0, params, std_bundle)
        assert not hasattr(rep, "region3_bound")
        d = rep.to_json_dict()
        assert "region3" not in d
        assert sorted(d) == ["inputs", "k", "model", "region1", "region2", "sign", "terms"]

    def test_neutrality_mechanism(self, annulus_constants, annulus_domain):
        # summed over all boundaries, the two-term layer charges cancel: the
        # sqrt(eps) parts by the flux balance, the eps parts by the
        # drift-balance identity.  Region II ends at t_hi, so the layer's
        # charge beyond it is added from the slopes the report gives there
        eps = 1e-4
        params = RegionParams(eps=eps, beta=0.25, T=5.0)
        t_hi = eps ** (params.beta - 0.5)
        d = annulus_domain.dimension
        total = 0.0
        for k in range(2):
            rep = region_charge(
                annulus_domain, k, params, annulus_constants.profiles[k]
            )
            t = rep.terms
            beyond = math.sqrt(eps) * t["area"] * t["du_hi"] + eps * (
                (d - 1) * t["curvature_integral"] * (t["dv_hi"] - t_hi * t["du_hi"])
                + t["area"] * t["dw_hi"]
            )
            assert abs(beyond) > 1e-6 * eps  # the far edge closes Region II
            total += rep.region1 + rep.region2 + beyond
        assert abs(total) <= 1e-6 * eps


class TestQueryValidation:
    def test_bad_order(self):
        with pytest.raises(ConfigError):
            ExpansionQuery(1.0, 1e-4, 3)

    def test_bad_eps_t(self, std_bundle):
        with pytest.raises(ConfigError):
            ExpansionQuery(1.0, -1e-4)
        with pytest.raises(NegativeTime):
            sample(std_bundle, [-1.0])
        for bad in (math.nan, math.inf):
            with pytest.raises(NegativeTime):
                sample(std_bundle, [bad])


class TestOneSampleEveryQuery:
    def test_sample_serves_every_eps_and_curvature(self, annulus_constants):
        # the profiles do not depend on eps or H, so one sample read through
        # each query gives what grid_rows evaluates afresh for it
        bundle = annulus_constants.profiles[1]
        ts = np.linspace(0.0, 6.0, 37)
        s = sample(bundle, ts)
        for eps, h, d in ((1e-2, 0.5, 2), (1e-4, -1.0, 3)):
            q = ExpansionQuery(h, eps, 2, d)
            rows = grid_rows(q, bundle, ts)
            for name in rows:
                assert np.array_equal(getattr(s, name)(q), rows[name]), name


class TestArrayEvaluators:
    """sample and grid_rows over an array of depths against sample at each depth alone.

    Potential and field are the same arithmetic either way, so they must be
    equal; charge density and traction evaluate density kernels that may round
    a one-element array differently from a longer one.
    """

    @pytest.fixture(params=["pb", "ccpb"])
    def bundle(self, request, std_bundle, annulus_constants):
        return std_bundle if request.param == "pb" else annulus_constants.profiles[0]

    @staticmethod
    def depths(bundle):
        # t = 0, interior points, t_max itself and the tail branch beyond it
        t_max = bundle.u.t_max
        return np.concatenate(([0.0], np.linspace(0.013, 9.0, 41), [t_max, 1.2 * t_max, t_max + 30.0]))

    # (name, whether the batch and the one-depth values are equal)
    TERMS = (("potential", True), ("field", True), ("charge_density", False), ("traction", False))

    def assert_matches_one_depth(self, values, q, bundle, ts):
        for name, exact in self.TERMS:
            got = values[name]
            assert isinstance(got, np.ndarray) and got.shape == ts.shape
            want = np.concatenate([getattr(sample(bundle, [t]), name)(q) for t in ts])
            if exact:
                assert np.array_equal(got, want)
            else:
                np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("order", [1, 2])
    def test_array_matches_scalar(self, bundle, order):
        ts = self.depths(bundle)
        q = ExpansionQuery(0.5, 1e-4, order, 2)
        s = sample(bundle, ts)
        self.assert_matches_one_depth({name: getattr(s, name)(q) for name, _ in self.TERMS}, q, bundle, ts)

    @pytest.mark.parametrize("order", [1, 2])
    def test_grid_rows_matches_scalar(self, bundle, order):
        ts = self.depths(bundle)
        q = ExpansionQuery(0.5, 1e-3, order, 3)
        values = grid_rows(q, bundle, ts)
        assert sorted(values) == sorted(name for name, _ in self.TERMS)
        self.assert_matches_one_depth(values, q, bundle, ts)

    def test_negative_t_rejected(self, bundle):
        ts = np.array([0.0, 1.0, -1e-12])
        q = ExpansionQuery(0.5, 1e-4, 2, 2)
        with pytest.raises(NegativeTime):
            sample(bundle, ts)
        with pytest.raises(NegativeTime):
            grid_rows(q, bundle, ts)
