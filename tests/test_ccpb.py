import math
from dataclasses import replace

import numpy as np
import pytest

from pblayers.ccpb import (
    _flux_sum,
    bulk_expansion,
    ccpb_constants,
    compute_mhat,
    solve_phi0,
)
from pblayers.errors import AllBoundaryPotentialsEqual, NeutralityViolated
from pblayers.geometry import BoundaryComponent, DomainSpec, make_annulus
from pblayers.nonlinearity import IonSpecies
from pblayers import ccpb, nonlinearity
from pblayers.profiles import RobinData, profile_eval, solve_v, solve_w


@pytest.fixture(scope="module")
def symmetric_domain():
    c0 = BoundaryComponent(0, 1.0, 0.0, 0.0, RobinData(0.1, 1.0), "outer")
    c1 = BoundaryComponent(1, 1.0, 0.0, 0.0, RobinData(0.1, -1.0), "hole")
    return DomainSpec(2, 1.0, (c0, c1))


class TestBulkPotential:
    def test_symmetric_configuration(self, symmetric_domain, msalt):
        phi0, u0s = solve_phi0(symmetric_domain, msalt)
        assert phi0 == pytest.approx(0.0, abs=1e-12)
        assert u0s[0] == pytest.approx(-u0s[1], abs=1e-12)

    def test_annulus_value_strictly_between(self, annulus_constants):
        assert -1.0 < annulus_constants.phi0_star < 1.0
        for u0, comp_phi in zip(annulus_constants.u0_per_boundary, (1.0, -1.0)):
            lo, hi = sorted((annulus_constants.phi0_star, comp_phi))
            assert lo < u0 < hi

    def test_neutrality_required(self, symmetric_domain):
        with pytest.raises(NeutralityViolated):
            solve_phi0(symmetric_domain, [IonSpecies(1, 1, "mass")])

    def test_equal_potentials_rejected(self, msalt):
        c0 = BoundaryComponent(0, 1.0, 0.0, 0.0, RobinData(0.1, 1.0), "outer")
        c1 = BoundaryComponent(1, 1.0, 0.0, 0.0, RobinData(0.1, 1.0), "hole")
        dom = DomainSpec(2, 1.0, (c0, c1))
        with pytest.raises(AllBoundaryPotentialsEqual):
            solve_phi0(dom, msalt)

    def test_flux_sum_evaluations(self, annulus_domain, msalt, monkeypatch):
        # Brent's method: a bisection to PHI0_TOL took 51 flux sums
        calls = []

        def counting(*args):
            calls.append(args[2])
            return _flux_sum(*args)

        monkeypatch.setattr(ccpb, "_flux_sum", counting)
        solve_phi0(annulus_domain, msalt)
        assert len(calls) <= 16

    def test_antiderivative_evaluations(self, annulus_domain, msalt, monkeypatch):
        # both roots by Brent's method: nested bisections took 5,377 scalar
        # antiderivative evaluations
        calls = []
        from_delta = nonlinearity._ExpSumAntiderivative.from_delta

        def counting(self, delta):
            calls.append(delta)
            return from_delta(self, delta)

        monkeypatch.setattr(nonlinearity._ExpSumAntiderivative, "from_delta", counting)
        solve_phi0(annulus_domain, msalt)
        assert len(calls) <= 400

    def test_flux_scan_strictly_monotone(self, annulus_domain, msalt):
        # the outer root-find relies on strict monotonicity of the flux sum
        ss = np.linspace(-1 + 1e-6, 1 - 1e-6, 64)
        vals = [_flux_sum(annulus_domain, msalt, s)[0] for s in ss]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        signs = np.sign(vals)
        assert np.sum(np.diff(signs) != 0) == 1

    def test_scaling_invariance(self, annulus_domain, msalt):
        # m -> lam m together with gamma -> gamma / sqrt(lam) leaves the
        # bulk potential and boundary values fixed
        base_phi0, base_u0 = solve_phi0(annulus_domain, msalt)
        for lam in (0.25, 4.0):
            species = [IonSpecies(s.z, lam * s.amount, s.role) for s in msalt]
            comps = tuple(
                replace(c, robin=RobinData(c.robin.gamma / math.sqrt(lam), c.robin.phi_bd))
                for c in annulus_domain.components
            )
            dom = DomainSpec(2, annulus_domain.volume, comps)
            phi0, u0s = solve_phi0(dom, species)
            assert phi0 == pytest.approx(base_phi0, abs=1e-11)
            assert np.allclose(u0s, base_u0, atol=1e-11)


class TestConstants:
    def test_compatibility_and_flux_residuals(self, annulus_constants):
        assert annulus_constants.diagnostics["compatibility_residual"] <= 1e-10
        assert annulus_constants.diagnostics["flux_residual"] <= 1e-10

    def test_mass_corrections_are_neutral(self, annulus_constants):
        assert annulus_constants.diagnostics["mhat_charge_rel"] <= 1e-8

    def test_drift_balance_identity(self, annulus_constants):
        # curvature-weighted v'(0) against area-weighted w'(0): the two
        # independent routes to the drift constant must agree
        assert annulus_constants.diagnostics["drift_balance_rel"] <= 1e-8

    def test_symmetric_drift_vanishes(self, symmetric_domain, msalt):
        cc = ccpb_constants(symmetric_domain, msalt)
        assert cc.phi0_star == pytest.approx(0.0, abs=1e-12)
        assert cc.q == pytest.approx(0.0, abs=1e-11)

    def test_mhat_against_dense_time_quadrature(self, annulus_constants, annulus_domain, msalt):
        mh_oracle = np.zeros(2)
        for comp, bundle in zip(annulus_domain.components, annulus_constants.profiles):
            u = bundle["u"]
            tt = np.linspace(0, u.t_max, 200001)
            uv, _ = profile_eval(u, tt)
            for i, s in enumerate(msalt):
                body = np.trapezoid(-np.expm1(-s.z * (uv - annulus_constants.phi0_star)), tt)
                tail = s.z * u.delta[-1] / u.mu
                mh_oracle[i] += comp.surface_area * (body + tail)
        mh_oracle *= np.array([s.amount for s in msalt]) / annulus_domain.volume
        assert np.allclose(annulus_constants.mhat, mh_oracle, rtol=1e-7)

    def test_degenerate_profiles_give_zero_corrections(self, msalt):
        from pblayers.nonlinearity import make_f0
        from pblayers.profiles import solve_u

        dom = make_annulus(2, 1.0, 2.0, RobinData(0.1, 0.3), RobinData(0.1, -1.0))
        f0 = make_f0(msalt, dom.volume, 0.3)
        u_deg = solve_u(f0, RobinData(0.1, 0.3))
        assert compute_mhat(dom, msalt, [u_deg, u_deg], 0.3) == [0.0, 0.0]

    def test_w_profiles_reach_drift_constant(self, annulus_constants):
        for bundle in annulus_constants.profiles:
            w = bundle["w"]
            assert w.tail.limit == pytest.approx(annulus_constants.q, abs=1e-9)
            assert w.values[-1] == pytest.approx(annulus_constants.q, abs=1e-7)


class TestBulkExpansion:
    def test_zero_data(self, annulus_constants):
        frozen = replace(annulus_constants, q=0.0, mhat=(0.0, 0.0))
        for entry in bulk_expansion(frozen, 1e-3):
            assert entry.conc_coeff == 0.0
            assert entry.conc_at(1e-3) == entry.conc0

    def test_zero_reference_concentrations(self, annulus_constants):
        frozen = replace(annulus_constants, phi0_star=0.0)
        vol = annulus_constants.domain.volume
        for entry, s in zip(bulk_expansion(frozen, 1e-3), annulus_constants.species):
            assert entry.conc0 == pytest.approx(s.amount / vol)

    def test_normalizer_expansion_tracks_oracle(self, annulus_constants, ccpb_sweep):
        gaps = {}
        for eps, oc in ccpb_sweep.items():
            be = bulk_expansion(annulus_constants, eps)
            gaps[eps] = [
                abs((A - e.normalizer0) / math.sqrt(eps) - e.normalizer_coeff)
                / abs(e.normalizer_coeff)
                for A, e in zip(oc.normalizers, be)
            ]
        assert max(gaps[1e-4]) < 0.02
        assert max(gaps[1e-4]) < max(gaps[1e-3])

    def test_concentration_expansion_tracks_oracle(self, annulus_constants, ccpb_sweep):
        for eps in (1e-3, 1e-4):
            oc = ccpb_sweep[eps]
            for entry, s, A in zip(
                bulk_expansion(annulus_constants, eps), annulus_constants.species, oc.normalizers
            ):
                c_oracle = s.amount / A
                assert entry.conc_at(eps) == pytest.approx(
                    c_oracle, rel=0.03 * math.sqrt(eps) / entry.conc0 + 1e-3
                )


class TestConstantsPipeline:
    """ccpb_constants solves v and w of each boundary with the public
    solve_v/solve_w; its diagnostics are pinned exactly."""

    # the fixture's diagnostics, pinned exactly (nodes of u chosen in
    # potential space, v and w by potential-space quadrature on them)
    DIAGNOSTICS = {
        "compatibility_residual": 5.898059818321144e-17,
        "drift_balance": 8.881784197001252e-16,
        "drift_balance_rel": 7.991567804446672e-17,
        "flux_residual": 0.0,
        "flux_residual_rel": 0.0,
        "mhat_charge": -5.551115123125783e-16,
        "mhat_charge_rel": 3.0845566298449665e-16,
    }
    # the same diagnostics when the nodes of u were chosen in t and found by
    # inverting the time map; when also v and w came from a time-space
    # quadrature on Hermite-interpolated samples of u; and when also both
    # roots came from 1e-14/1e-15 bisections; no residual may grow past them
    T_GRID_DIAGNOSTICS = {
        "compatibility_residual": 5.898059818321144e-17,
        "drift_balance": -8.881784197001252e-15,
        "drift_balance_rel": 7.991567804446665e-16,
        "flux_residual": 0.0,
        "flux_residual_rel": 0.0,
        "mhat_charge": -5.551115123125783e-16,
        "mhat_charge_rel": 3.0845566298449665e-16,
    }
    TIME_QUADRATURE_DIAGNOSTICS = {
        "compatibility_residual": 5.898059818321144e-17,
        "drift_balance": 2.3092638912203256e-14,
        "drift_balance_rel": 2.077807629156127e-15,
        "flux_residual": 0.0,
        "flux_residual_rel": 0.0,
        "mhat_charge": -5.551115123125783e-16,
        "mhat_charge_rel": 3.0845566298449665e-16,
    }
    BISECTION_DIAGNOSTICS = {
        "compatibility_residual": 2.498001805406602e-16,
        "drift_balance": 2.4868995751603507e-14,
        "drift_balance_rel": 2.2376389852450596e-15,
        "flux_residual": 3.241851231905457e-14,
        "flux_residual_rel": 4.194027950797511e-15,
        "mhat_charge": 3.26405569239796e-14,
        "mhat_charge_rel": 1.8137192983488402e-14,
    }

    def test_profiles_equal_standalone_solves(self, annulus_constants, annulus_domain):
        cc = annulus_constants
        for comp, bundle in zip(annulus_domain.components, cc.profiles):
            robin0 = RobinData(comp.robin.gamma, 0.0)
            alone = {
                "v": solve_v(bundle["u"], cc.f0, robin0),
                "w": solve_w(bundle["u"], cc.f0, cc.f1, cc.q, robin0),
            }
            for kind, want in alone.items():
                got = bundle[kind]
                assert np.array_equal(got.values, want.values)
                assert np.array_equal(got.derivs, want.derivs)
                assert got.tail == want.tail
                assert [getattr(got, k) for k in got.json_keys] == [
                    getattr(want, k) for k in want.json_keys
                ]

    def test_diagnostics_pinned(self, annulus_constants):
        got = annulus_constants.diagnostics
        assert got == self.DIAGNOSTICS
        for record in (
            self.T_GRID_DIAGNOSTICS, self.TIME_QUADRATURE_DIAGNOSTICS, self.BISECTION_DIAGNOSTICS,
        ):
            for key, bound in record.items():
                assert abs(got[key]) <= abs(bound), key
