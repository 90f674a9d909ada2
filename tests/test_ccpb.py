import math
from dataclasses import replace

import numpy as np
import pytest

from pblayers.ccpb import (
    _flux_sum,
    bulk_expansion,
    ccpb_constants,
    compute_mhat,
    layer_excess_integrals,
    solve_phi0,
)
from pblayers.errors import (
    AllBoundaryPotentialsEqual,
    ConfigError,
    NeutralityViolated,
    NoSignChange,
)
from pblayers.geometry import BoundaryComponent, DomainSpec, make_annulus
from pblayers.nonlinearity import IonSpecies
from pblayers import ccpb, nonlinearity
from pblayers.profiles import RobinData, ode_residual, profile_eval, solve_v, solve_w

from conftest import quadrature_excess, whole_array_w

# salts of three and four species (role mass) for the remainder of the closed
# forms, and the robin data of both boundaries of their annuli (radii 1, 2)
MULTI_SPECIES = {
    3: ((2.0, 1.0), (1.0, 0.5), (-1.0, 2.5)),
    4: ((2.0, 1.0), (1.0, 1.5), (-1.0, 2.0), (-3.0, 0.5)),
}
MULTI_ROBIN = (RobinData(0.8, -1.7), RobinData(0.8, 1.9))


@pytest.fixture(scope="module")
def symmetric_domain():
    c0 = BoundaryComponent(0, 1.0, 0.0, 0.0, RobinData(0.1, 1.0), "outer")
    c1 = BoundaryComponent(1, 1.0, 0.0, 0.0, RobinData(0.1, -1.0), "hole")
    return DomainSpec(2, 1.0, (c0, c1))


class TestBulkPotential:
    def test_symmetric_configuration(self, symmetric_domain, msalt):
        assert solve_phi0(symmetric_domain, msalt) == pytest.approx(0.0, abs=1e-12)
        u0s = ccpb_constants(symmetric_domain, msalt).u0_per_boundary
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

    @pytest.mark.parametrize("slack", [4e-16, -4e-16])
    def test_near_neutral_tail_speed(self, annulus_domain, slack):
        # amounts (1, 1 + slack) pass check_neutrality (2 ulp of 1, within its
        # 8 ulp of sum |m_i z_i|), and f0(phi0*) is then off 0 by about the
        # slack: kept as a linear term of F0, a slack of 5e-13 put the
        # last-node speed of u 18-51 % off mu |delta|
        species = [IonSpecies(1.0, 1.0, "mass"), IonSpecies(-1.0, 1.0 + slack, "mass")]
        for bundle in ccpb_constants(annulus_domain, species).profiles:
            u = bundle.u
            want = u.mu * abs(u.delta[-1])
            assert abs(abs(u.derivs[-1]) - want) <= 1e-12 * want

    @pytest.mark.parametrize("slack", [5e-13, -5e-13])
    def test_off_neutral_beyond_rounding_rejected(self, annulus_domain, slack):
        # with a slack of 1e-12 these passed, and drift_balance_rel read
        # 8.5e-14 against 0.0 at exact neutrality
        species = [IonSpecies(1.0, 1.0, "mass"), IonSpecies(-1.0, 1.0 + slack, "mass")]
        with pytest.raises(NeutralityViolated):
            ccpb_constants(annulus_domain, species)

    def test_flux_sum_evaluations(self, annulus_domain, msalt, monkeypatch):
        # Brent's method: a bisection to PHI0_TOL took 51 flux sums
        calls = []

        def counting(*args):
            calls.append(args[2])
            return _flux_sum(*args)

        monkeypatch.setattr(ccpb, "_flux_sum", counting)
        solve_phi0(annulus_domain, msalt)
        assert len(calls) <= 16

    def test_flux_sum_without_sign_change(self, annulus_domain, msalt, monkeypatch):
        # brent_root's bracket check is the only one: two flux sums at the
        # bracket ends, then NoSignChange naming the flux sum
        calls = []

        def positive(*args):
            calls.append(args[2])
            return 1.0 + abs(_flux_sum(*args))

        monkeypatch.setattr(ccpb, "_flux_sum", positive)
        with pytest.raises(NoSignChange, match="flux sum"):
            solve_phi0(annulus_domain, msalt)
        assert len(calls) == 2

    def test_antiderivative_evaluations(self, annulus_domain, msalt, monkeypatch):
        # both roots by Brent's method: nested bisections took 5,377 scalar
        # antiderivative evaluations
        calls = []
        from_delta = nonlinearity._Expm1Sum.from_delta

        def counting(self, delta):
            calls.append(delta)
            return from_delta(self, delta)

        monkeypatch.setattr(nonlinearity._Expm1Sum, "from_delta", counting)
        solve_phi0(annulus_domain, msalt)
        assert len(calls) <= 400

    def test_flux_scan_strictly_monotone(self, annulus_domain, msalt):
        # the outer root-find relies on strict monotonicity of the flux sum
        ss = np.linspace(-1 + 1e-6, 1 - 1e-6, 64)
        vals = [_flux_sum(annulus_domain, msalt, s) for s in ss]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        signs = np.sign(vals)
        assert np.sum(np.diff(signs) != 0) == 1

    def test_scaling_invariance(self, annulus_domain, msalt):
        # m -> lam m together with gamma -> gamma / sqrt(lam) leaves the
        # bulk potential and boundary values fixed
        base = ccpb_constants(annulus_domain, msalt)
        for lam in (0.25, 4.0):
            species = [IonSpecies(s.z, lam * s.amount, s.role) for s in msalt]
            comps = tuple(
                replace(c, robin=RobinData(c.robin.gamma / math.sqrt(lam), c.robin.phi_bd))
                for c in annulus_domain.components
            )
            dom = DomainSpec(2, annulus_domain.volume, comps)
            cc = ccpb_constants(dom, species)
            assert cc.phi0_star == pytest.approx(base.phi0_star, abs=1e-11)
            assert np.allclose(cc.u0_per_boundary, base.u0_per_boundary, atol=1e-11)


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
            u = bundle.u
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
        assert compute_mhat(dom, msalt, [u_deg, u_deg]) == [0.0, 0.0]

    def test_w_profiles_reach_drift_constant(self, annulus_constants):
        for bundle in annulus_constants.profiles:
            w = bundle.w
            assert w.tail.limit == pytest.approx(annulus_constants.q, abs=1e-9)
            assert w.values[-1] == pytest.approx(annulus_constants.q, abs=1e-7)


@pytest.fixture(scope="module", params=[(k, d) for k in MULTI_SPECIES for d in (2, 3)],
                ids=lambda kd: f"{kd[0]}species-d{kd[1]}")
def multi_species(request):
    k, d = request.param
    species = [IonSpecies(z, m, "mass") for z, m in MULTI_SPECIES[k]]
    domain = make_annulus(d, 1.0, 2.0, *MULTI_ROBIN)
    return domain, species, ccpb_constants(domain, species)


def excess_close(u, zs):
    got = layer_excess_integrals(u, zs)
    want = quadrature_excess(u, zs)
    return np.max(np.abs(np.subtract(got, want))) <= 1e-13 * np.max(np.abs(want))


class TestClosedForms:
    """w and the layer excess integrals in closed form, against the
    quadratures they replace (tests/conftest.py)."""

    def test_excess_matches_quadrature(self, annulus_constants, msalt, profile_matrix):
        cc = annulus_constants
        zs = [s.z for s in msalt]
        for bundle in cc.profiles:
            assert excess_close(bundle.u, zs)
        # the classical 1:1 salt has the terms of the f0 of unit volume at
        # phi* = 0
        for key, (u, _) in profile_matrix.items():
            assert excess_close(u, zs), key

    def test_multi_species_match_quadratures(self, multi_species):
        # body values, offsets within two decades of u(0) - phi0*: beyond
        # them the reference w loses accuracy as 1/|u - phi0*| (it sums the
        # growing integral of -F1/u'^2 over speeds whose rounding grows so)
        _, species, cc = multi_species
        zs = [s.z for s in species]
        for bundle in cc.profiles:
            u, w = bundle.u, bundle.w
            body = np.abs(u.delta) >= 1e-2 * abs(u.delta[0])
            want = whole_array_w(u, cc.f1)
            for name, a, b in zip(("w", "w'"), (w.values, w.derivs), want):
                assert np.max(np.abs(a - b)[body]) <= 1e-13 * np.max(np.abs(b)), name
            assert excess_close(u, zs)

    def test_multi_species_diagnostics(self, multi_species):
        diag = multi_species[2].diagnostics
        for key in ("mhat_charge_rel", "drift_balance_rel", "flux_residual_rel"):
            assert diag[key] <= 1e-13, key

    def test_w_reaches_its_limit(self, multi_species):
        # w = limit + u' s settles on its limit; summing u' (w(0)/u'(0) + B)
        # with the growing B left w(t_max) -5.8e-5 and +1.4e-5 off it on the
        # 3-D annulus of three species, and -4.7e-6 and +2.4e-6 on the 2-D
        # annulus of four
        domain, species, cc = multi_species
        for bundle in cc.profiles:
            w = bundle.w
            assert abs(w.values[-1] - w.tail.limit) <= 1e-9
            assert w.tail.limit == pytest.approx(cc.q, abs=1e-12)

    def test_ode_residuals(self, multi_species):
        # the quintic between nodes, with y'' at the nodes from each equation
        # and the remainder terms of w (measured: at most 2.4e-11, on the
        # 3-D annulus of four species)
        _, _, cc = multi_species
        for bundle in cc.profiles:
            for p in bundle.layers():
                assert ode_residual(p, bundle.u, cc.f1) <= 1e-10, p.kind

    def test_tail_speed_is_mu_delta(self, multi_species):
        # sum a0_i rounds to 1.39e-17 on the 3-D annulus of three species:
        # kept as a linear term of F0, it put the last-node speed 1.2e-4 and
        # 2.8e-5 off mu |delta|; F0 vanishes to second order at phi0*
        for bundle in multi_species[2].profiles:
            u = bundle.u
            want = u.mu * abs(u.delta[-1])
            assert abs(abs(u.derivs[-1]) - want) <= 1e-12 * want

    def test_excess_valence_outside_f0_rejected(self, annulus_constants):
        cc = annulus_constants
        with pytest.raises(ConfigError):
            layer_excess_integrals(cc.profiles[0].u, [2.0])


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
    # potential space, f1 one exp sum, w and the layer excess integrals of
    # mhat in closed form from the first integral of u, 4,001 nodes, F summed
    # term by term)
    DIAGNOSTICS = {
        "compatibility_residual": 5.898059818321144e-17,
        "drift_balance": 0.0,
        "drift_balance_rel": 0.0,
        "flux_residual": 0.0,
        "flux_residual_rel": 0.0,
        "mhat_charge": -2.220446049250313e-16,
        "mhat_charge_rel": 1.2338226519379863e-16,
    }
    # the same diagnostics at 20,001 nodes with F's terms summed by a matmul
    NODES_20001_DIAGNOSTICS = {
        "compatibility_residual": 5.898059818321144e-17,
        "drift_balance": -8.881784197001252e-16,
        "drift_balance_rel": 7.991567804446672e-17,
        "flux_residual": 0.0,
        "flux_residual_rel": 0.0,
        "mhat_charge": -2.220446049250313e-16,
        "mhat_charge_rel": 1.2338226519379887e-16,
    }
    # the same diagnostics when w and the layer excess integrals came from
    # Gauss quadratures in potential space
    QUADRATURE_DIAGNOSTICS = {
        "compatibility_residual": 5.898059818321144e-17,
        "drift_balance": 0.0,
        "drift_balance_rel": 0.0,
        "flux_residual": 0.0,
        "flux_residual_rel": 0.0,
        "mhat_charge": -5.551115123125783e-16,
        "mhat_charge_rel": 3.0845566298449665e-16,
    }
    # the same diagnostics when f1 was -q f0' + fhat1 summed by closures
    CLOSURE_F1_DIAGNOSTICS = {
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

    def test_profiles_equal_standalone_solves(self, annulus_constants):
        cc = annulus_constants
        for bundle in cc.profiles:
            for want in (solve_v(bundle.u), solve_w(bundle.u, cc.f1)):
                got = getattr(bundle, want.kind)
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
            self.NODES_20001_DIAGNOSTICS, self.CLOSURE_F1_DIAGNOSTICS, self.T_GRID_DIAGNOSTICS,
            self.TIME_QUADRATURE_DIAGNOSTICS, self.BISECTION_DIAGNOSTICS,
        ):
            for key, bound in record.items():
                assert abs(got[key]) <= abs(bound), key
