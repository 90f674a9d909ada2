import functools
import json
import math
import os
import subprocess
import sys

from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.linalg import LinAlgError, solve_banded

from pblayers import radial_oracle
from pblayers.asymptotics import ExpansionQuery, grid_rows, sample
from pblayers.errors import ConfigError, GridTooCoarse, NonFiniteOutput, RegionEmpty
from pblayers.geometry import RegionParams, make_annulus, make_ball, make_disk, unit_sphere_area
from pblayers.nonlinearity import IonSpecies
from pblayers.profiles import LayerBundle, RobinData
from pblayers.radial_oracle import (
    GRID_GROWTH,
    STRETCHED_SAMPLES,
    _one_sided_coeffs,
    _BandedSystem,
    _radial_system,
    _cubic_eval,
    _not_a_knot,
    _RadialSystem,
    band_charge_integral,
    compare_expansion,
    graded_radial_grid,
    solve_radial_ccpb,
    solve_radial_robin_pb,
    stretched_layers,
)


class TestGrid:
    def test_layer_resolution_guard(self):
        with pytest.raises(GridTooCoarse):
            graded_radial_grid(2, 1.0, None, 1e-4, points_per_layer=4)

    @pytest.mark.parametrize(
        "eps, points_per_layer", [(0.0, 800), (-0.01, 800), (1e-3, 0), (1e-3, -1)]
    )
    def test_nonpositive_inputs_rejected(self, eps, points_per_layer):
        with pytest.raises(ConfigError):
            graded_radial_grid(2, 1.0, None, eps, points_per_layer=points_per_layer)

    def test_annulus_covers_both_layers(self):
        r = graded_radial_grid(2, 2.0, 1.0, 1e-4)
        assert r[0] == 1.0 and r[-1] == 2.0
        h = np.diff(r)
        assert h[0] <= math.sqrt(1e-4) / 8 and h[-1] <= math.sqrt(1e-4) / 8
        assert np.all(h > 0)


def _loop_offsets(fine_end, limit, h_fine, h_max):
    """Boundary offsets built node by node, as the grid used to be."""
    offs = [0.0]
    pos = 0.0
    h = h_fine
    while pos + h_fine <= fine_end * (1 + 1e-12):
        pos += h_fine
        offs.append(pos)
    while True:
        h = min(h * GRID_GROWTH, h_max)
        if pos + h > limit:
            break
        pos += h
        offs.append(pos)
    return np.asarray(offs)


@pytest.mark.parametrize("points_per_layer", [8, 800, 2400])
@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
@pytest.mark.parametrize("shape", [(2, 1.0, None), (3, 2.0, 1.0)], ids=["ball", "annulus"])
def test_grid_offsets_match_node_by_node_loop(monkeypatch, shape, eps, points_per_layer):
    def grid():
        try:
            return graded_radial_grid(*shape, eps, points_per_layer=points_per_layer)
        except GridTooCoarse as exc:
            return str(exc)

    got = grid()
    monkeypatch.setattr(radial_oracle, "_boundary_offsets", _loop_offsets)
    want = grid()
    if isinstance(want, str):
        assert got == want
    else:
        assert np.array_equal(got, want)


class TestDirichlet:
    def test_trivial_boundary_value(self, salt):
        res = solve_radial_robin_pb(make_disk(1.0, RobinData(0.0, 0.0)), salt, 1e-3)
        assert res.newton_iters == 0
        assert np.max(np.abs(res.phi)) == 0.0

    @pytest.mark.parametrize("eps", [1e-3, 1e-4])
    def test_exponential_bound(self, salt, eps):
        res = solve_radial_robin_pb(make_disk(1.0, RobinData(0.0, 1.0)), salt, eps)
        m_f = math.sqrt(2 * math.cosh(1.0))
        bound = 2.0 * np.exp(-m_f * (1.0 - res.r) / (8 * math.sqrt(eps)))
        assert np.all(np.abs(res.phi) <= bound + 1e-15)

    def test_monotone_both_signs(self, salt):
        up = solve_radial_robin_pb(make_disk(1.0, RobinData(0.0, 1.0)), salt, 1e-3)
        assert np.all(np.diff(up.phi) >= 0)
        dn = solve_radial_robin_pb(make_disk(1.0, RobinData(0.0, -1.0)), salt, 1e-3)
        assert np.all(np.diff(dn.phi) <= 0)

    def test_grid_refinement_second_order(self, salt):
        rr = np.linspace(0.9, 1.0, 401)
        dom = make_disk(1.0, RobinData(0.0, 1.0))
        sols = [
            solve_radial_robin_pb(dom, salt, 1e-3, points_per_layer=p) for p in (200, 400, 800)
        ]
        e_coarse = np.max(np.abs(sols[0].phi_at(rr) - sols[2].phi_at(rr)))
        e_fine = np.max(np.abs(sols[1].phi_at(rr) - sols[2].phi_at(rr)))
        assert 3.0 <= e_coarse / e_fine <= 7.0

    def test_residual_and_conservation(self, salt):
        res = solve_radial_robin_pb(make_disk(1.0, RobinData(0.0, 1.0)), salt, 1e-3)
        scale = 1.0 + 2 * math.sinh(1.0)
        assert res.residual_norm <= 1e-9 * scale
        assert res.conservation_residual <= 1e-9


class TestRobin:
    def test_large_gamma_suppresses_boundary_value(self, salt):
        values = []
        for g in (0.1, 1.0, 10.0):
            dom = make_disk(1.0, RobinData(g, 1.0))
            res = solve_radial_robin_pb(dom, salt, 1e-3)
            values.append(abs(res.phi[-1]))
        assert values[0] > values[1] > values[2]

    def test_boundary_value_approaches_layer_value(self, salt, pb_disk_sweep, std_bundle):
        u0 = std_bundle.u.u0
        gaps = [abs(pb_disk_sweep[eps].phi[-1] - u0) for eps in (1e-3, 1e-4)]
        assert gaps[0] <= 10 * math.sqrt(1e-3)
        assert gaps[1] <= 10 * math.sqrt(1e-4)
        assert gaps[1] < gaps[0]

    def test_typed_reference_potential(self, salt, pb_disk_sweep):
        res = pb_disk_sweep[1e-2]
        assert res.phi_eps_star == salt.phi_star
        assert "phi_eps_star" not in res.to_json_dict()

    def test_ball_3d(self, salt):
        dom = make_ball(3, 1.0, RobinData(0.1, 1.0))
        res = solve_radial_robin_pb(dom, salt, 1e-3)
        assert res.residual_norm <= 1e-9
        assert np.all(np.diff(res.phi) >= -1e-14)


class TestComparison:
    def test_pb_disk_sweep_patterns(self, pb_disk_sweep, pb_disk_domain, std_bundle):
        layers = stretched_layers([std_bundle], 5.0)
        reports = {
            eps: compare_expansion(res, pb_disk_domain, layers)
            for eps, res in pb_disk_sweep.items()
        }
        e1 = [reports[eps].boundaries[0].E1 for eps in (1e-2, 1e-3, 1e-4)]
        e2 = [reports[eps].boundaries[0].E2 for eps in (1e-2, 1e-3, 1e-4)]
        fe = [reports[eps].boundaries[0].field_err for eps in (1e-2, 1e-3, 1e-4)]
        assert e1[0] > e1[1] > e1[2]
        assert e2[0] > e2[1] > e2[2]
        assert fe[0] > fe[1] > fe[2]
        assert e2[2] <= 0.5 * e2[0]

    def test_band_deviations_are_node_maxima(self, pb_disk_sweep, pb_disk_domain, std_bundle):
        # Region II: stretched depth in [T, eps**(beta - 1/2)] = [5, 10];
        # Region III: depth beyond eps**beta = 0.1
        res = pb_disk_sweep[1e-4]
        bands = RegionParams(eps=1e-4, beta=0.25, T=5.0)
        rep = compare_expansion(res, pb_disk_domain, stretched_layers([std_bundle], 5.0), bands)
        b = rep.boundaries[0]
        depth = 1.0 - res.r
        dev = np.abs(res.phi - res.phi_eps_star)
        t = depth / math.sqrt(1e-4)
        band = (t >= 5.0) & (t <= 1e-4 ** (0.25 - 0.5))
        assert band.sum() > 100
        assert b.region2_max_dev == np.max(dev[band])
        assert b.region3_max_dev == np.max(dev[depth > 1e-4 ** 0.25])
        assert rep.to_json_dict()["boundaries"][0].keys() == {
            "k", "E1", "E2", "field_err", "region2_max_dev", "region3_max_dev"}

    def test_errors_are_maxima_of_the_public_evaluators(
        self, ccpb_sweep, annulus_domain, annulus_constants
    ):
        eps = 1e-3
        res = ccpb_sweep[eps]
        layers = stretched_layers(annulus_constants.profiles, 5.0)
        rep = compare_expansion(res, annulus_domain, layers)
        t = np.linspace(0.0, 5.0, STRETCHED_SAMPLES)
        for comp, bundle, b in zip(annulus_domain.components, annulus_constants.profiles,
                                   rep.boundaries):
            rs = comp.radius + comp.depth_sign * (t * math.sqrt(eps))
            phi, coef = res.phi_at(rs), comp.depth_sign * res.dphi_at(rs)
            q = ExpansionQuery(comp.mean_curvature, eps, 2, 2)
            rows = grid_rows(q, bundle, t)
            assert b.E1 == np.max(np.abs(phi - sample(bundle, t).potential(replace(q, order=1))))
            assert b.E2 == np.max(np.abs(phi - rows["potential"])) / math.sqrt(eps)
            assert b.field_err == np.max(np.abs(coef - rows["field"]))

    def test_trivial_configuration_zero_errors(self, salt):
        dom = make_disk(1.0, RobinData(0.1, 0.0))
        res = solve_radial_robin_pb(dom, salt, 1e-3)
        from pblayers.profiles import solve_u, solve_v

        u = solve_u(salt, RobinData(0.1, 0.0))
        v = solve_v(u)
        rep = compare_expansion(res, dom, stretched_layers([LayerBundle(u, v)], 5.0))
        assert rep.boundaries[0].E1 == 0.0 and rep.boundaries[0].E2 == 0.0

    def test_region_empty(self, salt, pb_disk_domain, std_bundle):
        res = solve_radial_robin_pb(pb_disk_domain, salt, 1e-4, points_per_layer=16)
        with pytest.raises(RegionEmpty):
            compare_expansion(
                res, pb_disk_domain, stretched_layers([std_bundle], 9.99),
                bands=RegionParams(eps=1e-4, beta=0.25, T=9.99),
            )

    def test_bands_of_another_eps_or_T_rejected(self, pb_disk_sweep, pb_disk_domain, std_bundle):
        res = pb_disk_sweep[1e-4]
        layers = stretched_layers([std_bundle], 5.0)
        for bands in (RegionParams(eps=1e-3, beta=0.25, T=5.0),
                      RegionParams(eps=1e-4, beta=0.25, T=4.0)):
            with pytest.raises(ConfigError):
                compare_expansion(res, pb_disk_domain, layers, bands=bands)


class TestConservedCharge:
    def test_requires_annulus_and_neutrality(self, msalt, salt):
        dom = make_disk(1.0, RobinData(0.1, 1.0))
        with pytest.raises(ConfigError):
            solve_radial_ccpb(dom, msalt, 1e-3)
        ann = make_annulus(2, 1.0, 2.0, RobinData(0.1, 1.0), RobinData(0.1, -1.0))
        from pblayers.errors import NeutralityViolated

        with pytest.raises(NeutralityViolated):
            solve_radial_ccpb(ann, [IonSpecies(1, 1, "mass")], 1e-3)

    def test_global_neutrality(self, ccpb_sweep, msalt):
        scale = sum(s.amount * abs(s.z) for s in msalt)
        for res in ccpb_sweep.values():
            assert abs(res.neutrality) <= 1e-8 * scale

    def test_reference_between_boundary_potentials(self, ccpb_sweep):
        for res in ccpb_sweep.values():
            assert -1.0 < res.phi_eps_star < 1.0
            assert np.all(res.phi >= -1.0 - 1e-12)
            assert np.all(res.phi <= 1.0 + 1e-12)

    def test_drift_law(self, ccpb_sweep, annulus_constants):
        gaps = []
        for eps in (1e-2, 1e-3, 1e-4):
            drift = (ccpb_sweep[eps].phi_eps_star - annulus_constants.phi0_star) / math.sqrt(eps)
            gaps.append(abs(drift - annulus_constants.q))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_expansion_sweep(self, ccpb_sweep, annulus_domain, annulus_constants):
        e2 = []
        layers = stretched_layers(annulus_constants.profiles, 5.0)
        for eps in (1e-2, 1e-3, 1e-4):
            rep = compare_expansion(ccpb_sweep[eps], annulus_domain, layers)
            e2.append(max(b.E2 for b in rep.boundaries))
        assert e2[0] > e2[1] > e2[2]
        assert e2[2] <= 0.5 * e2[0]


class TestGenerality:
    def test_asymmetric_electrolyte_ccpb(self):
        # 2:1 electrolyte, mixed Robin/Dirichlet boundaries
        from pblayers.ccpb import ccpb_constants

        species = [IonSpecies(2.0, 1.0, "mass"), IonSpecies(-1.0, 2.0, "mass")]
        dom = make_annulus(2, 1.0, 2.0, RobinData(0.2, 0.8), RobinData(0.0, -0.6))
        cc = ccpb_constants(dom, species)
        assert cc.diagnostics["flux_residual"] <= 1e-10
        assert cc.diagnostics["mhat_charge_rel"] <= 1e-8
        assert cc.diagnostics["drift_balance_rel"] <= 1e-8
        gaps = []
        for eps in (1e-2, 1e-3, 1e-4):
            res = solve_radial_ccpb(dom, species, eps)
            scale = sum(s.amount * abs(s.z) for s in species)
            assert abs(res.neutrality) <= 1e-8 * scale
            drift = (res.phi_eps_star - cc.phi0_star) / math.sqrt(eps)
            gaps.append(abs(drift - cc.q))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_three_dimensional_ball_convergence(self):
        from pblayers.nonlinearity import make_classical_pb
        from pblayers.profiles import solve_u, solve_v

        f = make_classical_pb([IonSpecies(1, 2), IonSpecies(-1, 1)])
        dom = make_ball(3, 1.0, RobinData(0.1, 1.0))
        u = solve_u(f, RobinData(0.1, 1.0))
        v = solve_v(u)
        e2 = []
        layers = stretched_layers([LayerBundle(u, v)], 5.0)
        for eps in (1e-2, 1e-3, 1e-4):
            res = solve_radial_robin_pb(dom, f, eps)
            rep = compare_expansion(res, dom, layers)
            e2.append(rep.boundaries[0].E2)
        assert e2[0] > e2[1] > e2[2]
        assert e2[2] <= 0.5 * e2[0]


class TestBandCharges:
    def test_pb_disk_band_integrals(self, pb_disk_sweep, pb_disk_domain, std_bundle, salt):
        from pblayers.asymptotics import region_charge

        params = RegionParams(eps=1e-4, beta=0.25, T=5.0)
        rep = region_charge(pb_disk_domain, 0, params, std_bundle)
        oracle = pb_disk_sweep[1e-4]
        for reg, formula in ((1, rep.region1), (2, rep.region2)):
            val = band_charge_integral(oracle, pb_disk_domain, 0, salt, params, reg)
            assert abs(val - formula) <= 0.1 * 1e-4

    def test_ccpb_band_integrals(self, ccpb_sweep, annulus_domain, annulus_constants, msalt):
        from pblayers.asymptotics import region_charge
        from pblayers.nonlinearity import _exp_terms_nonlinearity

        oracle = ccpb_sweep[1e-4]
        a = np.array([s.amount * s.z / A for s, A in zip(msalt, oracle.normalizers)])
        b = np.array([-s.z for s in msalt])
        f_eps = _exp_terms_nonlinearity(a, b, 0.0, "custom")
        # the conserved-charge screening rate is weak (~0.46): at beta = 0.2
        # about 10 % of the layer's charge lies beyond Region II's far edge
        for beta in (0.1, 0.2):
            params = RegionParams(eps=1e-4, beta=beta, T=5.0)
            for k in (0, 1):
                rep = region_charge(
                    annulus_domain, k, params, annulus_constants.profiles[k]
                )
                for reg, formula in ((1, rep.region1), (2, rep.region2)):
                    val = band_charge_integral(oracle, annulus_domain, k, f_eps, params, reg)
                    assert abs(val - formula) <= 0.1 * 1e-4, (beta, k, reg)


@pytest.fixture(scope="module")
def annulus_3d_2_1():
    """A 3-D annulus on the 2:1 mass salt, solved at eps 1e-2 and 1e-3."""
    domain = make_annulus(3, 1.0, 2.0, RobinData(0.1, 1.0), RobinData(0.1, -1.0))
    species = [IonSpecies(2.0, 1.0, "mass"), IonSpecies(-1.0, 2.0, "mass")]
    return {eps: solve_radial_ccpb(domain, species, eps) for eps in (1e-2, 1e-3)}


class TestNotAKnotCubic:
    """The oracle's spline transcribes SciPy's not-a-knot CubicSpline, which
    stays the reference: values and slopes carry its bits, band integrals
    agree to rounding."""

    @pytest.mark.parametrize("sweep", ["pb_disk_sweep", "ccpb_sweep", "annulus_3d_2_1"])
    def test_oracle_samples_bit_equal_to_cubic_spline(self, request, sweep):
        rng = np.random.default_rng(7)
        for res in request.getfixturevalue(sweep).values():
            r = res.r
            inner = res.radii[1] if len(res.radii) > 1 else None
            queries = (
                r,
                graded_radial_grid(res.d, res.radii[0], inner, res.eps / 10),
                rng.uniform(r[0], r[-1], 20_000),
                np.array([r[0], r[-1], np.nextafter(r[0], -1.0), np.nextafter(r[-1], 9.0),
                          r[0] - 0.3, r[-1] + 0.3, r[0] - 5.0, r[-1] + 5.0]),
            )
            spline = CubicSpline(r, res.phi)
            for q in queries:
                assert np.array_equal(res.phi_at(q), spline(q))
                assert np.array_equal(res.dphi_at(q), spline(q, 1))

    @pytest.mark.parametrize("n", [4, 5, 8])
    def test_uneven_random_grids_bit_equal_to_cubic_spline(self, n):
        rng = np.random.default_rng(n)
        for _ in range(200):
            x = np.cumsum(rng.exponential(size=n)) - rng.uniform(0.0, 3.0)
            y = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
            spline = CubicSpline(x, y)
            q = np.concatenate((x, rng.uniform(x[0] - 1.0, x[-1] + 1.0, 64)))
            value, slope = _cubic_eval(x, _not_a_knot(x, y), q)
            assert np.array_equal(value, spline(q))
            assert np.array_equal(slope, spline(q, 1))

    def test_band_integrals_match_cubic_spline(self, pb_disk_sweep, pb_disk_domain, salt,
                                               ccpb_sweep, annulus_domain, msalt):
        from pblayers.nonlinearity import _exp_terms_nonlinearity

        oracle = ccpb_sweep[1e-4]
        a = np.array([s.amount * s.z / A for s, A in zip(msalt, oracle.normalizers)])
        f_eps = _exp_terms_nonlinearity(a, np.array([-s.z for s in msalt]), 0.0, "custom")
        bands = RegionParams(eps=1e-4, beta=0.25, T=5.0)
        # Region I of the disk's boundary at T sqrt(eps) = 1 is the whole disk
        whole = RegionParams(eps=4.0, beta=0.25, T=0.5)
        cases = [(pb_disk_sweep[eps], pb_disk_domain, 0, salt, params, reg)
                 for eps in (1e-2, 1e-4) for params, reg in ((bands, 1), (bands, 2),
                                                             (whole, 1))]
        cases += [(oracle, annulus_domain, k, f_eps, bands, reg) for k in (0, 1)
                  for reg in (1, 2)]
        for res, domain, k, f, params, reg in cases:
            comp = domain.components[k]
            widths = {1: (0.0, params.inner_width),
                      2: (params.inner_width, params.outer_width)}[reg]
            lo, hi = sorted(comp.radius + comp.depth_sign * w for w in widths)
            d = res.d
            dens = np.asarray(f.f(res.phi), dtype=float) * res.r ** (d - 1)
            want = unit_sphere_area(d) * float(CubicSpline(res.r, dens).integrate(lo, hi))
            got = band_charge_integral(res, domain, k, f, params, reg)
            assert abs(got - want) <= 1e-13 * abs(want), (reg, got, want)

    def test_non_finite_potential_raises(self, pb_disk_sweep):
        res = pb_disk_sweep[1e-2]
        phi = res.phi.copy()
        phi[len(phi) // 2] = np.nan
        with pytest.raises(NonFiniteOutput):
            replace(res, phi=phi)


class TestOneSolvePath:
    """Every solve builds one grid and one system; the conserved-charge
    sweeps rerun Newton on that system and must change no number."""

    # the ccpb_sweep fixture as computed when each normalizer sweep was a
    # separate Robin solve on a freshly built grid
    SWEEP = {
        1e-2: ((7.932280882048301, 13.226964089064726), 0.2556584293929572, 13, 17),
        1e-3: ((7.227398385816468, 13.010645274200304), 0.29394437709566723, 14, 19),
        1e-4: ((6.993928443143215, 12.931165162153441), 0.3072989471974599, 14, 19),
    }

    def test_ccpb_sweep_unchanged(self, ccpb_sweep):
        got = {
            eps: (res.normalizers, res.phi_eps_star, res.outer_iters, res.newton_iters)
            for eps, res in ccpb_sweep.items()
        }
        assert got == self.SWEEP

    # a 2:1 mass salt on the same annulus: its f has two unequal terms, so the
    # oracle follows the last bits of f, f' and the zero of f (not of F)
    SALT_2_1 = ((2.0, 1.0), (-1.0, 2.0))
    SALT_2_1_SWEEP = {
        1e-2: ((7.824897508929062, 12.075556379085581), 0.14462421232667755, 13, 22),
        1e-3: ((6.971146720101354, 11.507522432590742), 0.16707373753441587, 17, 29),
        1e-4: ((6.725571147311442, 11.330291909197438), 0.1738543293765847, 15, 24),
    }

    def test_ccpb_sweep_of_2_1_salt_unchanged(self, annulus_domain):
        species = [IonSpecies(z, m, "mass") for z, m in self.SALT_2_1]
        got = {}
        for eps in self.SALT_2_1_SWEEP:
            res = solve_radial_ccpb(annulus_domain, species, eps)
            got[eps] = (res.normalizers, res.phi_eps_star, res.outer_iters, res.newton_iters)
        assert got == self.SALT_2_1_SWEEP

    # three species, so the density's far path sums three unequal terms
    SALT_3 = ((2.0, 1.0), (1.0, 0.5), (-1.0, 2.5))
    SALT_3_SWEEP = {
        1e-2: ((7.525664972910304, 7.982094324362029, 12.158893668601209),
               0.16747474935408763, 14, 26),
        1e-3: ((6.712858045965367, 7.816178625571995, 11.680639205449152),
               0.18698977627035882, 11, 26),
        1e-4: ((6.478597306232297, 7.770609722341177, 11.530022359481638),
               0.19288968234623205, 11, 24),
    }

    def test_ccpb_sweep_of_three_species_unchanged(self, annulus_domain):
        species = [IonSpecies(z, m, "mass") for z, m in self.SALT_3]
        got = {}
        for eps in self.SALT_3_SWEEP:
            res = solve_radial_ccpb(annulus_domain, species, eps)
            got[eps] = (res.normalizers, res.phi_eps_star, res.outer_iters, res.newton_iters)
        assert got == self.SALT_3_SWEEP

    def test_ccpb_builds_one_grid(self, annulus_domain, msalt, monkeypatch):
        from pblayers import radial_oracle

        built = []

        def counting(*args, **kwargs):
            built.append(args)
            return graded_radial_grid(*args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("the sweeps must not re-enter the public solver")

        monkeypatch.setattr(radial_oracle, "graded_radial_grid", counting)
        monkeypatch.setattr(radial_oracle, "solve_radial_robin_pb", forbidden)
        res = solve_radial_ccpb(annulus_domain, msalt, 1e-2)
        assert len(built) == 1
        assert res.outer_iters == self.SWEEP[1e-2][2]

    @pytest.mark.parametrize("model", ["pb", "ccpb"])
    def test_warm_start_from_result(self, model, salt, msalt, pb_disk_sweep, pb_disk_domain,
                                    ccpb_sweep, annulus_domain):
        if model == "pb":
            prev, radii, iters = pb_disk_sweep[1e-2], (1.0, None), 2
            solve = functools.partial(solve_radial_robin_pb, pb_disk_domain, salt, 1e-3)

            def start(r):
                # equal stretched depth 1 - r: sqrt(10) times deeper at eps 1e-2,
                # no deeper than the center, linear between the earlier nodes
                depth = np.maximum(r + (math.sqrt(1e-2 / 1e-3) - 1.0) * (r - 1.0), 0.0)
                return np.interp(depth, prev.r, prev.phi)
        else:
            prev, radii, iters = ccpb_sweep[1e-2], (2.0, 1.0), 19
            solve = functools.partial(solve_radial_ccpb, annulus_domain, msalt, 1e-3)
            start = prev.phi_at
        r = graded_radial_grid(2, *radii, 1e-3)
        from_result = solve(initial=prev)
        from_array = solve(initial=start(r))
        assert np.array_equal(from_result.r, r)
        assert np.array_equal(from_result.phi, from_array.phi)
        assert from_result.newton_iters == from_array.newton_iters == iters

    def test_pb_disk_sweep_newton_counts(self, pb_disk_sweep):
        # cold starts at each eps, as computed when the continued start sampled the cubic
        assert {eps: res.newton_iters for eps, res in pb_disk_sweep.items()} == {
            1e-2: 2, 1e-3: 2, 1e-4: 2}

    def test_pb_warm_start_at_equal_eps_samples_at_r(self, salt, pb_disk_sweep, pb_disk_domain):
        # at equal eps the earlier nodes are the new ones: the start is phi itself
        prev = pb_disk_sweep[1e-3]
        from_result = solve_radial_robin_pb(pb_disk_domain, salt, 1e-3, initial=prev)
        from_array = solve_radial_robin_pb(pb_disk_domain, salt, 1e-3, initial=prev.phi)
        assert np.array_equal(from_result.phi, from_array.phi)
        assert from_result.newton_iters == from_array.newton_iters


class TestPbStart:
    """The local solve starts cold from the linearized Robin layer of each
    boundary and continues in eps at equal stretched depth."""

    # Newton iterations of the README PB disk (gamma 0.1, phi_bd 1, 1:1 salt),
    # cold at eps 1e-2, then continued to 1e-3 and 1e-4; a flat start and
    # sampling at equal r took 3, 3 and 3
    README_DISK_ITERS = (2, 2, 2)

    def test_readme_disk_continuation_newton_counts(self, salt, pb_disk_domain):
        res, iters = None, []
        for eps in (1e-2, 1e-3, 1e-4):
            res = solve_radial_robin_pb(pb_disk_domain, salt, eps, initial=res)
            iters.append(res.newton_iters)
        assert tuple(iters) == self.README_DISK_ITERS

    @staticmethod
    def _start(monkeypatch, domain, f, eps):
        """(grid, Newton's first iterate) of a cold local solve."""
        starts = []

        def first_iterate(system, phi0):
            starts.append((system.r, phi0))
            raise RuntimeError("stop")

        monkeypatch.setattr(radial_oracle, "_damped_newton", first_iterate)
        with pytest.raises(RuntimeError, match="stop"):
            solve_radial_robin_pb(domain, f, eps)
        return starts[0]

    def test_cold_start_is_the_linearized_layer(self, salt, monkeypatch):
        dom = make_annulus(2, 1.0, 2.0, RobinData(0.5, 1.0), RobinData(0.0, -2.0))
        r, phi0 = self._start(monkeypatch, dom, salt, 1e-3)
        mu = math.sqrt(2.0)  # f = -2 sinh(phi), f'(0) = -2
        want = (1.0 / (1.0 + 0.5 * mu) * np.exp(-mu * (2.0 - r) / math.sqrt(1e-3))
                - 2.0 * np.exp(-mu * (r - 1.0) / math.sqrt(1e-3)))
        assert np.allclose(phi0, want, rtol=0.0, atol=1e-15)

    def test_flat_start_without_a_decay_rate(self, monkeypatch):
        # a custom density whose f'(phi*) is 0 has no linearized layer
        from pblayers.nonlinearity import make_custom

        f = make_custom(lambda p: -np.asarray(p, dtype=float) ** 3,
                        lambda p: -3.0 * np.asarray(p, dtype=float) ** 2,
                        lambda p: np.asarray(p, dtype=float) ** 4 / 4, phi_star=0.0)
        _, phi0 = self._start(monkeypatch, make_disk(1.0, RobinData(0.1, 1.0)), f, 1e-2)
        assert np.all(phi0 == 0.0)

    def test_annulus_samples_stop_at_the_midpoint(self):
        dom = make_annulus(2, 1.0, 2.0, RobinData(0.1, 1.0), RobinData(0.1, -1.0))
        coarse = graded_radial_grid(2, 2.0, 1.0, 1e-2)
        # an earlier "solve" whose potential is its radius, so a sample shows where it was taken
        prev = radial_oracle.RadialSolveResult(
            model="pb", d=2, eps=1e-2, r=coarse, phi=coarse.copy(), newton_iters=0,
            residual_norm=0.0, conservation_residual=0.0, robin=(), radii=(2.0, 1.0),
            phi_eps_star=0.0,
        )
        system = _radial_system(dom, None, 1e-4, {})
        got = radial_oracle._stretched_start(system, prev)
        r = system.r
        outer = r >= 1.5
        want = np.where(outer, np.maximum(2.0 - 10.0 * (2.0 - r), 1.5),
                        np.minimum(1.0 + 10.0 * (r - 1.0), 1.5))
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)
        assert got[0] == 1.0 and got[-1] == 2.0


# PB configs on which a flat start raised NewtonDivergence at eps 1e-2, 1e-3
# and 1e-4: (domain, (valence, amount) pairs, eps)
LARGE_DROPS = {
    "ball-1:1-40": (make_ball(3, 1.0, RobinData(0.1, 40.0)), ((1, 1), (-1, 1)), 1e-3),
    "annulus-2:1-40": (make_annulus(2, 1.0, 2.0, RobinData(0.0, -40.0), RobinData(0.0, 20.0)),
                       ((2, 1), (-1, 2)), 1e-3),
    "annulus-1:2-40": (make_annulus(3, 1.0, 2.0, RobinData(0.1, 40.0), RobinData(0.1, -20.0)),
                       ((1, 2), (-2, 1)), 1e-3),
}


def _assert_converged(res, f):
    """Residual and conservation residual bounded as TestDirichlet bounds
    them, relative to 1 + max |f(phi)|."""
    scale = 1.0 + float(np.max(np.abs(f.f(res.phi))))
    assert res.residual_norm <= 1e-9 * scale
    assert res.conservation_residual <= 1e-9 * scale


class TestLargeBoundaryPotentials:
    def test_phi_bd_10_disk_converges(self, salt):
        dom = make_disk(1.0, RobinData(0.1, 10.0))
        res = None
        for eps in (1e-2, 1e-3, 1e-4):
            cold = solve_radial_robin_pb(dom, salt, eps)
            res = solve_radial_robin_pb(dom, salt, eps, initial=res)
            for sol in (cold, res):
                _assert_converged(sol, salt)
                assert np.all(np.diff(sol.phi) >= -1e-14)
            assert np.max(np.abs(cold.phi - res.phi)) <= 1e-8

    @pytest.mark.parametrize("name", sorted(LARGE_DROPS))
    def test_phi_bd_40_converges(self, name):
        from pblayers.nonlinearity import make_classical_pb

        dom, pairs, eps = LARGE_DROPS[name]
        f = make_classical_pb([IonSpecies(z, a, "bulk") for z, a in pairs])
        res = solve_radial_robin_pb(dom, f, eps)
        _assert_converged(res, f)
        # the layers decay to phi* at the center of a ball or the midpoint of an annulus
        mid = res.phi_at(0.5 * (res.r[0] + res.r[-1])) if len(dom.components) > 1 else res.phi[0]
        assert abs(mid - res.phi_eps_star) <= 1e-6

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "the Newton stop scales with max|f(phi)| of the iterate, so at phi_bd 100 the "
        "oracle returns its linearized start's boundary value 87.61 with residual ~1e28"))
    def test_phi_bd_100_disk_is_solved_or_refused(self, salt):
        from pblayers.errors import SolverError
        from pblayers.profiles import solve_u

        robin = RobinData(0.1, 100.0)
        u0 = solve_u(salt, robin).u0
        assert abs(u0 - 12.847) <= 1e-3
        dom = make_disk(1.0, robin)
        res = None
        try:
            for eps in (1e-2, 1e-3, 1e-4):
                res = solve_radial_robin_pb(dom, salt, eps, initial=res)
        except SolverError:
            return
        assert abs(res.phi[-1] - u0) <= 1e-2


def _five_band_jacobian(system, phi):
    """The (2,2)-banded Jacobian in solve_banded layout, assembled whole."""
    eps, n = system.eps, system.n
    dfv = np.asarray(system.f.df(phi), dtype=float)
    ab = np.zeros((5, n))
    a_up = eps * system.face_coef[1:] / system.vol[1:-1]
    a_dn = eps * system.face_coef[:-1] / system.vol[1:-1]
    ab[1, 2:] = a_up
    ab[3, :-2] = a_dn
    ab[2, 1:-1] = -(a_up + a_dn) + dfv[1:-1]
    if system.inner is None:
        c = eps * system.face_coef[0] / system.vol[0]
        ab[2, 0] = -c + dfv[0]
        ab[1, 1] = c
    else:
        g = system.inner.gamma * system.sq_eps
        c0, c1, c2 = _one_sided_coeffs(system.h[0], system.h[1])
        ab[2, 0] = 1.0 + g * c0
        ab[1, 1] = g * c1
        ab[0, 2] = g * c2
    g = system.outer.gamma * system.sq_eps
    c0, c1, c2 = _one_sided_coeffs(system.h[-1], system.h[-2])
    ab[2, -1] = 1.0 + g * c0
    ab[3, -2] = g * c1
    ab[4, -3] = g * c2
    return ab


def _backward_error(ab, step, res):
    """||J s + res|| / (||J|| ||s|| + ||res||) in the max norm, J in
    solve_banded's (2,2) layout ab[2 + i - j, j] = J[i, j]."""
    n = len(step)
    product, row_sums = res.copy(), np.zeros(n)
    for k in range(5):
        lo, hi = max(0, 2 - k), min(n, n + 2 - k)  # columns j with 0 <= j + k - 2 < n
        product[lo + k - 2:hi + k - 2] += ab[k, lo:hi] * step[lo:hi]
        row_sums[lo + k - 2:hi + k - 2] += np.abs(ab[k, lo:hi])
    norm = np.max(np.abs(product))
    return norm / (np.max(row_sums) * np.max(np.abs(step)) + np.max(np.abs(res)))


NEWTON_DOMAINS = {
    "ball": make_ball(2, 1.0, RobinData(0.3, 1.5)),
    # (outer, inner) Robin data: gamma > 0 outside and Dirichlet inside, then swapped
    "annulus": make_annulus(3, 1.0, 2.0, RobinData(0.7, -1.0), RobinData(0.0, 2.0)),
    "annulus-robin-inside": make_annulus(2, 1.0, 2.0, RobinData(0.0, 0.5), RobinData(2.0, -1.5)),
}
# both Robin rows nearly Neumann: the eliminated third entries are 1e6 times the diagonal
STIFF_ROBIN = {"annulus-gamma-1e6": make_annulus(3, 1.0, 2.0, RobinData(1e6, 1.0),
                                                 RobinData(1e6, -0.5))}


def _newton_cases(system, salt):
    """(phi, res) pairs on the system's grid; the last one after its density
    is swapped, as it may be between solves on the same system."""
    r = system.r
    for phi in (np.zeros(len(r)), np.cos(7.0 * r) * np.exp(-r), np.linspace(-2.0, 3.0, len(r))):
        yield phi, system.residual(phi)[0]
    system.f = replace(salt, df=lambda p: 3.0 * salt.df(p))
    yield phi, system.residual(phi)[0]


class TestNewtonStep:
    @pytest.mark.parametrize("name", sorted(NEWTON_DOMAINS))
    def test_bit_equal_to_solve_banded(self, salt, name):
        # the conserved-charge sweeps' five-band step
        system = _radial_system(NEWTON_DOMAINS[name], salt, 1e-3, {}, _BandedSystem)
        for phi, res in _newton_cases(system, salt):
            want = solve_banded((2, 2), _five_band_jacobian(system, phi), -res)
            assert system.newton_step(phi, res).tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", sorted(NEWTON_DOMAINS) + sorted(STIFF_ROBIN))
    def test_tridiagonal_step_is_backward_stable(self, salt, name):
        system = _radial_system({**NEWTON_DOMAINS, **STIFF_ROBIN}[name], salt, 1e-3, {})
        for phi, res in _newton_cases(system, salt):
            step = system.newton_step(phi, res)
            assert _backward_error(_five_band_jacobian(system, phi), step, res) <= 1e-15

    def test_pb_solve_never_calls_dgbsv(self, salt, monkeypatch):
        def dgbsv(*args, **kwargs):
            raise AssertionError("a PB solve called dgbsv")

        stand_in = SimpleNamespace(dgtsv=radial_oracle._lapack().dgtsv, dgbsv=dgbsv)
        monkeypatch.setattr(radial_oracle, "_lapack", lambda: stand_in)
        for name in sorted(NEWTON_DOMAINS):
            res = solve_radial_robin_pb(NEWTON_DOMAINS[name], salt, 1e-3)
            _assert_converged(res, salt)

    def test_nan_derivative_raises_value_error(self, salt):
        system = _radial_system(NEWTON_DOMAINS["ball"], salt, 1e-3, {})
        nan_at = len(system.r) // 2

        def df(p):
            out = np.array(salt.df(p), dtype=float)
            out[nan_at] = np.nan
            return out

        system.f = replace(salt, df=df)
        phi = np.zeros(len(system.r))
        res, _ = system.residual(phi)
        with pytest.raises(ValueError):
            solve_banded((2, 2), _five_band_jacobian(system, phi), -res)
        with pytest.raises(ValueError):
            system.newton_step(phi, res)

    def test_singular_system_raises_linalg_error(self, salt):
        # with eps = 0 the flux couplings vanish and J = diag(1, f'(phi), 1)
        r = np.linspace(1.0, 2.0, 9)
        system = _RadialSystem(r, 2, 0.0, None, RobinData(0.0, 1.0), RobinData(0.0, 1.0))
        system.f = replace(salt, df=lambda p: np.where(np.arange(len(p)) == 4, 0.0, -1.0))
        phi = np.zeros(len(r))
        res, _ = system.residual(phi)
        with pytest.raises(LinAlgError):
            solve_banded((2, 2), _five_band_jacobian(system, phi), -res)
        with pytest.raises(LinAlgError):
            system.newton_step(phi, res)


# run in a fresh interpreter: an oracle solve warm-started from another (dgtsv)
# and one five-band Newton step (dgbsv), then the scipy.linalg package, whose
# LAPACK module must be the oracle's and whose solve_banded must give the
# step's bits
_LOAD_ORDER_PROBE = """
import json, sys
import numpy as np
from pblayers import radial_oracle
from pblayers.geometry import make_annulus
from pblayers.nonlinearity import IonSpecies, make_classical_pb
from pblayers.profiles import RobinData
salt = make_classical_pb([IonSpecies(1, 1.0), IonSpecies(-1, 1.0)])
domain = make_annulus(2, 1.0, 2.0, RobinData(0.1, 1.0), RobinData(0.0, -0.5))
coarse = radial_oracle.solve_radial_robin_pb(domain, salt, 1e-2)
fine = radial_oracle.solve_radial_robin_pb(domain, salt, 1e-3, initial=coarse)
system = radial_oracle._radial_system(domain, salt, 1e-3, {}, radial_oracle._BandedSystem)
phi = np.cos(7.0 * system.r)
res, _ = system.residual(phi)
step = system.newton_step(phi, res)
linalg_before = "scipy.linalg" in sys.modules
import scipy.linalg
from test_radial_oracle import _five_band_jacobian
want = scipy.linalg.solve_banded((2, 2), _five_band_jacobian(system, phi), -res)
print(json.dumps({
    "linalg_before": linalg_before,
    "converged": bool(np.isfinite(fine.phi).all()),
    "same_module": radial_oracle._lapack() is sys.modules["scipy.linalg._flapack"],
    "same_dgbsv": scipy.linalg.lapack.dgbsv is radial_oracle._lapack().dgbsv,
    "same_dgtsv": scipy.linalg.lapack.dgtsv is radial_oracle._lapack().dgtsv,
    "step_bits": bool(np.array_equal(step, want)),
}))
"""


# run in a fresh interpreter: eight threads make the process's first LAPACK
# call at once, with a short switch interval and a load slowed by 20 ms so
# that every thread arrives while the first one loads; one load must serve all
_CONCURRENT_PROBE = """
import json, sys, threading, time
from pblayers import radial_oracle
load, loads = radial_oracle._load_extension, []
def slow_load(*args):
    loads.append(args)
    time.sleep(0.02)
    return load(*args)
radial_oracle._load_extension = slow_load
sys.setswitchinterval(1e-6)
barrier = threading.Barrier(8)
got = []
def first_call():
    barrier.wait()
    got.append(radial_oracle._lapack())
threads = [threading.Thread(target=first_call) for _ in range(8)]
try:
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
finally:
    sys.setswitchinterval(0.005)
print(json.dumps({"alive": sum(t.is_alive() for t in threads), "calls": len(got),
                  "loads": len(loads), "modules": len({id(m) for m in got}),
                  "registered": all(m is sys.modules[radial_oracle._FLAPACK] for m in got)}))
"""


def _fresh_interpreter(probe):
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join([str(root / "src"), str(root / "tests")])
    proc = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestLapackLoader:
    def test_oracle_first_then_scipy_linalg(self):
        assert _fresh_interpreter(_LOAD_ORDER_PROBE) == {
            "linalg_before": False, "converged": True, "same_module": True,
            "same_dgbsv": True, "same_dgtsv": True, "step_bits": True,
        }

    def test_concurrent_first_calls_load_once(self):
        assert _fresh_interpreter(_CONCURRENT_PROBE) == {
            "alive": 0, "calls": 8, "loads": 1, "modules": 1, "registered": True,
        }

    def test_scipy_linalg_first_is_reused(self, monkeypatch):
        # this module imported scipy.linalg before any solve
        import scipy.linalg.lapack

        def forbidden(*args):
            raise AssertionError("a second LAPACK module was loaded")

        monkeypatch.setattr(radial_oracle, "_load_extension", forbidden)
        assert radial_oracle._lapack() is scipy.linalg.lapack._flapack
        assert radial_oracle._lapack().dgbsv is scipy.linalg.lapack.dgbsv

    def test_missing_extension_raises_import_error(self, tmp_path):
        import scipy

        with pytest.raises(ImportError) as info:
            radial_oracle._load_extension(radial_oracle._FLAPACK, str(tmp_path))
        assert str(tmp_path) in str(info.value)
        assert f"scipy {scipy.__version__}" in str(info.value)
        assert sys.modules[radial_oracle._FLAPACK] is scipy.linalg.lapack._flapack
