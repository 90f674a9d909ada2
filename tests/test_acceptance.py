"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Band parameters that the criteria leave free are pinned here: the PB band
comparison runs at (T, beta) = (5, 0.25); the conserved-charge band
comparison at (5, 0.10), because its screening rate (~0.46) needs the wider
Region II before the bounded far-edge flux drops below the 0.1*eps
tolerance; the ratio-law check runs at T = 1, where the eps-order formula
terms stay inside the 1e-3 relative window at eps = 1e-6.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.integrate import solve_bvp

from pblayers.asymptotics import region_charge
from pblayers.ccpb import ccpb_constants, solve_phi0
from pblayers.cli import main as cli_main
from pblayers.geometry import BoundaryComponent, DomainSpec, RegionParams, make_disk
from pblayers.nonlinearity import _exp_terms_nonlinearity
from pblayers.profiles import (
    RobinData,
    first_integral_drift,
    ode_residual,
    profile_eval,
    solve_u,
    time_integral_usq,
)
from pblayers.radial_oracle import (
    band_charge_integral,
    compare_expansion,
    solve_radial_robin_pb,
    stretched_layers,
)

SQRT2 = math.sqrt(2.0)


@contextmanager
def criterion(num, name):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def test_criterion_01_gouy_chapman_equivalence(salt):
    with criterion(1, "Gouy-Chapman equivalence"):
        start = time.perf_counter()
        tq = np.linspace(0.0, 20.0, 4001)
        for phi_bd in (1.0, -1.0, 2.0, -2.0):
            u = solve_u(salt, RobinData(0.0, phi_bd))
            val, _ = profile_eval(u, tq)
            exact = 4 * np.arctanh(np.tanh(phi_bd / 4) * np.exp(-SQRT2 * tq))
            assert np.max(np.abs(val - exact)) <= 1e-8
        assert time.perf_counter() - start < 1.0


def test_criterion_02_first_integral(profile_matrix, annulus_constants):
    with criterion(2, "first integral"):
        for (gamma, phi_bd), (u, _) in profile_matrix.items():
            assert first_integral_drift(u) <= 1e-10 * (1 + u.u0_prime ** 2)
        for bundle in annulus_constants.profiles:
            u = bundle.u
            assert first_integral_drift(u) <= 1e-10 * (1 + u.u0_prime ** 2)


def test_criterion_03_ode_residuals(std_bundle, salt, annulus_constants):
    with criterion(3, "ODE residuals and the auxiliary-layer cross-check"):
        u, v, theta = std_bundle.u, std_bundle.v, std_bundle.theta
        assert ode_residual(v, u) <= 1e-10
        assert ode_residual(theta, u) <= 1e-10
        cc = annulus_constants
        for comp_bundle in cc.profiles:
            uu = comp_bundle.u
            assert ode_residual(comp_bundle.v, uu) <= 1e-10
            assert ode_residual(comp_bundle.theta, uu) <= 1e-10
            assert ode_residual(comp_bundle.w, uu, cc.f1) <= 1e-10

        # independent linear boundary-value solve for the auxiliary layer
        t_cut = min(u.t_max, 30.0 / u.mu)

        def rhs(t, y):
            uv, _ = profile_eval(u, t)
            return np.vstack([y[1], np.asarray(salt.df(uv)) * (1.0 - y[0])])

        def bc(ya, yb):
            return np.array([ya[0] - 0.1 * ya[1], yb[0] - 1.0])

        t0 = np.linspace(0, t_cut, 2001)
        sol = solve_bvp(
            rhs, bc, t0, np.vstack([1.0 - np.exp(-t0), np.exp(-t0)]),
            tol=1e-10, max_nodes=200000,
        )
        assert sol.status == 0
        tq = np.linspace(0, t_cut, 4001)
        mine, _ = profile_eval(theta, tq)
        assert np.max(np.abs(mine - sol.sol(tq)[0])) <= 1e-7


def test_criterion_04_structural_laws(profile_matrix, salt, stencil_derivative):
    with criterion(4, "structural laws over the 12-configuration matrix"):
        for (gamma, phi_bd), (u, v) in profile_matrix.items():
            sgn = 1.0 if phi_bd > 0 else -1.0
            # layer monotonicity and range
            assert np.all(sgn * np.diff(u.values) < 0)
            assert np.all(sgn * u.values[:-1] > 0)
            # curvature profile sign and unimodality
            signed = sgn * v.values
            assert np.all(signed[1:] > 0)
            interior = v.derivs[np.abs(v.derivs) > 1e-13]
            assert np.sum(np.diff(np.sign(interior)) != 0) == 1
            # energy-balance negativity
            g = np.asarray(salt.f(u.values)) * v.values + u.derivs * v.derivs
            assert np.all(g < 0)
            # integral identity via an independent stencil derivative
            dv_fd = stencil_derivative(v.t, v.values)
            assert np.max(np.abs(dv_fd - v.derivs)) <= 1e-7
            # derivative envelope
            bound = abs(u.u0_prime) * np.exp(-u.m_f * u.t)
            assert np.all(np.abs(u.derivs) <= bound * (1 + 1e-12) + 1e-300)
            # dual-quadrature energy agreement
            assert time_integral_usq(u) == pytest.approx(u.int_usq, rel=1e-8)


def test_criterion_05_ccpb_constants(annulus_domain, msalt):
    with criterion(5, "conserved-charge constants"):
        start = time.perf_counter()
        cc = ccpb_constants(annulus_domain, msalt)
        elapsed = time.perf_counter() - start
        assert cc.diagnostics["compatibility_residual"] <= 1e-10
        assert cc.diagnostics["flux_residual"] <= 1e-10
        assert cc.diagnostics["mhat_charge_rel"] <= 1e-8
        assert cc.diagnostics["drift_balance_rel"] <= 1e-8
        c0 = BoundaryComponent(0, 1.0, 0.0, 0.0, RobinData(0.1, 1.0), "outer")
        c1 = BoundaryComponent(1, 1.0, 0.0, 0.0, RobinData(0.1, -1.0), "hole")
        phi0_sym = solve_phi0(DomainSpec(2, 1.0, (c0, c1)), msalt)
        assert abs(phi0_sym) <= 1e-12
        assert elapsed < 5.0


@pytest.mark.parametrize("eps", [1e-3, 1e-4])
def test_criterion_06_dirichlet_oracle_bound(salt, eps):
    with criterion(6, f"radial Dirichlet bound at eps={eps:g}"):
        start = time.perf_counter()
        res = solve_radial_robin_pb(make_disk(1.0, RobinData(0.0, 1.0)), salt, eps)
        m_f = math.sqrt(2 * math.cosh(1.0))
        bound = 2.0 * np.exp(-m_f * (1.0 - res.r) / (8.0 * math.sqrt(eps)))
        assert np.all(np.abs(res.phi) <= bound + 1e-15)
        assert time.perf_counter() - start < 10.0


def test_criterion_07_pb_convergence(pb_disk_sweep, pb_disk_domain, std_bundle):
    with criterion(7, "local-model convergence on the disk"):
        start = time.perf_counter()
        e1, e2, fe = [], [], []
        layers = stretched_layers([std_bundle], 5.0)
        for eps in (1e-2, 1e-3, 1e-4):
            rep = compare_expansion(pb_disk_sweep[eps], pb_disk_domain, layers)
            b = rep.boundaries[0]
            e1.append(b.E1)
            e2.append(b.E2)
            fe.append(b.field_err)
        assert e2[0] > e2[1] > e2[2]
        assert e2[2] <= 0.5 * e2[0]
        assert e1[0] > e1[1] > e1[2]
        coeffs = [v / math.sqrt(eps) for v, eps in zip(e1, (1e-2, 1e-3, 1e-4))]
        assert max(coeffs) <= 2.0 * min(coeffs)
        assert fe[0] > fe[1] > fe[2]
        assert fe[2] <= 0.5 * fe[0]
        assert time.perf_counter() - start < 60.0


def test_criterion_08_ccpb_convergence(ccpb_sweep, annulus_domain, annulus_constants):
    with criterion(8, "conserved-charge convergence on the annulus"):
        start = time.perf_counter()
        e2 = []
        drift_gaps = []
        layers = stretched_layers(annulus_constants.profiles, 5.0)
        for eps in (1e-2, 1e-3, 1e-4):
            rep = compare_expansion(ccpb_sweep[eps], annulus_domain, layers)
            e2.append(max(b.E2 for b in rep.boundaries))
            drift = (
                ccpb_sweep[eps].phi_eps_star - annulus_constants.phi0_star
            ) / math.sqrt(eps)
            drift_gaps.append(abs(drift - annulus_constants.q))
        assert e2[0] > e2[1] > e2[2]
        assert e2[2] <= 0.5 * e2[0]
        assert drift_gaps[0] > drift_gaps[1] > drift_gaps[2]
        assert time.perf_counter() - start < 120.0


def test_criterion_09_region_charges(
    pb_disk_sweep, pb_disk_domain, std_bundle, salt,
    ccpb_sweep, annulus_domain, annulus_constants, msalt,
):
    with criterion(9, "band charges, sign laws and the ratio law"):
        eps = 1e-4
        params_pb = RegionParams(eps=eps, beta=0.25, T=5.0)
        rep = region_charge(pb_disk_domain, 0, params_pb, std_bundle)
        oracle = pb_disk_sweep[eps]
        for reg, formula in ((1, rep.region1), (2, rep.region2)):
            val = band_charge_integral(oracle, pb_disk_domain, 0, salt, params_pb, reg)
            assert abs(val - formula) <= 0.1 * eps
        assert rep.region1 < 0 and rep.region2 < 0  # phi_bd > reference

        params_cc = RegionParams(eps=eps, beta=0.10, T=5.0)
        oc = ccpb_sweep[eps]
        a = np.array([s.amount * s.z / A for s, A in zip(msalt, oc.normalizers)])
        b = np.array([-s.z for s in msalt])
        f_eps = _exp_terms_nonlinearity(a, b, 0.0, "custom")
        for k, expected_sign in ((0, -1), (1, 1)):
            rep_k = region_charge(
                annulus_domain, k, params_cc, annulus_constants.profiles[k]
            )
            for reg, formula in ((1, rep_k.region1), (2, rep_k.region2)):
                val = band_charge_integral(oc, annulus_domain, k, f_eps, params_cc, reg)
                assert abs(val - formula) <= 0.1 * eps
            assert math.copysign(1, rep_k.region1) == expected_sign
            assert math.copysign(1, rep_k.region2) == expected_sign

        # ratio law at eps = 1e-6 from the formula side
        params_ratio = RegionParams(eps=1e-6, beta=0.25, T=1.0)
        rr = region_charge(pb_disk_domain, 0, params_ratio, std_bundle)
        _, du0 = profile_eval(std_bundle.u, 0.0)
        _, duT = profile_eval(std_bundle.u, 1.0)
        target = duT / (du0 - duT)
        assert rr.region2 / rr.region1 == pytest.approx(target, rel=1e-3)
        assert rr.region2 / rr.region1 > 0


def test_criterion_10_global_neutrality(ccpb_sweep, msalt):
    with criterion(10, "global neutrality of conserved-charge solves"):
        scale = sum(s.amount * abs(s.z) for s in msalt)
        for res in ccpb_sweep.values():
            assert abs(res.neutrality) <= 1e-8 * scale


def test_criterion_11_figures_reproduction(tmp_path):
    with criterion(11, "figure curves: monotone layer, unimodal signed correction"):
        cfg = {
            "model": "pb",
            "species": [{"z": 1, "amount": 1}, {"z": -1, "amount": 1}],
            "domain": {"type": "disk", "d": 2, "radius": 1.0},
            "robin": [{"gamma": 0.1, "phi_bd": 1.0}],
            "figures": {"gamma": 0.1},
            "grid": {"n_nodes": 4001},
        }
        cfg_path = tmp_path / "fig.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "figout"
        assert cli_main(["figures", "--config", str(cfg_path), "--output-dir", str(out)]) == 0
        meta = json.loads((out / "figures_meta.json").read_text())
        assert meta["passed"] is True
        assert all(meta["verdicts"].values())
        for name in ("u_plus", "u_minus", "v_plus", "v_minus"):
            assert (out / f"figure_{name}.csv").exists()


def test_criterion_12_determinism(tmp_path):
    with criterion(12, "byte-identical reruns"):
        import filecmp

        cfg = {
            "model": "pb",
            "species": [{"z": 1, "amount": 1}, {"z": -1, "amount": 1}],
            "domain": {"type": "disk", "d": 2, "radius": 1.0},
            "robin": [{"gamma": 0.1, "phi_bd": 1.0}],
            "figures": {"gamma": 0.1},
            "grid": {"n_nodes": 4001},
            "eps": [1e-3],
            "region": {"T": 5.0, "beta": 0.25},
            "expand": {"t_max": 5.0, "n_t": 101},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        for command in ("figures", "expand"):
            out1 = tmp_path / f"{command}_a"
            out2 = tmp_path / f"{command}_b"
            assert cli_main([command, "--config", str(cfg_path), "--output-dir", str(out1)]) == 0
            assert cli_main([command, "--config", str(cfg_path), "--output-dir", str(out2)]) == 0
            names = sorted(p.name for p in out1.iterdir())
            match, mismatch, errors = filecmp.cmpfiles(out1, out2, names, shallow=False)
            assert mismatch == [] and errors == []
