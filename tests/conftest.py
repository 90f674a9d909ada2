import numpy as np
import pytest

from pblayers.ccpb import ccpb_constants
from pblayers.geometry import make_annulus, make_disk
from pblayers.nonlinearity import Nonlinearity, make_classical_pb, symmetric_salt
from pblayers.profiles import RobinData, solve_theta, solve_u, solve_v
from pblayers.radial_oracle import solve_radial_ccpb, solve_radial_robin_pb

EPS_SWEEP = (1e-2, 1e-3, 1e-4)

GAMMAS = (0.0, 0.1, 1.0)
PHI_BDS = (0.5, -0.5, 1.0, -1.0)


def _stencil_derivative(t, y):
    """First derivative at every node from the quartic through the 5 nodes
    around it (one small Vandermonde solve per node, vectorized); fourth-order
    accurate on smooth grids.  Independent of the
    package's own derivatives, which the tests check against it."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(t)
    start = np.clip(np.arange(n) - 2, 0, n - 5)
    cols = start[:, None] + np.arange(5)[None, :]
    dt = t[cols] - t[:, None]
    powers = dt[:, :, None] ** np.arange(5)[None, None, :]
    return np.linalg.solve(powers, y[cols][:, :, None])[:, 1, 0]


@pytest.fixture(scope="session")
def stencil_derivative():
    return _stencil_derivative


def _closure_f1(f0, fhat1, q):
    """f1 = -q f0' + fhat1 as make_f1 once summed it: closures over f0 and
    fhat1, with F1 = -q f0 + Fhat1 (f0(phi0*) = 0) and delta-native paths.
    The reference the one-sum f1 is checked against."""
    d2f0 = f0.df.derivative()
    anchor = float(f0.phi_star)

    def f1(phi):
        return -q * f0.df(phi) + fhat1.f(phi)

    def df1(phi):
        return -q * d2f0(phi) + fhat1.df(phi)

    def F1(phi):
        return -q * f0.f(phi) + fhat1.F(phi)

    f1.from_delta = lambda d: -q * np.atleast_1d(
        np.asarray(f0.df(anchor + np.asarray(d, dtype=float)), dtype=float)
    ) + fhat1.f.from_delta(d)
    F1.from_delta = lambda d: -q * f0.f.from_delta(d) + fhat1.F.from_delta(d)
    return Nonlinearity(
        f=f1, df=df1, F=F1, phi_star=f0.phi_star, provenance="f1",
        species=f0.species, q=float(q),
    )


@pytest.fixture(scope="session")
def closure_f1():
    return _closure_f1


@pytest.fixture(scope="session")
def salt():
    return make_classical_pb(symmetric_salt())


@pytest.fixture(scope="session")
def msalt():
    return symmetric_salt(role="mass")


@pytest.fixture(scope="session")
def std_bundle(salt):
    """gamma = 0.1, phi_bd = 1 profiles used across the suite."""
    u = solve_u(salt, RobinData(0.1, 1.0))
    v = solve_v(u, salt, RobinData(0.1, 0.0))
    theta = solve_theta(u, salt, RobinData(0.1, 0.0))
    return {"u": u, "v": v, "theta": theta}


@pytest.fixture(scope="session")
def profile_matrix(salt):
    """The 12-configuration structural-law matrix."""
    out = {}
    for gamma in GAMMAS:
        for phi_bd in PHI_BDS:
            u = solve_u(salt, RobinData(gamma, phi_bd))
            v = solve_v(u, salt, RobinData(gamma, 0.0))
            out[(gamma, phi_bd)] = (u, v)
    return out


@pytest.fixture(scope="session")
def pb_disk_domain():
    return make_disk(1.0, RobinData(0.1, 1.0))


@pytest.fixture(scope="session")
def annulus_domain():
    return make_annulus(2, 1.0, 2.0, RobinData(0.1, 1.0), RobinData(0.1, -1.0))


@pytest.fixture(scope="session")
def annulus_constants(annulus_domain, msalt):
    return ccpb_constants(annulus_domain, msalt)


@pytest.fixture(scope="session")
def pb_disk_sweep(pb_disk_domain, salt):
    return {eps: solve_radial_robin_pb(pb_disk_domain, salt, eps) for eps in EPS_SWEEP}


@pytest.fixture(scope="session")
def ccpb_sweep(annulus_domain, msalt):
    return {eps: solve_radial_ccpb(annulus_domain, msalt, eps) for eps in EPS_SWEEP}
