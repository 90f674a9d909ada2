import numpy as np
import pytest

from pblayers.ccpb import ccpb_constants
from pblayers.geometry import make_annulus, make_disk
from pblayers.nonlinearity import make_classical_pb, symmetric_salt
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
