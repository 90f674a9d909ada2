import numpy as np
import pytest

from pblayers.ccpb import ccpb_constants
from pblayers.geometry import make_annulus, make_disk
from pblayers.nonlinearity import Nonlinearity, make_classical_pb, symmetric_salt
from pblayers.numerics import GL5_PARTIAL, gauss_panels
from pblayers.profiles import (
    LayerBundle,
    RobinData,
    _from_delta,
    _speed,
    solve_theta,
    solve_u,
    solve_v,
)
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
        f=f1, df=df1, F=F1, phi_star=f0.phi_star, provenance="f1", q=float(q),
    )


@pytest.fixture(scope="session")
def closure_f1():
    return _closure_f1


# The Gauss-point sweeps of solve_u and solve_w over all panels at once: the
# reference the sweep of solve_u matches bit for bit, and the quadrature the
# closed form of solve_w is checked against.


def panel_quadrature(f, phi_star, delta):
    """Gauss points x and weights |wq| of shape (n - 1, 5) on the offset panels
    [delta_{j+1}, delta_j] between consecutive nodes, and the layer speed |u'|
    at x."""
    x, wq = gauss_panels(delta[1:], delta[:-1])
    speed = _speed(f, phi_star, x.ravel()).reshape(x.shape)
    return x, np.abs(wq), speed


def cumulative(wq, integrand):
    """Integral from node 0 to every node, from integrand values at the Gauss
    points of each panel."""
    out = np.zeros(len(wq) + 1)
    np.cumsum(np.sum(integrand * wq, axis=1), out=out[1:])
    return out


def energy(f, phi_star, delta, node_speed, wq, speed):
    """I(t) = integral of u'^2 from t to infinity at the nodes (suffix sums of
    the panel integrals plus one panel beyond the last node) and at the Gauss
    points (partial integrals of the degree-6 interpolant through the two node
    speeds and the five Gauss speeds of a panel)."""
    nodes = np.empty(len(delta))
    x, w = gauss_panels([0.0], delta[-1:])
    nodes[-1] = abs(np.sum(_speed(f, phi_star, x.ravel()).reshape(x.shape) * w))
    nodes[:-1] = nodes[-1] + np.cumsum(np.sum(speed * wq, axis=1)[::-1])[::-1]
    y = np.column_stack((node_speed[1:], speed, node_speed[:-1]))
    half = 0.5 * np.abs(delta[:-1] - delta[1:])
    gauss = nodes[1:, None] + half[:, None] * (y @ GL5_PARTIAL.T)
    return nodes, gauss


def whole_array_u(u):
    """(t, u', I, A) at the offsets u.delta of the nodes of u."""
    f = u.density
    _, wq, speed = panel_quadrature(f, u.phi_star, u.delta)
    node_speed = _speed(f, u.phi_star, u.delta)
    nodes, gauss = energy(f, u.phi_star, u.delta, node_speed, wq, speed)
    sgn_du = 1.0 if u.phi_star > u.u0 else -1.0
    return cumulative(wq, 1.0 / speed), sgn_du * node_speed, nodes, cumulative(wq, gauss / speed**3)


def whole_array_w(u, f1):
    """(w, w') on the nodes of u from w = u' (w(0)/u'(0) + B), with
    B = integral of -F1/u'^2 summed at the Gauss points of every panel, as
    solve_w did before its closed form.  In the tail it loses what the
    rounding of u' costs the growing B; for two species it holds to 1e-13."""
    f0 = u.density
    x, wq, speed = panel_quadrature(f0, u.phi_star, u.delta)
    neg_F1 = -_from_delta(f1.F, u.phi_star, u.delta)
    neg_F1_gauss = -_from_delta(f1.F, u.phi_star, x.ravel()).reshape(x.shape)
    den = u.u0_prime + u.robin.gamma * float(f0.f(u.u0))
    w0 = u.robin.gamma * neg_F1[0] / den
    c = w0 / u.u0_prime + cumulative(wq, neg_F1_gauss / speed**3)
    dw = -_from_delta(f0.f, u.phi_star, u.delta) * c + neg_F1 / u.derivs
    dw[0] = neg_F1[0] / den
    return u.derivs * c, dw


def quadrature_excess(u, zs, panels=2000):
    """Half-line integrals of 1 - exp(-z (u - phi0*)) per valence z, as
    ccpb.layer_excess_integrals summed them before its closed form: Gauss
    panels on [u(0) - phi0*, 0] in potential space, weighted by 1/|u'|."""
    if u.flat:
        return [0.0 for _ in zs]
    phi0_star = u.phi_star
    delta0 = u.u0 - phi0_star
    x = np.linspace(min(0.0, delta0), max(0.0, delta0), panels + 1)
    xg, wg = gauss_panels(x[:-1], x[1:])
    speed = _speed(u.density, phi0_star, xg.ravel()).reshape(xg.shape)
    return [float(np.sum(-np.expm1(-z * xg) / speed * wg)) for z in zs]


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
    return LayerBundle(u, solve_v(u), solve_theta(u))


@pytest.fixture(scope="session")
def profile_matrix(salt):
    """The 12-configuration structural-law matrix."""
    out = {}
    for gamma in GAMMAS:
        for phi_bd in PHI_BDS:
            u = solve_u(salt, RobinData(gamma, phi_bd))
            out[(gamma, phi_bd)] = (u, solve_v(u))
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
