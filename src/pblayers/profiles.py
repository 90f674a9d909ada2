"""Half-line boundary-layer profiles.

Four profiles are solved on [0, infinity):

    u      the leading-order potential layer:  u'' + f(u) = 0,
           u(0) - gamma u'(0) = phi_bd,  u(inf) = phi*
    v      the curvature correction:  v'' + f'(u) v = u',  homogeneous Robin,
           v(inf) = 0
    theta  the auxiliary linear layer:  theta'' + f'(u) theta = f'(u),
           homogeneous Robin, theta(inf) = 1
    w      the conservation correction:  w'' + f0'(u) w = -f1(u),
           homogeneous Robin, w(inf) = Q

The u-profile conserves u'^2 + 2 F(u) = 0 exactly, which makes u monotone and
lets us parametrize the trajectory in potential space: the nodes of u are
chosen as offsets u - phi*, log-spaced from u(0) - phi* into the tail and
graded toward the boundary, and the time map t(x) = integral of
1/sqrt(-2F) from x to u(0) is summed at them by panel quadrature.  Nothing
is inverted; the first integral holds by construction at every node; u(0)
solves the Robin compatibility equation with the slope boundary_slope.  v
and w are evaluated from their closed-form variation-of-parameters
representations with all nested integrals reduced to Gauss quadratures over
the offsets u - phi* of the nodes of u (no tail truncation, no cancellation
from 1/u'^2 blow-up, no interpolation of u between nodes).  Beyond the last
node every profile decays at the known rate mu = sqrt(-f'(phi*)), u and
theta as exp(-mu t) and v and w as (a + b t) exp(-mu t), so each continues as
that two-term exponential through its last node's value and slope: no tail
fit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import (
    ConfigError,
    DegenerateTimeMap,
    DenominatorNearZero,
    GridTooCoarse,
    MismatchedReference,
    NegativeTime,
    RootBracketFailure,
)
from .nonlinearity import Nonlinearity, decay_rate, find_reference_potential
from .numerics import (
    GL5_PARTIAL,
    boundary_clustered_nodes,
    gauss_panels,
    hermite_eval,
    panel_integrals,
    second_difference,
    write_csv,
)

DEFAULT_NODES = 20001
MIN_NODES = 5  # fewest nodes solve_u and ode_residual accept
TMAX_CAP_FACTOR = 40.0  # m_f * t_max of the flat profile
TAIL_REL_THRESHOLD = 1e-12
BOUNDARY_RTOL = 1e-15  # Brent tolerance (xtol = rtol) of the Robin boundary value


@dataclass(frozen=True)
class RobinData:
    """Robin boundary data: value - gamma * derivative = phi_bd at t = 0."""

    gamma: float
    phi_bd: float

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and math.isfinite(self.phi_bd)):
            raise ConfigError("gamma and phi_bd must be finite")
        if self.gamma < 0:
            raise ConfigError("gamma must be >= 0 (0 is the Dirichlet limit)")


@dataclass(frozen=True)
class Tail:
    """Continuation of a profile beyond its last node t_max: with s = t - t_max,
    value = limit + (a + b s) exp(-rate s).

    The rate is the known mu = sqrt(-f'(phi*)) of u, and a, b match the value
    and slope of the last node (anchored), so the tail is C^1 at t_max.
    """

    limit: float
    rate: float
    a: float
    b: float

    @classmethod
    def anchored(cls, limit, rate, dev, slope) -> Tail:
        """The tail with value limit + dev and the given slope at s = 0."""
        return cls(float(limit), float(rate), float(dev), float(slope + rate * dev))

    def __call__(self, s):
        """(value, slope) at s = t - t_max >= 0."""
        decay = np.exp(-self.rate * s)
        ab = self.a + self.b * s
        return self.limit + ab * decay, (self.b - self.rate * ab) * decay


@dataclass(frozen=True)
class Profile:
    """Sampled profile with derivatives and an exponential tail model.

    The per-kind subclasses below add the layer's typed scalars; to_json_dict
    lists those named in json_keys under "meta" (None values are left out).
    """

    kind: str
    t: np.ndarray
    values: np.ndarray
    derivs: np.ndarray
    tail: Tail
    robin: RobinData

    json_keys = ()

    def __post_init__(self):
        for arr in (self.t, self.values, self.derivs):
            arr.setflags(write=False)

    @property
    def t_max(self) -> float:
        return float(self.t[-1])

    @property
    def flat(self) -> bool:
        """Whether the profile is constant (u(0) = phi*, so there is no layer)."""
        return not self.derivs.any()

    def __call__(self, t):
        return profile_eval(self, t)

    def to_csv(self, path):
        write_csv(path, "t,value,derivative", (self.t, self.values, self.derivs))

    def to_json_dict(self) -> dict:
        meta = {k: getattr(self, k) for k in self.json_keys}
        if self.flat:
            meta["degenerate"] = True
        return {
            "kind": self.kind,
            "robin": {"gamma": self.robin.gamma, "phi_bd": self.robin.phi_bd},
            "tail": asdict(self.tail),
            "t_max": self.t_max,
            "n_nodes": int(len(self.t)),
            "meta": {k: v for k, v in sorted(meta.items()) if v is not None},
        }


@dataclass(frozen=True)
class ULayer(Profile):
    """The u-profile; delta holds the offsets u - phi* (None when flat)."""

    u0: float
    m_f: float  # decay rate of f over the hull of phi* and phi_bd
    int_usq: float  # integral of u'^2 over [0, inf)
    delta: np.ndarray | None = None

    json_keys = ("phi_star", "u0", "mu", "m_f", "u0_prime", "int_usq")
    phi_star = property(lambda self: self.tail.limit)
    mu = property(lambda self: self.tail.rate)  # sqrt(-f'(phi*))
    u0_prime = property(lambda self: float(self.derivs[0]))


@dataclass(frozen=True)
class VLayer(Profile):
    """The v-profile; t_star is where |v| peaks."""

    v0: float
    t_star: float

    json_keys = ("v0", "v_prime0", "t_star")
    v_prime0 = property(lambda self: float(self.derivs[0]))


@dataclass(frozen=True)
class ThetaLayer(Profile):
    """The theta-profile; den = u'(0) + gamma f0(u(0)) (None when flat)."""

    den: float | None = None

    json_keys = ("theta_prime0", "den")
    theta_prime0 = property(lambda self: float(self.derivs[0]))


@dataclass(frozen=True)
class WLayer(Profile):
    """The w-profile for the drift constant q; limit is w(inf) (None when flat)."""

    w0: float
    q: float

    json_keys = ("w0", "w_prime0", "q", "limit")
    w_prime0 = property(lambda self: float(self.derivs[0]))
    limit = property(lambda self: None if self.flat else self.tail.limit)


def profile_eval(p: Profile, t):
    """Evaluate (value, derivative) at t >= 0.

    Cubic Hermite interpolation on the samples (exact at nodes); the tail
    model takes over beyond t_max.
    """
    scalar = np.isscalar(t) or getattr(t, "ndim", 0) == 0
    tq = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(tq < 0):
        raise NegativeTime("profiles are defined for t >= 0")
    val = np.empty(tq.shape)
    der = np.empty(tq.shape)
    inside = tq <= p.t[-1]
    if inside.any():
        v, d = hermite_eval(tq[inside], p.t, p.values, p.derivs)
        val[inside] = v
        der[inside] = d
    if (~inside).any():
        val[~inside], der[~inside] = p.tail(tq[~inside] - p.t[-1])
    if scalar:
        return float(val[0]), float(der[0])
    return val, der


# ---------------------------------------------------------------------------
# u-profile
# ---------------------------------------------------------------------------


def boundary_slope(f: Nonlinearity, phi_star: float, phi_bd: float, x: float) -> float:
    """u'(0) of the layer from phi_bd to phi* when u(0) = x: sqrt(-2 F(x)),
    signed toward phi*, and 0 when phi_bd = phi*."""
    if phi_bd == phi_star:
        return 0.0
    return math.copysign(math.sqrt(max(-2.0 * float(f.F(x)), 0.0)), phi_star - phi_bd)


def boundary_potential(f: Nonlinearity, robin: RobinData) -> float:
    """Boundary value u(0) from the Robin compatibility equation.

    Solves phi_bd - U0 + gamma * boundary_slope(U0) = 0 for U0 strictly
    between phi* and phi_bd (U0 = phi_bd in the Dirichlet limit).
    """
    phi_star = f.phi_star if f.phi_star is not None else find_reference_potential(f)
    phi_bd = robin.phi_bd
    if phi_bd == phi_star or robin.gamma == 0.0:
        return float(phi_bd)

    def g(x):
        return phi_bd - x + robin.gamma * boundary_slope(f, phi_star, phi_bd, x)

    lo, hi = (phi_star, phi_bd) if phi_bd > phi_star else (phi_bd, phi_star)
    glo, ghi = g(lo), g(hi)
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    if glo * ghi > 0:
        raise RootBracketFailure(
            f"no sign change for the boundary value on [{lo}, {hi}]"
        )
    # g is strictly decreasing between phi* and phi_bd
    return brentq(g, lo, hi, xtol=BOUNDARY_RTOL, rtol=BOUNDARY_RTOL)


def _from_delta(fn, phi_star, delta):
    """Evaluate fn at phi_star + delta, via the delta-native path when the
    evaluator provides one (exact for exponentially small offsets)."""
    fd = getattr(fn, "from_delta", None)
    if fd is not None:
        return np.asarray(fd(delta), dtype=float)
    return np.asarray(fn(phi_star + np.asarray(delta, dtype=float)), dtype=float)


def _speed_from_delta(f: Nonlinearity, phi_star: float):
    def speed(delta):
        return np.sqrt(np.maximum(-2.0 * _from_delta(f.F, phi_star, delta), 0.0))

    return speed


def _panel_quadrature(f: Nonlinearity, phi_star: float, delta: np.ndarray):
    """Gauss points x and weights |wq| of shape (n - 1, 5) on the offset panels
    [delta_{j+1}, delta_j] between consecutive nodes, and the layer speed |u'|
    at x.  Since dt = |d delta| / speed, a t-integral of g over a panel is the
    sum of wq g / speed."""
    x, wq = gauss_panels(delta[1:], delta[:-1])
    speed = _speed_from_delta(f, phi_star)(x.ravel()).reshape(x.shape)
    return x, np.abs(wq), speed


def _cumulative(wq: np.ndarray, integrand: np.ndarray) -> np.ndarray:
    """Integral from node 0 to every node, from integrand values at the Gauss
    points of each panel."""
    out = np.zeros(len(wq) + 1)
    np.cumsum(np.sum(integrand * wq, axis=1), out=out[1:])
    return out


def _node_energy(f: Nonlinearity, phi_star: float, delta, wq, speed) -> np.ndarray:
    """I(t) = integral of u'^2 from t to infinity at the nodes: |integral of
    the speed from offset 0 to delta(t)|, as suffix sums of the panel
    integrals plus one panel beyond the last node."""
    out = np.empty(len(delta))
    out[-1] = abs(panel_integrals(_speed_from_delta(f, phi_star), [0.0], delta[-1:])[0])
    out[:-1] = out[-1] + np.cumsum(np.sum(speed * wq, axis=1)[::-1])[::-1]
    return out


def _constant_profile(cls, kind, level, t_max, n_nodes, robin, rate, **fields):
    return cls(
        kind=kind,
        t=np.linspace(0.0, t_max, n_nodes),
        values=np.full(n_nodes, float(level)),
        derivs=np.zeros(n_nodes),
        tail=Tail(float(level), rate, 0.0, 0.0),
        robin=robin,
        **fields,
    )


def solve_u(f: Nonlinearity, robin: RobinData, n_nodes: int = DEFAULT_NODES) -> ULayer:
    """Solve the leading-order layer profile.

    The trajectory satisfies u'(t) = sgn(phi* - phi_bd) sqrt(-2 F(u)) exactly,
    so the n_nodes nodes are chosen in potential space, as offsets
    u - phi* from u(0) - phi* down to TAIL_REL_THRESHOLD of it, and each node
    gets its t from the time map; the first-integral identity
    u'^2 + 2F(u) = 0 holds at every node by construction.
    """
    if n_nodes < MIN_NODES:
        raise GridTooCoarse(f"n_nodes = {n_nodes}: a profile needs at least {MIN_NODES} nodes")
    if not f.monotone:
        raise ConfigError("u-profile requires a monotone charge density")
    phi_star = f.phi_star if f.phi_star is not None else find_reference_potential(f)
    u0 = boundary_potential(f, robin)
    hull = (min(phi_star, robin.phi_bd), max(phi_star, robin.phi_bd))
    mu = math.sqrt(-float(f.df(phi_star)))
    m_f = decay_rate(f, hull) if hull[0] < hull[1] else mu
    delta0 = u0 - phi_star
    if delta0 == 0.0 or abs(delta0) <= 1e-14 * max(1.0, abs(phi_star)):
        return _constant_profile(
            ULayer, "u", phi_star, TMAX_CAP_FACTOR / m_f, n_nodes, robin, mu,
            u0=u0, m_f=m_f, int_usq=0.0,
        )

    sgn_du = 1.0 if phi_star > u0 else -1.0  # sign of u'
    # nodes in potential space: offsets delta = u - phi* log-spaced from
    # delta0 down to the tail threshold, graded toward the boundary; t by
    # panel quadrature of dt = |d delta| / speed; everything runs on the
    # offset so that the exponentially small tail keeps full relative accuracy
    decades = -math.log10(TAIL_REL_THRESHOLD)
    delta = delta0 * 10.0 ** -boundary_clustered_nodes(n_nodes, decades)
    _, wq, speed = _panel_quadrature(f, phi_star, delta)
    t = _cumulative(wq, 1.0 / speed)
    int_usq = float(_node_energy(f, phi_star, delta, wq, speed)[0])
    du = sgn_du * _speed_from_delta(f, phi_star)(delta)
    # an F of the wrong sign, or one that cancels to 0 near phi*, gives a
    # speed of 0 (or NaN) at some offset and an infinite or NaN time map
    if not (math.isfinite(t[-1]) and np.all(np.diff(t) > 0) and np.all(np.abs(du) > 0)):
        raise DegenerateTimeMap(
            "the time map of u is not finite and strictly increasing with u' != 0 at "
            "every node: F must be negative away from phi* and accurate near it"
        )

    delta.setflags(write=False)
    return ULayer(
        kind="u", t=t, values=phi_star + delta, derivs=du,
        tail=Tail.anchored(phi_star, mu, delta[-1], du[-1]), robin=robin,
        u0=u0, m_f=m_f, int_usq=int_usq, delta=delta,
    )


# ---------------------------------------------------------------------------
# linear corrections: potential-space quadrature on the nodes of u
# ---------------------------------------------------------------------------


def _energy(u: ULayer, f: Nonlinearity, wq: np.ndarray, speed: np.ndarray):
    """I(t) = integral of u'^2 from t to infinity = |integral of speed from
    offset 0 to delta(t)|, at the nodes (suffix sums of the panel integrals)
    and at the Gauss points (partial integrals of the degree-6 interpolant
    through the two node speeds |u'| and the five Gauss speeds of a panel)."""
    d = u.delta
    nodes = _node_energy(f, u.phi_star, d, wq, speed)
    node_speed = np.abs(u.derivs)
    y = np.column_stack((node_speed[1:], speed, node_speed[:-1]))
    gauss = nodes[1:, None] + 0.5 * np.abs(d[:-1] - d[1:])[:, None] * (y @ GL5_PARTIAL.T)
    return nodes, gauss


def _denominator(u: ULayer, f: Nonlinearity, gamma: float) -> float:
    d = u.u0_prime + gamma * float(f.f(u.u0))
    if abs(d) <= 1e-300:
        raise DenominatorNearZero("u'(0) + gamma f(u(0)) vanished")
    return d


def solve_v(u: ULayer, f: Nonlinearity, robin: RobinData) -> VLayer:
    """Curvature-correction profile from its variation-of-parameters form
    v = u' (v(0)/u'(0) - A), A(t) = integral of I/u'^2 from 0 to t, summed in
    potential space as the integral of I/speed^3 over the offset."""
    if u.flat:
        # t_star = 0 is where the argmax rule below puts it for v = 0
        return _constant_profile(
            VLayer, "v", 0.0, u.t_max, len(u.t), robin, u.mu, v0=0.0, t_star=0.0,
        )
    den = _denominator(u, f, robin.gamma)
    _, wq, speed = _panel_quadrature(f, u.phi_star, u.delta)
    energy, energy_gauss = _energy(u, f, wq, speed)
    v0 = -robin.gamma / den * energy[0]
    c = v0 / u.u0_prime - _cumulative(wq, energy_gauss / speed**3)
    v = u.derivs * c
    dv = -_from_delta(f.f, u.phi_star, u.delta) * c - energy / u.derivs
    dv[0] = -energy[0] / den
    # extremum location by parabolic refinement of the grid argmax
    j = int(np.argmax(np.abs(v)))
    if 0 < j < len(v) - 1:
        c2, c1, _ = np.polyfit(u.t[j - 1 : j + 2] - u.t[j], v[j - 1 : j + 2], 2)
        t_star = u.t[j] - c1 / (2.0 * c2) if c2 != 0 else u.t[j]
    else:
        t_star = u.t[j]
    return VLayer(
        kind="v", t=u.t, values=v, derivs=dv, tail=Tail.anchored(0.0, u.mu, v[-1], dv[-1]),
        robin=robin, v0=v0, t_star=float(t_star),
    )


def solve_theta(u: ULayer, f0: Nonlinearity, robin: RobinData) -> ThetaLayer:
    """Auxiliary linear layer theta = 1 - u' / (u'(0) + gamma f0(u(0)))."""
    if u.flat:
        return _constant_profile(ThetaLayer, "theta", 1.0, u.t_max, len(u.t), robin, u.mu)
    den = _denominator(u, f0, robin.gamma)
    theta = 1.0 - u.derivs / den
    dtheta = _from_delta(f0.f, u.phi_star, u.delta) / den
    return ThetaLayer(
        kind="theta", t=u.t, values=theta, derivs=dtheta,
        tail=Tail.anchored(1.0, u.mu, -u.derivs[-1] / den, dtheta[-1]),
        robin=robin, den=den,
    )


def solve_w(
    u: ULayer,
    f0: Nonlinearity,
    f1: Nonlinearity,
    q: float,
    robin: RobinData,
) -> WLayer:
    """Conservation-correction profile from its variation-of-parameters form
    w = u' (w(0)/u'(0) + B), B(t) = integral of -F1(u)/u'^2 from 0 to t,
    summed in potential space as solve_v sums A.

    The forcing enters through the antiderivative of f1 anchored at the bulk
    potential: Q f0(u) - Fhat1(u) = -F1(u).
    """
    if f1.provenance != "f1":
        raise MismatchedReference("solve_w needs the combined first-order density")
    if f1.q is None or abs(f1.q - q) > 1e-12 * max(1.0, abs(q)):
        raise MismatchedReference("f1 was not built with this drift constant")
    if u.flat:
        return _constant_profile(WLayer, "w", q, u.t_max, len(u.t), robin, u.mu, w0=q, q=q)
    limit = -float(f1.f(u.phi_star)) / float(f0.df(u.phi_star))
    den = _denominator(u, f0, robin.gamma)
    x, wq, speed = _panel_quadrature(f0, u.phi_star, u.delta)
    neg_F1 = -_from_delta(f1.F, u.phi_star, u.delta)
    neg_F1_gauss = -_from_delta(f1.F, u.phi_star, x.ravel()).reshape(x.shape)
    w0 = robin.gamma * neg_F1[0] / den
    c = w0 / u.u0_prime + _cumulative(wq, neg_F1_gauss / speed**3)
    w = u.derivs * c
    dw = -_from_delta(f0.f, u.phi_star, u.delta) * c + neg_F1 / u.derivs
    dw[0] = neg_F1[0] / den
    return WLayer(
        kind="w", t=u.t, values=w, derivs=dw,
        tail=Tail.anchored(limit, u.mu, w[-1] - limit, dw[-1]),
        robin=robin, w0=float(w0), q=float(q),
    )


# ---------------------------------------------------------------------------
# residual diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EquationSpec:
    """Descriptor of the half-line equation a profile is expected to solve.

    kind 'u' needs f; 'v' and 'theta' need f and the background u; 'w' needs
    f (the limiting density), f1 and the background u.
    """

    kind: str
    f: Nonlinearity
    u: Profile | None = None
    f1: Nonlinearity | None = None


def ode_residual(p: Profile, eq: EquationSpec) -> float:
    """Max |y'' - rhs| over interior nodes by nonuniform second differences."""
    if len(p.t) < MIN_NODES:
        raise GridTooCoarse(f"need at least {MIN_NODES} nodes for the residual")
    d2 = second_difference(p.t, p.values)
    y = p.values[1:-1]
    if eq.kind == "u":
        rhs = -np.asarray(eq.f.f(y), dtype=float)
    else:
        if eq.u is None:
            raise ConfigError("background u profile required")
        ub, dub = profile_eval(eq.u, p.t[1:-1])
        dfu = np.asarray(eq.f.df(ub), dtype=float)
        if eq.kind == "v":
            rhs = dub - dfu * y
        elif eq.kind == "theta":
            rhs = dfu * (1.0 - y)
        elif eq.kind == "w":
            if eq.f1 is None:
                raise ConfigError("w residual requires f1")
            rhs = -dfu * y - np.asarray(eq.f1.f(ub), dtype=float)
        else:
            raise ConfigError(f"unknown equation kind {eq.kind!r}")
    return float(np.max(np.abs(d2 - rhs)))


def first_integral_drift(u: ULayer, f: Nonlinearity) -> float:
    """max_t |u'^2 + 2F(u)|, the conserved-quantity drift."""
    return float(np.max(np.abs(u.derivs**2 + 2.0 * np.asarray(f.F(u.values), dtype=float))))


def time_integral_usq(u: ULayer) -> float:
    """Integral of u'^2 over [0, inf) by time-space panel quadrature plus the
    pure-exponential tail u'(t_max)^2 / (2 mu); cross-checks the
    potential-space value u.int_usq."""
    t = u.t
    xg, wg = gauss_panels(t[:-1], t[1:])
    _, dug = hermite_eval(xg.ravel(), t, u.values, u.derivs)
    body = float(np.sum(dug.reshape(xg.shape) ** 2 * wg))
    return body + float(u.derivs[-1]) ** 2 / (2.0 * u.mu)
