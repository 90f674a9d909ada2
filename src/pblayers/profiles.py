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
comes from its variation-of-parameters form, with its nested integrals
reduced to Gauss quadratures over the offsets u - phi* of the nodes of u (no
tail truncation, no interpolation of u between nodes): the energy
I(t) = integral of u'^2 from t to infinity and A(t) = integral of I/u'^2
from 0 to t come from the Gauss speeds of u, so solve_u keeps them on the
ULayer and solve_v is arithmetic at the nodes.  w is in closed form: on the
terms of f0 its forcing splits into multiples of f0 and F0, whose integrals
along u follow from u'' = -f0(u) and u'^2 = -2 F0(u), and a remainder
O((u - phi*)^3) that only salts of three or more species have and that one
more such sweep integrates.  So w = limit + u' s with s growing at most
linearly: its limit is added, not recovered from u' times an integral that
grows as 1/u'.  Beyond the last node every profile decays
at the known rate mu = sqrt(-f'(phi*)), u and theta as exp(-mu t) and v and
w as (a + b t) exp(-mu t), so each continues as that two-term exponential
through its last node's value and slope: no tail fit.  Each solver also sets
y'' at its nodes from its own equation (u'' = -f(u), v'' = u' - f'(u) v,
theta'' = f0'(u)(1 - theta), w'' = -f0'(u) w - f1(u)), and between nodes a
profile is the quintic Hermite interpolant through value, slope and y''.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import (
    ConfigError,
    DegenerateDenominator,
    DegenerateTimeMap,
    GridTooCoarse,
    MismatchedReference,
    ModelProfileMismatch,
    NegativeTime,
)
from .nonlinearity import _ExpSum, _Expm1Sum, Nonlinearity, decay_rate
from .numerics import (
    GL5_PARTIAL,
    boundary_clustered_nodes,
    brent_root,
    gauss_panels,
    hermite_eval,
    is_scalar,
    write_csv,
)

DEFAULT_NODES = 4001
MIN_NODES = 5  # fewest nodes solve_u and ode_residual accept
TMAX_CAP_FACTOR = 40.0  # m_f * t_max of the flat profile
TAIL_REL_THRESHOLD = 1e-12
BOUNDARY_RTOL = 1e-15  # Brent tolerance (xtol = rtol) of the Robin boundary value
W_LIMIT_RTOL = 1e-9  # solve_w rejects an f1 whose w(inf) is off f1.q by more, times max(1, |q|)


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
    """Sampled profile with first and second derivatives and an exponential
    tail model.

    second_derivs holds y'' at the nodes, which each solver takes from the
    profile's own equation; between nodes profile_eval evaluates the quintic
    Hermite interpolant through value, slope and y''.  The per-kind
    subclasses below add the layer's typed scalars; to_json_dict lists those
    named in json_keys under "meta" (None values are left out).
    """

    kind: str
    t: np.ndarray
    values: np.ndarray
    derivs: np.ndarray
    second_derivs: np.ndarray
    tail: Tail
    robin: RobinData

    json_keys = ()

    def __post_init__(self):
        for field in fields(self):
            arr = getattr(self, field.name)
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)

    @property
    def t_max(self) -> float:
        return float(self.t[-1])

    @property
    def flat(self) -> bool:
        """Whether the profile is constant (u(0) = phi*, so there is no layer)."""
        return not self.derivs.any()

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
    """The u-profile and the density it was solved with.  At its nodes, None
    when flat: delta, the offsets u - phi*; energy, I(t) = integral of u'^2
    from t to infinity; and energy_integral, A(t) = integral of I/u'^2 from 0
    to t, which solve_v reads."""

    u0: float
    m_f: float  # decay rate of f over the hull of phi* and phi_bd
    density: Nonlinearity = field(compare=False, repr=False)
    delta: np.ndarray | None = None
    energy: np.ndarray | None = None
    energy_integral: np.ndarray | None = None

    json_keys = ("phi_star", "u0", "mu", "m_f", "u0_prime", "int_usq")
    phi_star = property(lambda self: self.tail.limit)
    mu = property(lambda self: self.tail.rate)  # sqrt(-f'(phi*))
    u0_prime = property(lambda self: float(self.derivs[0]))
    # integral of u'^2 over [0, inf)
    int_usq = property(lambda self: 0.0 if self.energy is None else float(self.energy[0]))


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


@dataclass(frozen=True)
class LayerBundle:
    """The profiles of one boundary, u + sqrt(eps)[(d-1) H v + w] in Region I.
    The conserved-charge model has w and the f1 it was solved with, classical
    PB neither: ModelProfileMismatch unless both or neither are given."""

    u: ULayer
    v: VLayer
    theta: ThetaLayer | None = None
    w: WLayer | None = None
    f1: Nonlinearity | None = None

    def __post_init__(self):
        if (self.w is None) != (self.f1 is None):
            raise ModelProfileMismatch("a layer bundle takes w and f1 together or neither")

    model = property(lambda self: "pb" if self.w is None else "ccpb")  # its name in JSON

    def layers(self) -> tuple[Profile, ...]:
        """The profiles present, in the order u, v, theta, w."""
        return tuple(p for p in (self.u, self.v, self.theta, self.w) if p is not None)


def profile_eval(p: Profile, t):
    """Evaluate (value, derivative) at t, a depth or an array of depths.

    Quintic Hermite interpolation on the values, slopes and second
    derivatives at the nodes; the tail model takes over beyond t_max.
    Raises NegativeTime unless every depth is finite and >= 0: a NaN or
    infinite depth has no value.
    """
    scalar = is_scalar(t)
    tq = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all((tq >= 0) & (tq < math.inf)):
        raise NegativeTime("profiles are defined for finite t >= 0")
    val = np.empty(tq.shape)
    der = np.empty(tq.shape)
    inside = tq <= p.t[-1]
    if inside.any():
        v, d = hermite_eval(tq[inside], p.t, p.values, p.derivs, p.second_derivs)
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
    phi_star = f.phi_star
    phi_bd = robin.phi_bd
    if phi_bd == phi_star or robin.gamma == 0.0:
        return float(phi_bd)

    def g(x):
        return phi_bd - x + robin.gamma * boundary_slope(f, phi_star, phi_bd, x)

    lo, hi = (phi_star, phi_bd) if phi_bd > phi_star else (phi_bd, phi_star)
    # g is strictly decreasing between phi* and phi_bd
    return brent_root(g, lo, hi, BOUNDARY_RTOL, BOUNDARY_RTOL, "the boundary-value equation")


def _from_delta(fn, phi_star, delta):
    """Evaluate fn at phi_star + delta, via the delta-native path when the
    evaluator provides one (exact for exponentially small offsets)."""
    fd = getattr(fn, "from_delta", None)
    if fd is not None:
        return np.asarray(fd(delta), dtype=float)
    return np.asarray(fn(phi_star + np.asarray(delta, dtype=float)), dtype=float)


def _speed(f: Nonlinearity, phi_star: float, delta):
    """The layer speed sqrt(-2 F) at the offsets delta = u - phi*."""
    return np.sqrt(np.maximum(-2.0 * _from_delta(f.F, phi_star, delta), 0.0))


def _gauss_speeds(f: Nonlinearity, phi_star: float, delta: np.ndarray):
    """(x, |wq|, speed) on the n offset panels of the nodes delta: the Gauss
    points x and weights |wq| of shape (n, 5) and the layer speed |u'| at x.
    Panel j < n - 1 is [delta_{j+1}, delta_j], between nodes j and j + 1;
    the last is the tail panel [0, delta_{n-1}] beyond the last node.  Since
    dt = |d delta| / speed, a t-integral of g over a panel is the sum of
    wq g / speed."""
    x, wq = gauss_panels(np.append(delta[1:], 0.0), delta)
    return x, np.abs(wq), _speed(f, phi_star, x.ravel()).reshape(x.shape)


def _constant_profile(cls, kind, level, t_max, n_nodes, robin, rate, **fields):
    return cls(
        kind=kind,
        t=np.linspace(0.0, t_max, n_nodes),
        values=np.full(n_nodes, float(level)),
        derivs=np.zeros(n_nodes),
        second_derivs=np.zeros(n_nodes),
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
    u'^2 + 2F(u) = 0 holds at every node by construction.  One sweep over
    the Gauss points of all panels sums the time map, the energy I and the
    A of solve_v.
    """
    if n_nodes < MIN_NODES:
        raise GridTooCoarse(f"n_nodes = {n_nodes}: a profile needs at least {MIN_NODES} nodes")
    if not f.monotone:
        raise ConfigError("u-profile requires a monotone charge density")
    phi_star = f.phi_star
    u0 = boundary_potential(f, robin)
    hull = (min(phi_star, robin.phi_bd), max(phi_star, robin.phi_bd))
    mu = math.sqrt(-float(f.df(phi_star)))
    m_f = decay_rate(f, hull) if hull[0] < hull[1] else mu
    delta0 = u0 - phi_star
    if delta0 == 0.0 or abs(delta0) <= 1e-14 * max(1.0, abs(phi_star)):
        return _constant_profile(
            ULayer, "u", phi_star, TMAX_CAP_FACTOR / m_f, n_nodes, robin, mu, u0=u0, m_f=m_f,
            density=f,
        )

    sgn_du = 1.0 if phi_star > u0 else -1.0  # sign of u'
    # nodes in potential space: offsets delta = u - phi* log-spaced from
    # delta0 down to the tail threshold, graded toward the boundary; t by
    # panel quadrature of dt = |d delta| / speed; everything runs on the
    # offset so that the exponentially small tail keeps full relative accuracy
    decades = -math.log10(TAIL_REL_THRESHOLD)
    delta = delta0 * 10.0 ** -boundary_clustered_nodes(n_nodes, decades)
    node_speed = _speed(f, phi_star, delta)
    du = sgn_du * node_speed
    # panel j (nodes j and j + 1) puts its integrals of 1/speed and
    # I/speed^3 into entry j + 1 of t and A, which are then summed from
    # node 0; I at node j is the suffix sum of the integrals of the speed
    # over the panels from j on, the tail panel included.  I at the Gauss
    # points comes from the degree-6 interpolant through the two node speeds
    # and the five Gauss speeds of the panel
    _, wq, speed = _gauss_speeds(f, phi_star, delta)
    sums = np.sum(speed * wq, axis=1)
    energy = np.empty(n_nodes)
    energy[-1] = sums[-1]
    energy[:-1] = sums[-1] + np.cumsum(sums[-2::-1])[::-1]
    wq, speed = wq[:-1], speed[:-1]  # the panels between nodes
    t = np.zeros(n_nodes)
    t[1:] = np.sum(1.0 / speed * wq, axis=1)
    y = np.column_stack((node_speed[1:], speed, node_speed[:-1]))
    half = 0.5 * np.abs(delta[:-1] - delta[1:])
    energy_gauss = energy[1:, None] + half[:, None] * (y @ GL5_PARTIAL.T)
    energy_integral = np.zeros(n_nodes)
    energy_integral[1:] = np.sum(energy_gauss / speed**3 * wq, axis=1)
    np.cumsum(t[1:], out=t[1:])
    np.cumsum(energy_integral[1:], out=energy_integral[1:])
    # an F of the wrong sign, or one that cancels to 0 near phi*, gives a
    # speed of 0 (or NaN) at some offset and an infinite or NaN time map
    if not (math.isfinite(t[-1]) and np.all(np.diff(t) > 0) and np.all(np.abs(du) > 0)):
        raise DegenerateTimeMap(
            "the time map of u is not finite and strictly increasing with u' != 0 at "
            "every node: F must be negative away from phi* and accurate near it"
        )

    return ULayer(
        kind="u", t=t, values=phi_star + delta, derivs=du,
        second_derivs=-_from_delta(f.f, phi_star, delta),  # u'' = -f(u)
        tail=Tail.anchored(phi_star, mu, delta[-1], du[-1]), robin=robin,
        u0=u0, m_f=m_f, delta=delta, energy=energy, energy_integral=energy_integral,
        density=f,
    )


# ---------------------------------------------------------------------------
# linear corrections: potential-space quadrature on the nodes of u
# ---------------------------------------------------------------------------


def _denominator(u: ULayer) -> float:
    """u'(0) + gamma f(u(0)), with u's own gamma and density."""
    d = u.u0_prime + u.robin.gamma * float(u.density.f(u.u0))
    if abs(d) <= 1e-300:
        raise DegenerateDenominator("u'(0) + gamma f(u(0)) vanished")
    return d


@dataclass(frozen=True)
class _F0Terms:
    """The terms e_i(delta) = expm1(b_i delta), delta = phi - phi*, of an
    exp-sum f0 = sum_i a0_i e_i (sum_i a0_i = 0), whose antiderivative is
    F0 = sum_i (a0_i/b_i) e_i.

    A sum G = sum_i g_i e_i splits as G = alpha f0 + beta F0 + n with
    alpha = G'(0)/f0'(phi*), beta = (G''(0) - alpha f0''(phi*))/f0'(phi*) and
    a remainder n = sum_j gamma_j n_j = O(delta^3) on the basis
    n_j = sum_i basis_ij e_i, where the columns of basis span the vectors rho
    with sum_i rho_i b_i = sum_i rho_i b_i^2 = 0: k - 2 of them for k species,
    none for two.  Along the layer u solved with f0, the integrals of f0 and
    F0 are closed forms (u'' = -f0(u), u'^2 = -2 F0(u)); only n needs a
    quadrature, and its integrands n/|u'| and n/|u'|^3 are bounded.
    """

    b: np.ndarray
    a0: np.ndarray
    df0: float  # f0'(phi*)
    d2f0: float  # f0''(phi*)
    basis: np.ndarray  # (k, k - 2)
    n: _Expm1Sum  # the n_j: sum_i basis_ij e_i less its orders 1 and 2

    @classmethod
    def of(cls, f0: Nonlinearity) -> _F0Terms:
        """The terms of f0; MismatchedReference unless it is an exp sum
        referenced at its phi*."""
        if not (isinstance(f0.f, _ExpSum) and f0.f.ref == f0.phi_star):
            raise MismatchedReference("f0 must be an exp sum referenced at its phi*")
        b = f0.f.b
        basis = np.linalg.svd(np.vstack((b, b * b)))[2][2:].T
        return cls(
            b=b, a0=f0.f.a, df0=float(f0.df(f0.phi_star)),
            d2f0=float(f0.df.derivative()(f0.phi_star)), basis=basis,
            n=_Expm1Sum(b, basis, 3, f0.phi_star),
        )

    def split(self, g, slope, curvature):
        """(alpha, beta, gamma) of G = sum_i g_i e_i given G'(0) = slope and
        G''(0) = curvature; g of shape (k,) or (k, m) with m slopes."""
        alpha = slope / self.df0
        beta = (curvature - alpha * self.d2f0) / self.df0
        rest = g - np.multiply.outer(self.a0, alpha) - np.multiply.outer(self.a0 / self.b, beta)
        return alpha, beta, self.basis.T @ rest

    def remainder_integrals(self, u: ULayer):
        """(R, T) along u: R[:, j], the integral of n_j/u'^2 from 0 to each
        node, and T_j, the integral of n_j over [0, inf), from one sweep over
        the Gauss points of the panels of u and the panel from its last
        offset to 0; no sweep for two species."""
        R = np.zeros((len(u.t), self.basis.shape[1]))
        if not self.basis.size:
            return R, np.zeros(0)
        x, wq, speed = _gauss_speeds(u.density, u.phi_star, u.delta)
        n = self.n.from_delta(x)
        total = wq[-1] / speed[-1] @ n[-1]  # the tail panel, then the body
        wq, speed, n = wq[:-1], speed[:-1], n[:-1]
        R[1:] = np.einsum("pg,pgj->pj", wq / (speed * speed * speed), n)
        total += np.einsum("pg,pgj->j", wq / speed, n)
        np.cumsum(R[1:], axis=0, out=R[1:])
        return R, total


def solve_v(u: ULayer) -> VLayer:
    """Curvature-correction profile from its variation-of-parameters form
    v = u' (v(0)/u'(0) - A), with I and A = integral of I/u'^2 from 0 to t
    and f(u) = -u'' read from u, on u's density and gamma."""
    robin = RobinData(u.robin.gamma, 0.0)
    if u.flat:
        # t_star = 0 is where the argmax rule below puts it for v = 0
        return _constant_profile(
            VLayer, "v", 0.0, u.t_max, len(u.t), robin, u.mu, v0=0.0, t_star=0.0,
        )
    den = _denominator(u)
    energy = u.energy
    v0 = -robin.gamma / den * energy[0]
    c = v0 / u.u0_prime - u.energy_integral
    v = u.derivs * c
    dv = u.second_derivs * c - energy / u.derivs
    dv[0] = -energy[0] / den
    d2v = u.derivs - np.asarray(u.density.df(u.values), dtype=float) * v  # v'' = u' - f'(u) v
    # extremum location by parabolic refinement of the grid argmax
    j = int(np.argmax(np.abs(v)))
    if 0 < j < len(v) - 1:
        c2, c1, _ = np.polyfit(u.t[j - 1 : j + 2] - u.t[j], v[j - 1 : j + 2], 2)
        t_star = u.t[j] - c1 / (2.0 * c2) if c2 != 0 else u.t[j]
    else:
        t_star = u.t[j]
    return VLayer(
        kind="v", t=u.t, values=v, derivs=dv, second_derivs=d2v,
        tail=Tail.anchored(0.0, u.mu, v[-1], dv[-1]), robin=robin, v0=v0, t_star=float(t_star),
    )


def solve_theta(u: ULayer) -> ThetaLayer:
    """Auxiliary linear layer theta = 1 - u' / (u'(0) + gamma f0(u(0))), with
    f0 and gamma those of u, theta' = f0(u)/den = -u''/den and
    theta'' = f0'(u)(1 - theta) = f0'(u) u'/den."""
    robin = RobinData(u.robin.gamma, 0.0)
    if u.flat:
        return _constant_profile(ThetaLayer, "theta", 1.0, u.t_max, len(u.t), robin, u.mu)
    den = _denominator(u)
    theta = 1.0 - u.derivs / den
    dtheta = -u.second_derivs / den
    d2theta = np.asarray(u.density.df(u.values), dtype=float) * u.derivs / den
    return ThetaLayer(
        kind="theta", t=u.t, values=theta, derivs=dtheta, second_derivs=d2theta,
        tail=Tail.anchored(1.0, u.mu, -u.derivs[-1] / den, dtheta[-1]),
        robin=robin, den=den,
    )


def solve_w(u: ULayer, f1: Nonlinearity) -> WLayer:
    """Conservation-correction profile in closed form on the nodes of u, for
    the density f0 and gamma of u and the drift constant q of f1.

    The forcing enters through the antiderivative of f1 anchored at the bulk
    potential, -F1(u) = Q f0(u) - Fhat1(u), and on the terms of f0 it splits
    as -F1 = alpha f0 + beta F0 + n (see _F0Terms).  Along u,
    d(1/u')/dt = f0(u)/u'^2 and F0(u)/u'^2 = -1/2, so the variation-of-
    parameters form w = u' (w(0)/u'(0) + integral of -F1/u'^2) becomes
    w = alpha + u' s, s(t) = (w(0) - alpha)/u'(0) - beta t/2 + R(t), with
    R = integral of n/u'^2 from 0 to t, which vanishes for two species.  The
    limit alpha = -f1(phi*)/f0'(phi*) is thus added, not recovered from
    u' times a growing integral.  f1 must be an exp sum on the exponents of f0.
    """
    if f1.provenance != "f1":
        raise MismatchedReference("solve_w needs the combined first-order density")
    if f1.q is None:
        raise MismatchedReference("f1 was not built with a drift constant")
    q, robin = f1.q, RobinData(u.robin.gamma, 0.0)
    terms = _F0Terms.of(u.density)
    if not (
        isinstance(f1.f, _ExpSum) and f1.f.ref == u.phi_star
        and np.array_equal(f1.f.b, terms.b)
    ):
        raise MismatchedReference("f1 must be an exp sum on the exponents of f0")
    # -F1 = sum_i (-c_i/b_i) expm1(b_i delta): slope -f1(phi*), curvature -f1'(phi*)
    limit, beta, gamma = terms.split(
        -f1.f.a / terms.b, -float(f1.f(u.phi_star)), -float(f1.df(u.phi_star)),
    )
    if abs(limit - q) > W_LIMIT_RTOL * max(1.0, abs(q)):
        raise MismatchedReference(f"f1 belongs to another f0: w tends to {limit!r}, not q = {q!r}")
    if u.flat:
        return _constant_profile(WLayer, "w", q, u.t_max, len(u.t), robin, u.mu, w0=q, q=q)
    den = _denominator(u)
    neg_F1 = -_from_delta(f1.F, u.phi_star, u.delta[:1])[0]
    w0 = robin.gamma * neg_F1 / den
    # s and w' = -f0(u) s - beta u'/2 + n/u', summed in place
    s = u.t * (-0.5 * beta)
    s += (w0 - limit) / u.u0_prime
    dw = u.derivs * (-0.5 * beta)
    if gamma.size:  # three or more species
        R, _ = terms.remainder_integrals(u)
        s += R @ gamma
        dw += terms.n.from_delta(u.delta) @ gamma / u.derivs
    w = u.derivs * s
    w += limit
    dw += u.second_derivs * s  # -f0(u) s
    dw[0] = neg_F1 / den
    # w'' = -f0'(u) w - f1(u)
    d2w = np.asarray(u.density.df(u.values), dtype=float) * -w
    d2w -= _from_delta(f1.f, u.phi_star, u.delta)
    return WLayer(
        kind="w", t=u.t, values=w, derivs=dw, second_derivs=d2w,
        tail=Tail.anchored(limit, u.mu, u.derivs[-1] * s[-1], dw[-1]),
        robin=robin, w0=float(w0), q=float(q),
    )


# ---------------------------------------------------------------------------
# residual diagnostics
# ---------------------------------------------------------------------------


def ode_residual(p: Profile, u: ULayer | None = None, f1: Nonlinearity | None = None) -> float:
    """Max |y'' - rhs| at the panel midpoints, where the quintic of p gives
    y and y'' and the background u and u' are interpolated: the residual of
    the interpolant that profile_eval evaluates, between the nodes where
    y'' was set from the equation.  The equation is that of p.kind on the
    density of u (p itself when u is None); kind 'w' also needs f1."""
    if len(p.t) < MIN_NODES:
        raise GridTooCoarse(f"need at least {MIN_NODES} nodes for the residual")
    u = p if u is None else u
    if not isinstance(u, ULayer):
        raise ConfigError("background u profile required")
    f = u.density
    mid = 0.5 * (p.t[:-1] + p.t[1:])
    y, _, d2 = hermite_eval(mid, p.t, p.values, p.derivs, p.second_derivs, second=True)
    if p.kind == "u":
        rhs = -np.asarray(f.f(y), dtype=float)
    else:
        ub, dub = profile_eval(u, mid)
        dfu = np.asarray(f.df(ub), dtype=float)
        if p.kind == "v":
            rhs = dub - dfu * y
        elif p.kind == "theta":
            rhs = dfu * (1.0 - y)
        elif p.kind == "w":
            if f1 is None:
                raise ConfigError("w residual requires f1")
            rhs = -dfu * y - np.asarray(f1.f(ub), dtype=float)
        else:
            raise ConfigError(f"unknown equation kind {p.kind!r}")
    return float(np.max(np.abs(d2 - rhs)))


def first_integral_drift(u: ULayer) -> float:
    """max_t |u'^2 + 2F(u)|, the conserved-quantity drift on u's density."""
    F = np.asarray(u.density.F(u.values), dtype=float)
    return float(np.max(np.abs(u.derivs**2 + 2.0 * F)))


def time_integral_usq(u: ULayer) -> float:
    """Integral of u'^2 over [0, inf) by time-space panel quadrature plus the
    pure-exponential tail u'(t_max)^2 / (2 mu); cross-checks the
    potential-space value u.int_usq."""
    t = u.t
    xg, wg = gauss_panels(t[:-1], t[1:])
    _, dug = hermite_eval(xg.ravel(), t, u.values, u.derivs, u.second_derivs)
    body = float(np.sum(dug.reshape(xg.shape) ** 2 * wg))
    return body + float(u.derivs[-1]) ** 2 / (2.0 * u.mu)
