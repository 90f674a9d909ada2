"""Expansion formulas in the boundary layer.

Evaluators return the displayed finite terms of the small-eps expansions:
potential, normal field coefficient, charge density, Maxwell traction, and
the band-wise total charge.  Remainder behavior is not modeled here; it is
checked against the radial oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError
from .geometry import DomainSpec, RegionParams
from .profiles import LayerBundle, profile_eval


@dataclass(frozen=True)
class ExpansionQuery:
    """Where to evaluate: mean curvature at the boundary point, stretched
    depth t (a number or an array of depths), eps, expansion order,
    dimension.  The model is that of the bundle evaluated."""

    h: float  # mean curvature H(p)
    t: float | np.ndarray
    eps: float
    order: int = 2
    d: int = 2

    def __post_init__(self):
        if self.order not in (1, 2):
            raise ConfigError("order must be 1 or 2")
        if not self.eps > 0:
            raise ConfigError("eps must be positive")
        if np.any(np.asarray(self.t) < 0):
            raise ConfigError("t must be >= 0")


@dataclass(frozen=True)
class _Layer:
    """Profile values and t-derivatives at the query depths; v and w are
    None where the query's order and the bundle do not use them."""

    u: float | np.ndarray
    du: float | np.ndarray
    v: float | np.ndarray | None = None
    dv: float | np.ndarray | None = None
    w: float | np.ndarray | None = None
    dw: float | np.ndarray | None = None


def _sample(q: ExpansionQuery, bundle: LayerBundle) -> _Layer:
    u, du = profile_eval(bundle.u, q.t)
    if q.order == 1:
        return _Layer(u, du)
    v, dv = profile_eval(bundle.v, q.t)
    if bundle.w is None:
        return _Layer(u, du, v, dv)
    w, dw = profile_eval(bundle.w, q.t)
    return _Layer(u, du, v, dv, w, dw)


def _result(value):
    """A float for a scalar query, an array for an array query."""
    return float(value) if np.ndim(value) == 0 else value


def _potential(q: ExpansionQuery, s: _Layer):
    if q.order == 1:
        return s.u
    corr = (q.d - 1) * q.h * s.v
    if s.w is not None:
        corr = corr + s.w
    return s.u + math.sqrt(q.eps) * corr


def _field(q: ExpansionQuery, s: _Layer):
    if q.order == 1:
        return s.du / math.sqrt(q.eps)
    corr = (q.d - 1) * q.h * s.dv
    if s.w is not None:
        corr = corr + s.dw
    return s.du / math.sqrt(q.eps) + corr


def _charge_density(q: ExpansionQuery, s: _Layer, bundle: LayerBundle):
    f = bundle.u.density
    base = f.f(s.u)
    if q.order == 1:
        return base
    dfu = f.df(s.u)
    corr = (q.d - 1) * q.h * dfu * s.v
    if s.w is not None:
        corr = corr + (dfu * s.w + bundle.f1.f(s.u))
    return base + math.sqrt(q.eps) * corr


def _traction(q: ExpansionQuery, s: _Layer, bundle: LayerBundle):
    base = -bundle.u.density.F(s.u)
    if q.order == 1:
        return base
    corr = (q.d - 1) * q.h * s.du * s.dv
    if s.w is not None:
        corr = corr + s.du * s.dw
    return base + math.sqrt(q.eps) * corr


def potential(q: ExpansionQuery, bundle: LayerBundle) -> float | np.ndarray:
    """u(t) [+ sqrt(eps)((d-1) H v(t) (+ w(t) for conserved charge))]."""
    return _result(_potential(q, _sample(q, bundle)))


def field_normal_component(q: ExpansionQuery, bundle: LayerBundle) -> float | np.ndarray:
    """Coefficient of -nu_p in the gradient: u'/sqrt(eps) [+ (d-1)H v' + w']."""
    return _result(_field(q, _sample(q, bundle)))


def charge_density(q: ExpansionQuery, bundle: LayerBundle) -> float | np.ndarray:
    """f(u) [+ sqrt(eps)((d-1)H f'(u) v  (+ f'(u) w + f1(u) for conserved
    charge))], with f the density of u and f1 that of the bundle."""
    return _result(_charge_density(q, _sample(q, bundle), bundle))


def maxwell_traction(q: ExpansionQuery, bundle: LayerBundle) -> float | np.ndarray:
    """Normal-normal component of the electrostatic stress acting on nu_p:
    -F(u) [+ sqrt(eps) u' ((d-1)H v' (+ w'))], with F that of the density of u."""
    return _result(_traction(q, _sample(q, bundle), bundle))


@dataclass(frozen=True)
class RegionChargeReport:
    """Two-term band charges near one boundary component (Regions I and II).

    Region III gets no entry: no bound on its charge with constants fixed by
    the problem is known yet, and a bound the oracle can break is no bound.
    """

    model: str
    k: int
    eps: float
    beta: float
    T: float
    region1: float
    region2: float
    sign: int  # expected common sign of regions I and II
    terms: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "model": self.model,
            "k": self.k,
            "inputs": {"eps": self.eps, "beta": self.beta, "T": self.T},
            "region1": {"value": self.region1},
            "region2": {"value": self.region2},
            "sign": self.sign,
            "terms": {k: v for k, v in sorted(self.terms.items())},
        }


def region_charge(
    domain: DomainSpec,
    k: int,
    params: RegionParams,
    bundle: LayerBundle,
) -> RegionChargeReport:
    """Two-term total charge in the near-boundary bands of component k.

    Region I:  sqrt(eps)|bd|(u'(0) - u'(T))
               + eps[(d-1)(int H)(T u'(T) + v'(0) - v'(T)) (+ |bd|(w'(0)-w'(T)))]
    Region II: sqrt(eps)|bd| u'(T)
               + eps[(d-1)(int H)(-T u'(T) + v'(T)) (+ |bd| w'(T))]
    """
    comp = domain.components[k]
    u, v, w = bundle.u, bundle.v, bundle.w
    d = domain.dimension
    T = params.T
    eps = params.eps
    sq = math.sqrt(eps)
    _, du0 = profile_eval(u, 0.0)
    _, duT = profile_eval(u, T)
    _, dv0 = profile_eval(v, 0.0)
    _, dvT = profile_eval(v, T)
    area = comp.surface_area
    hint = comp.curvature_integral
    r1 = sq * area * (du0 - duT) + eps * (d - 1) * hint * (T * duT + dv0 - dvT)
    r2 = sq * area * duT + eps * ((d - 1) * hint * (-T * duT + dvT))
    terms = {
        "du0": du0, "duT": duT, "dv0": dv0, "dvT": dvT,
        "area": area, "curvature_integral": hint,
    }
    if w is not None:
        _, dw0 = profile_eval(w, 0.0)
        _, dwT = profile_eval(w, T)
        r1 += eps * area * (dw0 - dwT)
        r2 += eps * area * dwT
        terms["dw0"] = dw0
        terms["dwT"] = dwT
    phi_bd = u.robin.phi_bd
    sign = 0 if phi_bd == u.phi_star else (-1 if phi_bd > u.phi_star else 1)
    return RegionChargeReport(
        model=bundle.model, k=k, eps=eps, beta=params.beta, T=T,
        region1=r1, region2=r2, sign=sign, terms=terms,
    )


def grid_rows(q_template: ExpansionQuery, bundle: LayerBundle, ts):
    """Values of the four pointwise evaluators on the grid ts, one array per
    evaluator name.

    Each profile is evaluated once over the whole grid ts, and each density
    (that of u, and the bundle's f1) once over the sampled u; q_template
    supplies everything but t.
    """
    ts = np.asarray(ts, dtype=float)
    q = replace(q_template, t=ts)
    s = _sample(q, bundle)
    return {
        "potential": _potential(q, s),
        "field": _field(q, s),
        "charge_density": _charge_density(q, s, bundle),
        "traction": _traction(q, s, bundle),
    }
