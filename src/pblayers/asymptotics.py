"""Expansion formulas in the boundary layer.

`sample` evaluates a bundle's profiles once over an array of stretched
depths; the LayerSample it returns gives, for any curvature, eps and order,
the displayed finite terms of the small-eps expansions there: potential,
normal field coefficient, charge density and Maxwell traction.  `region_charge`
gives the band-wise total charge.  Remainder behavior is not modeled here;
it is checked against the radial oracle.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError
from .geometry import DomainSpec, RegionParams
from .profiles import LayerBundle, profile_eval


@dataclass(frozen=True)
class ExpansionQuery:
    """What to evaluate: mean curvature at the boundary point, eps,
    expansion order, dimension.  The depths and the model are those of the
    LayerSample evaluated."""

    h: float  # mean curvature H(p)
    eps: float
    order: int = 2
    d: int = 2

    def __post_init__(self):
        if self.order not in (1, 2):
            raise ConfigError("order must be 1 or 2")
        if not self.eps > 0:
            raise ConfigError("eps must be positive")


@dataclass(frozen=True)
class LayerSample:
    """Profile values and t-derivatives of a bundle at the depths t given to
    `sample`; w is None where the bundle has none.  The expansion depends on
    eps and H only through the weights of the profiles, so one sample serves
    every query: each method returns one expansion term per depth for the
    query q, of the order q asks for."""

    bundle: LayerBundle
    t: np.ndarray
    u: np.ndarray
    du: np.ndarray
    v: np.ndarray
    dv: np.ndarray
    w: np.ndarray | None = None
    dw: np.ndarray | None = None

    def potential(self, q: ExpansionQuery):
        """u(t) [+ sqrt(eps)((d-1) H v(t) (+ w(t) for conserved charge))]."""
        if q.order == 1:
            return self.u
        corr = (q.d - 1) * q.h * self.v
        if self.w is not None:
            corr = corr + self.w
        return self.u + math.sqrt(q.eps) * corr

    def field(self, q: ExpansionQuery):
        """Coefficient of -nu_p in the gradient: u'/sqrt(eps) [+ (d-1)H v' + w']."""
        if q.order == 1:
            return self.du / math.sqrt(q.eps)
        corr = (q.d - 1) * q.h * self.dv
        if self.w is not None:
            corr = corr + self.dw
        return self.du / math.sqrt(q.eps) + corr

    def charge_density(self, q: ExpansionQuery):
        """f(u) [+ sqrt(eps)((d-1)H f'(u) v  (+ f'(u) w + f1(u) for conserved
        charge))], with f the density of u and f1 that of the bundle."""
        f = self.bundle.u.density
        base = f.f(self.u)
        if q.order == 1:
            return base
        dfu = f.df(self.u)
        corr = (q.d - 1) * q.h * dfu * self.v
        if self.w is not None:
            corr = corr + (dfu * self.w + self.bundle.f1.f(self.u))
        return base + math.sqrt(q.eps) * corr

    def traction(self, q: ExpansionQuery):
        """Normal-normal component of the electrostatic stress acting on nu_p:
        -F(u) [+ sqrt(eps) u' ((d-1)H v' (+ w'))], with F that of the density
        of u."""
        base = -self.bundle.u.density.F(self.u)
        if q.order == 1:
            return base
        corr = (q.d - 1) * q.h * self.du * self.dv
        if self.w is not None:
            corr = corr + self.du * self.dw
        return base + math.sqrt(q.eps) * corr


def sample(bundle: LayerBundle, ts) -> LayerSample:
    """Every profile of the bundle, each evaluated once over the array of
    depths ts >= 0 (a negative, NaN or infinite depth raises NegativeTime)."""
    ts = np.asarray(ts, dtype=float)
    u, du = profile_eval(bundle.u, ts)
    v, dv = profile_eval(bundle.v, ts)
    w = dw = None
    if bundle.w is not None:
        w, dw = profile_eval(bundle.w, ts)
    return LayerSample(bundle, ts, u, du, v, dv, w, dw)


@dataclass(frozen=True)
class RegionChargeReport:
    """Two-term band charges near one boundary component (Regions I and II).

    Region III gets no entry: no bound on its charge with constants fixed by
    the problem is known yet, and a bound the oracle can break is no bound.
    """

    model: str
    k: int
    params: RegionParams
    region1: float
    region2: float
    sign: int  # expected common sign of regions I and II
    terms: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "model": self.model,
            "k": self.k,
            "inputs": asdict(self.params),
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

    A band of stretched depths (a, b) holds
        sqrt(eps)|bd|(u'(a) - u'(b))
        + eps[(d-1)(int H)(b u'(b) - a u'(a) + v'(a) - v'(b)) (+ |bd|(w'(a) - w'(b)))]:
    Region I is (0, T), Region II is (T, t_hi) with t_hi = eps**(beta - 1/2).
    """
    comp = domain.components[k]
    d = domain.dimension
    T = params.T
    eps = params.eps
    t_hi = eps ** (params.beta - 0.5)
    s = sample(bundle, [0.0, T, t_hi])
    du = s.du.tolist()
    dv = s.dv.tolist()
    dw = s.dw.tolist() if s.w is not None else None
    area = comp.surface_area
    hint = comp.curvature_integral

    def band(i, j, a, b):
        q = math.sqrt(eps) * area * (du[i] - du[j])
        q += eps * (d - 1) * hint * (b * du[j] - a * du[i] + dv[i] - dv[j])
        if dw is not None:
            q += eps * area * (dw[i] - dw[j])
        return q

    r1 = band(0, 1, 0.0, T)
    r2 = band(1, 2, T, t_hi)
    terms = {
        "du0": du[0], "duT": du[1], "du_hi": du[2], "dv0": dv[0], "dvT": dv[1], "dv_hi": dv[2],
        "area": area, "curvature_integral": hint,
    }
    if dw is not None:
        terms.update(dw0=dw[0], dwT=dw[1], dw_hi=dw[2])
    u = bundle.u
    phi_bd = u.robin.phi_bd
    sign = 0 if phi_bd == u.phi_star else (-1 if phi_bd > u.phi_star else 1)
    return RegionChargeReport(
        model=bundle.model, k=k, params=params, region1=r1, region2=r2, sign=sign, terms=terms,
    )


def grid_rows(q: ExpansionQuery, bundle: LayerBundle, ts) -> dict:
    """The four expansion terms of q over the depths ts, one array per
    name: `sample` once, then each LayerSample method."""
    s = sample(bundle, ts)
    return {
        "potential": s.potential(q),
        "field": s.field(q),
        "charge_density": s.charge_density(q),
        "traction": s.traction(q),
    }
