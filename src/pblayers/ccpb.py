"""Global constants of the conserved-charge model.

The zero-order bulk potential phi0* solves a nested algebraic system: for a
candidate value s, each boundary value u_k(0; s) is pinned by the Robin
compatibility equation, and s itself is pinned by the zero-total-flux
condition sum_k |bd_k| u_k'(0; s) = 0.  The flux sum is strictly monotone in
s and changes sign between the extreme boundary potentials, so Brent's method
finds it inside that bracket.

On top of phi0* sit the layer profiles u_k, v_k, theta_k, the signed mass
corrections mhat_i (half-line integrals of the layer excess), the drift
constant Q (a quotient of boundary sums), and the conservation-correction
profiles w_k.  The layer excess integrals are closed forms in u_k'(0) and
the layer energy int_usq (see layer_excess_integrals), plus, for three or
more species, the integral of a remainder.  Two identities are evaluated as
diagnostics: the signed mass corrections are charge-neutral, and the
curvature-weighted sum of v_k'(0) balances the area-weighted sum of w_k'(0).
Since sum_i m_i z_i (1 - exp(-z_i (u - phi0*))) = -|Omega| f0(u), whose
layer integral is -|Omega| u_k'(0), the charge of the corrections is minus
the flux sum sum_k |bd_k| u_k'(0): for two species, where the closed form
has no remainder, mhat_charge restates the flux balance term for term and
checks nothing of the excess integrals beyond it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ConfigError, DegenerateDenominator
from .geometry import DomainSpec
from .nonlinearity import (
    IonSpecies,
    Nonlinearity,
    check_neutrality,
    make_f0,
    make_f1,
    make_fhat1,
)
from .numerics import brent_root
from .profiles import (
    DEFAULT_NODES,
    LayerBundle,
    ULayer,
    _denominator,
    _F0Terms,
    boundary_potential,
    boundary_slope,
    solve_theta,
    solve_u,
    solve_v,
    solve_w,
)

PHI0_TOL = 1e-14  # Brent tolerance (xtol = rtol) of the bulk potential


@dataclass(frozen=True)
class CcpbConstants:
    """Constants and profiles of the conserved-charge expansion."""

    phi0_star: float
    q: float
    mhat: tuple[float, ...]
    bulk_conc0: tuple[float, ...]
    profiles: tuple[LayerBundle, ...]  # one per boundary, with theta, w and f1
    fhat1: Nonlinearity
    species: tuple[IonSpecies, ...]
    domain: DomainSpec
    diagnostics: dict = field(default_factory=dict)

    @property
    def u0_per_boundary(self) -> tuple[float, ...]:
        return tuple(b.u.u0 for b in self.profiles)

    @property
    def f0(self) -> Nonlinearity:
        return self.profiles[0].u.density

    @property
    def f1(self) -> Nonlinearity:
        return self.profiles[0].f1

    def to_json_dict(self) -> dict:
        return {
            "phi0_star": self.phi0_star,
            "u0_per_boundary": list(self.u0_per_boundary),
            "q": self.q,
            "mhat": list(self.mhat),
            "bulk_conc0": list(self.bulk_conc0),
            "species": [
                {"z": s.z, "amount": s.amount, "role": s.role} for s in self.species
            ],
            "boundaries": [
                {
                    "k": k,
                    "u0": b.u.u0,
                    "u0_prime": b.u.u0_prime,
                    "v_prime0": b.v.v_prime0,
                    "theta_prime0": b.theta.theta_prime0,
                    "w0": b.w.w0,
                    "w_prime0": b.w.w_prime0,
                }
                for k, b in enumerate(self.profiles)
            ],
            "diagnostics": {k: v for k, v in sorted(self.diagnostics.items())},
        }


def _flux_sum(domain: DomainSpec, species, s: float) -> float:
    """sum_k |bd_k| u_k'(0; s) with u_k(0; s) from the compatibility equation.

    Strictly increasing in s; zero exactly at the bulk potential.
    """
    f0 = make_f0(species, domain.volume, s)
    total = 0.0
    for comp in domain.components:
        u0 = boundary_potential(f0, comp.robin)
        total += comp.surface_area * boundary_slope(f0, s, comp.robin.phi_bd, u0)
    return total


def solve_phi0(domain: DomainSpec, species: Sequence[IonSpecies]) -> float:
    """Bulk potential phi0* of the conserved-charge layer."""
    domain.require_ccpb_admissible()
    check_neutrality(species)
    phis = [c.robin.phi_bd for c in domain.components]
    lo, hi = min(phis), max(phis)
    span = hi - lo
    a = lo + 1e-12 * span
    b = hi - 1e-12 * span
    return brent_root(
        lambda s: _flux_sum(domain, species, s), a, b, PHI0_TOL, PHI0_TOL, "the flux sum"
    )


def layer_excess_integrals(u: ULayer, zs: Sequence[float]):
    """Half-line integrals of 1 - exp(-z (u(s) - phi0*)) per valence z, for
    the valences of the species of f0, the density u was solved with, and
    phi0* its bulk potential.

    The integrand is -expm1(b delta) with b = -z, one term of f0; on the
    terms of f0 it splits as -(alpha f0 + beta F0 + n), and along u the
    integral of f0 is u'(0) and that of F0 = -u'^2/2 is -int_usq/2, so the
    integral is -(alpha u'(0) - beta int_usq/2 + T), where T, the integral
    of the remainder n, is 0 for two species.  The first two terms are
    summed in exact rational arithmetic on their float inputs and rounded
    once, so they do not depend on the order of the operations.
    """
    terms = _F0Terms.of(u.density)
    b = -np.asarray(zs, dtype=float)
    index = {bi: i for i, bi in enumerate(terms.b.tolist())}
    if not set(b.tolist()) <= index.keys():
        raise ConfigError(f"valences {list(zs)} are not all valences of the species of f0")
    if u.flat:
        return [0.0 for _ in zs]
    unit = np.eye(len(terms.b))[:, [index[bi] for bi in b.tolist()]]
    _, _, gamma = terms.split(unit, b, b * b)
    _, totals = terms.remainder_integrals(u)
    up, energy, d1, d2 = map(Fraction, (u.u0_prime, u.int_usq, terms.df0, terms.d2f0))
    out = []
    for bi, rest in zip(map(Fraction, b.tolist()), (totals @ gamma).tolist()):
        # alpha = b/f0'(phi*), beta = (b^2 - alpha f0''(phi*))/f0'(phi*)
        closed = (bi * up - (bi * bi - bi * d2 / d1) * energy / 2) / d1
        out.append(-(float(closed) + rest))
    return out


def compute_mhat(
    domain: DomainSpec,
    species: Sequence[IonSpecies],
    u_profiles: Sequence[ULayer],
):
    """Signed mass corrections mhat_i from the per-boundary layer excess."""
    zs = [s.z for s in species]
    acc = np.zeros(len(species))
    for comp, u in zip(domain.components, u_profiles):
        acc += comp.surface_area * np.asarray(layer_excess_integrals(u, zs))
    return [s.amount / domain.volume * float(a) for s, a in zip(species, acc)]


def compute_q(
    domain: DomainSpec,
    fhat1: Nonlinearity,
    u_profiles: Sequence[ULayer],
) -> float:
    """Drift constant of the bulk potential: a quotient of boundary sums
    mixing the first-order mass antiderivative, curvature integrals and the
    layer energies."""
    num = 0.0
    den = 0.0
    d = domain.dimension
    for comp, u in zip(domain.components, u_profiles):
        dk = _denominator(u)
        num += (
            comp.surface_area * float(fhat1.F(u.u0))
            + (d - 1) * comp.curvature_integral * u.int_usq
        ) / dk
        term = comp.surface_area * float(u.density.f(u.u0)) / dk
        den += term
    if den <= 0:
        raise DegenerateDenominator(
            f"drift denominator {den:.3e} not positive; degenerate configuration"
        )
    return num / den


def ccpb_constants(
    domain: DomainSpec,
    species: Sequence[IonSpecies],
    n_nodes: int = DEFAULT_NODES,
) -> CcpbConstants:
    """Full constants pipeline: bulk potential, profiles, mass corrections,
    drift constant, conservation profiles and diagnostics."""
    phi0 = solve_phi0(domain, species)
    f0 = make_f0(species, domain.volume, phi0)
    u_list = [solve_u(f0, comp.robin, n_nodes) for comp in domain.components]

    # mhat, q and f1 read only the u-profiles
    mhat = compute_mhat(domain, species, u_list)
    fhat1 = make_fhat1(species, domain.volume, phi0, mhat)
    q = compute_q(domain, fhat1, u_list)
    f1 = make_f1(f0, fhat1, q)
    bundles = [LayerBundle(u, solve_v(u), solve_theta(u), solve_w(u, f1), f1) for u in u_list]

    # diagnostics: compatibility residuals, flux balance, neutrality of the
    # corrections, and the independent balance identity for q
    res_compat = 0.0
    flux = 0.0
    balance_v = 0.0
    balance_w = 0.0
    d = domain.dimension
    for comp, bundle in zip(domain.components, bundles):
        u = bundle.u
        phi_bd, u0 = comp.robin.phi_bd, u.u0
        res_compat = max(
            res_compat,
            abs(phi_bd - u0 + comp.robin.gamma * boundary_slope(f0, phi0, phi_bd, u0)),
        )
        flux += comp.surface_area * u.u0_prime
        balance_v += (d - 1) * comp.curvature_integral * bundle.v.v_prime0
        balance_w += comp.surface_area * bundle.w.w_prime0
    mhat_charge = sum(m * s.z for m, s in zip(mhat, species))
    mhat_scale = sum(abs(m * s.z) for m, s in zip(mhat, species)) or 1.0
    balance_scale = abs(balance_v) + abs(balance_w) or 1.0
    area_scale = sum(c.surface_area * abs(b.u.u0_prime) for c, b in zip(domain.components, bundles)) or 1.0
    diagnostics = {
        "compatibility_residual": res_compat,
        "flux_residual": abs(flux),
        "flux_residual_rel": abs(flux) / area_scale,
        "mhat_charge": mhat_charge,
        "mhat_charge_rel": abs(mhat_charge) / mhat_scale,
        "drift_balance": balance_v + balance_w,
        "drift_balance_rel": abs(balance_v + balance_w) / balance_scale,
    }
    bulk0 = [s.amount * math.exp(s.z * phi0) / domain.volume for s in species]
    return CcpbConstants(
        phi0_star=phi0,
        q=q,
        mhat=tuple(mhat),
        bulk_conc0=tuple(bulk0),
        profiles=tuple(bundles),
        fhat1=fhat1,
        species=tuple(species),
        domain=domain,
        diagnostics=diagnostics,
    )


@dataclass(frozen=True)
class BulkExpansionEntry:
    """Two-term small-eps expansions of one species' bulk data."""

    z: float
    conc0: float
    conc_coeff: float
    normalizer0: float
    normalizer_coeff: float

    def conc_at(self, eps: float) -> float:
        return self.conc0 + math.sqrt(eps) * self.conc_coeff


def bulk_expansion(constants: CcpbConstants, eps: float):
    """Per-species bulk concentration and normalizer expansions at eps."""
    if not eps > 0:
        raise ConfigError("eps must be positive")
    out = []
    vol = constants.domain.volume
    for s, mh in zip(constants.species, constants.mhat):
        e = math.exp(s.z * constants.phi0_star)
        conc0 = s.amount * e / vol
        coeff = (s.amount * s.z * constants.q * e + mh * e) / vol
        a0 = vol / e
        a_coeff = (-s.z * constants.q * vol - (mh / s.amount) * vol) / e
        out.append(
            BulkExpansionEntry(
                z=s.z, conc0=conc0, conc_coeff=coeff,
                normalizer0=a0, normalizer_coeff=a_coeff,
            )
        )
    return out
