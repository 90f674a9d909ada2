"""Brute-force radial ground truth.

Finite-volume discretization of -eps (r^{d-1} phi')' = r^{d-1} f(phi) on a
boundary-graded grid, solved by damped Newton with an exact (2,2)-banded
Jacobian.  Only its diagonal depends on phi, so each system assembles the
other bands once, and a Newton step adds f'(phi) to the diagonal of a copy
and factors it with LAPACK's dgbsv.  Cell-centered conservative fluxes make
the discrete divergence identity hold to solver tolerance.  Every boundary
row is a Robin row (gamma = 0 is the Dirichlet limit), and the center of a
ball is a symmetric flux row; the Dirichlet solver is the Robin solver on a
ball with gamma = 0.

Each solve builds its grid and assembled system once.  The nonlocal
conserved-charge problem is an outer fixed point on the normalizer vector
(the domain integrals of exp(-z_i phi)) with Anderson mixing as a fallback;
each sweep reruns Newton on the same system with the sweep's frozen
normalizers.  A solve may warm-start from an earlier result, which is
sampled on the new grid by its not-a-knot cubic spline (continuation in eps).
A local (PB) solve samples it at the same stretched depth |r - r_k|/sqrt(eps)
from the nearest boundary, and starts cold from phi* plus the linearized
(Debye-Huckel) Robin layer of each boundary.  The spline's slopes are one
tridiagonal solve by LAPACK's dgtsv.  dgbsv and dgtsv come from SciPy's
LAPACK extension, loaded alone with the first solve (_lapack): the
scipy.linalg package itself is never imported here.

Every result carries its bulk reference potential as phi_eps_star.

Nothing here consults the asymptotic machinery: initial guesses are
constants, the linearized layer built from the oracle's own f'(phi*) and
Robin data, or earlier oracle results, and all comparisons happen in
compare_expansion.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec
from typing import Sequence

import numpy as np
from numpy.linalg import LinAlgError

from .errors import (
    ConfigError,
    FixedPointStall,
    GridTooCoarse,
    NewtonDivergence,
    NonFiniteOutput,
    RegionEmpty,
    SolverError,
)
from .geometry import DomainSpec, RegionParams, make_ball, unit_sphere_area
from .nonlinearity import (
    IonSpecies,
    Nonlinearity,
    _exp_terms_nonlinearity,
    check_neutrality,
    find_reference_potential,
)
from .numerics import write_csv
from .profiles import LayerBundle, RobinData, profile_eval

NEWTON_TOL = 1e-10
MAX_NEWTON = 80
MAX_DAMPING = 8
MAX_OUTER = 200  # normalizer sweeps of a conserved-charge solve
A_TOL = 1e-12  # relative normalizer change that ends the sweeps
GRID_GROWTH = 1.08  # ratio of neighbouring spacings beyond the layers
INTERIOR_CAP = 1.0 / 256.0  # largest spacing, as a fraction of R
STRETCHED_SAMPLES = 1024  # points on [0, T] where compare_expansion compares


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def _boundary_offsets(fine_end, limit, h_fine, h_max):
    """Distances from a boundary: uniform h_fine up to fine_end, then spacings
    growing by GRID_GROWTH per cell, capped at h_max, up to limit.

    Positions are sequential sums (np.add.accumulate adds in order), so each
    equals the running sum pos += h of a node-by-node loop, bit for bit.
    """
    fine_stop = fine_end * (1 + 1e-12)
    fine = np.add.accumulate(np.full(int(fine_stop / h_fine) + 2, h_fine))
    fine = fine[fine <= fine_stop]
    pos = fine[-1] if len(fine) else 0.0
    # h_j = min(h_fine * GRID_GROWTH**j, h_max), the powers multiplied in order
    n_grow = int(math.log(max(h_max / h_fine, 1.0)) / math.log(GRID_GROWTH)) + 2
    n_grow += int(max(limit - pos, 0.0) / h_max) + 2
    steps = np.full(n_grow + 1, GRID_GROWTH)
    steps[0] = h_fine
    steps = np.minimum(np.multiply.accumulate(steps)[1:], h_max)
    steps[0] += pos
    grown = np.add.accumulate(steps)
    grown = grown[grown <= limit]
    return np.concatenate(([0.0], fine, grown))


def graded_radial_grid(
    d: int,
    r_outer: float,
    r_inner: float | None,
    eps: float,
    points_per_layer: int = 800,
    layer_widths: float = 10.0,
) -> np.ndarray:
    """Nodes on [0, R] (ball) or [a, R] (annulus), fine near each boundary.

    Spacing is sqrt(eps)/points_per_layer across layer_widths*sqrt(eps) from
    each boundary, then grows by GRID_GROWTH per cell to at most
    R*INTERIOR_CAP.
    """
    if not (eps > 0 and points_per_layer > 0 and layer_widths > 0):
        raise ConfigError(
            f"eps, points_per_layer and layer_widths must be positive, got {eps!r}, "
            f"{points_per_layer!r} and {layer_widths!r}"
        )
    sq = math.sqrt(eps)
    h_fine = sq / points_per_layer
    h_max = r_outer * INTERIOR_CAP
    lo = 0.0 if r_inner is None else r_inner
    half = 0.5 * (r_outer - lo)

    def offsets(limit):
        return _boundary_offsets(min(layer_widths * sq, limit), limit, h_fine, h_max)

    if r_inner is None:
        right = offsets(r_outer - 0.45 * h_max)
        edge = r_outer - right[-1]
        n_fill = max(int(math.ceil(edge / h_max)), 1)
        fill = np.linspace(0.0, edge, n_fill + 1)
        r = np.concatenate((fill[:-1], (r_outer - right)[::-1]))
    else:
        left = right = offsets(half - 0.45 * h_max)
        lo_edge = r_inner + left[-1]
        hi_edge = r_outer - right[-1]
        n_fill = max(int(math.ceil((hi_edge - lo_edge) / h_max)), 1)
        fill = np.linspace(lo_edge, hi_edge, n_fill + 1)
        r = np.concatenate(
            ((r_inner + left)[:-1], fill, (r_outer - right)[::-1][1:])
        )
    if len(r) < 8:
        raise GridTooCoarse("radial grid degenerated")
    if np.any(np.diff(r) <= 1e-9 * r_outer):
        raise GridTooCoarse("grid produced near-duplicate nodes")
    spacing_at_bd = abs(r[-1] - r[-2])
    if spacing_at_bd > sq / 8:
        raise GridTooCoarse("fewer than 8 points per layer width at the boundary")
    return r


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


@dataclass
class RadialSolveResult:
    """Converged radial solve with diagnostics; phi_at and dphi_at sample the
    not-a-knot cubic through (r, phi).  A non-finite phi raises NonFiniteOutput."""

    model: str
    d: int
    eps: float
    r: np.ndarray
    phi: np.ndarray
    newton_iters: int
    residual_norm: float
    conservation_residual: float
    robin: tuple
    radii: tuple
    phi_eps_star: float  # bulk reference: phi* of f (pb), zero of the final density (ccpb)
    normalizers: tuple = ()
    outer_iters: int = 0
    neutrality: float | None = None

    def __post_init__(self):
        if not np.isfinite(self.phi).all():
            raise NonFiniteOutput(f"the {self.model} oracle's potential is not finite")
        self._cubic = _not_a_knot(self.r, self.phi)

    def phi_at(self, r):
        return _cubic_eval(self.r, self._cubic, r)[0]

    def dphi_at(self, r):
        return _cubic_eval(self.r, self._cubic, r)[1]

    def to_csv(self, path):
        write_csv(path, "r,phi", (self.r, self.phi))

    def to_json_dict(self) -> dict:
        out = {
            "model": self.model,
            "d": self.d,
            "eps": self.eps,
            "n_nodes": int(len(self.r)),
            "newton_iters": self.newton_iters,
            "residual_norm": self.residual_norm,
            "conservation_residual": self.conservation_residual,
            "radii": list(self.radii),
            "robin": [{"gamma": g, "phi_bd": p} for g, p in self.robin],
        }
        if self.model == "ccpb":
            out["normalizers"] = list(self.normalizers)
            out["phi_eps_star"] = self.phi_eps_star
            out["outer_iters"] = self.outer_iters
            out["neutrality"] = self.neutrality
        return out


# ---------------------------------------------------------------------------
# the finite-volume Newton solver
# ---------------------------------------------------------------------------


def _one_sided_coeffs(h1, h2):
    """Second-order derivative weights at the end node of a 3-point stencil
    (end, end-1, end-2) with spacings h1 (nearest) and h2."""
    c0 = (2 * h1 + h2) / (h1 * (h1 + h2))
    c1 = -(h1 + h2) / (h1 * h2)
    c2 = h1 / (h2 * (h1 + h2))
    return c0, c1, c2


class _RadialSystem:
    """Residual assembly and Newton solves for one radial problem.

    `outer` is the Robin data at r = R; `inner` is the Robin data at r = a,
    or None at the center of a ball, where the row is the symmetric flux
    balance.  A Robin row with gamma = 0 is the Dirichlet row.  `f` may be
    replaced between solves on the same grid.

    The Jacobian is (2,2)-banded, and only its diagonal depends on phi (through
    f'(phi) on the flux rows).  The phi-independent bands are assembled once,
    in LAPACK's gbsv storage (two fill-in rows above the five bands), and each
    Newton step copies them into a reused Fortran-order buffer, adds f'(phi)
    to the diagonal and factors it in place.
    """

    def __init__(self, r, d, eps, f: Nonlinearity | None, inner: RobinData | None,
                 outer: RobinData):
        self.r = r
        self.d = d
        self.eps = eps
        self.f = f
        self.inner = inner
        self.outer = outer
        n = len(r)
        h = np.diff(r)
        rf = 0.5 * (r[:-1] + r[1:])  # faces between nodes
        self.face_coef = rf ** (d - 1) / h  # flux = face_coef * (phi_R - phi_L)
        # cell volumes (r^d difference / d); end cells are half cells
        rv = np.concatenate(([r[0]], rf, [r[-1]]))
        self.vol = (rv[1:] ** d - rv[:-1] ** d) / d
        self.n = n
        self.h = h
        self.sq_eps = math.sqrt(eps)
        # gbsv band storage: ab[4 + i - j, j] = J[i, j]; rows 0-1 are LU fill-in
        ab = np.zeros((7, n), order="F")
        a_up = eps * self.face_coef[1:] / self.vol[1:-1]
        a_dn = eps * self.face_coef[:-1] / self.vol[1:-1]
        ab[3, 2:] = a_up
        ab[5, :-2] = a_dn
        ab[4, 1:-1] = -(a_up + a_dn)
        # rounding floor: flux differences amplify value rounding by this factor
        self._floor_scale = float(np.max(eps * (self.face_coef[:-1] + self.face_coef[1:])
                                         / self.vol[1:-1]))
        if inner is None:
            c = eps * self.face_coef[0] / self.vol[0]
            ab[4, 0] = -c
            ab[3, 1] = c
            self._floor_scale = max(self._floor_scale, c)
            self._df_rows = slice(0, -1)
        else:
            g = inner.gamma * self.sq_eps
            c0, c1, c2 = _one_sided_coeffs(h[0], h[1])
            ab[4, 0] = 1.0 + g * c0
            ab[3, 1] = g * c1
            ab[2, 2] = g * c2
            self._df_rows = slice(1, -1)
        g = outer.gamma * self.sq_eps
        c0, c1, c2 = _one_sided_coeffs(h[-1], h[-2])
        ab[4, -1] = 1.0 + g * c0
        ab[5, -2] = g * c1
        ab[6, -3] = g * c2
        self._bands = ab
        self._lu = np.empty_like(ab, order="F")

    def residual(self, phi):
        """(residual vector, max |f(phi)| over the nodes)."""
        eps = self.eps
        flux = self.face_coef * np.diff(phi)
        fvals = np.asarray(self.f.f(phi), dtype=float)
        res = np.empty(self.n)
        res[1:-1] = eps * (flux[1:] - flux[:-1]) / self.vol[1:-1] + fvals[1:-1]
        if self.inner is None:
            res[0] = eps * flux[0] / self.vol[0] + fvals[0]
        else:
            c0, c1, c2 = _one_sided_coeffs(self.h[0], self.h[1])
            dphi = -(c0 * phi[0] + c1 * phi[1] + c2 * phi[2])  # phi'(a), inward stencil
            res[0] = phi[0] + self.inner.gamma * self.sq_eps * (-dphi) - self.inner.phi_bd
        c0, c1, c2 = _one_sided_coeffs(self.h[-1], self.h[-2])
        dphi = c0 * phi[-1] + c1 * phi[-2] + c2 * phi[-3]
        res[-1] = phi[-1] + self.outer.gamma * self.sq_eps * dphi - self.outer.phi_bd
        return res, float(np.max(np.abs(fvals)))

    def newton_step(self, phi, res):
        """The step s solving J(phi) s = -res.

        Raises ValueError on a non-finite f'(phi) or residual and
        numpy.linalg.LinAlgError on a singular Jacobian, as
        SciPy's solve_banded does.
        """
        dgbsv = _lapack().dgbsv
        lu = self._lu
        lu[...] = self._bands
        rows = self._df_rows
        lu[4, rows] += np.asarray(self.f.df(phi), dtype=float)[rows]
        rhs = -res
        if not (np.isfinite(lu[4]).all() and np.isfinite(rhs).all()):
            raise ValueError("Newton system must not contain infs or NaNs")
        _, _, step, info = dgbsv(2, 2, lu, rhs, overwrite_ab=1, overwrite_b=1)
        if info > 0:
            raise LinAlgError("singular matrix")
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dgbsv")
        return step

    def rounding_floor(self, phi):
        """Attainable residual level: flux differences amplify value rounding
        by eps * face_coef / vol, which dominates the floor on fine grids."""
        noise = 2.0**-50 * max(1.0, float(np.max(np.abs(phi))))
        return self._floor_scale * noise

    def conservation_residual(self, phi):
        """Discrete divergence identity: boundary face fluxes balance the
        cell integrals of f over the interior control volumes."""
        eps = self.eps
        flux = self.face_coef * np.diff(phi)
        fvals = np.asarray(self.f.f(phi), dtype=float)
        lo = 0 if self.inner is None else 1
        total = eps * flux[-1] + float(np.sum(self.vol[lo:-1] * fvals[lo:-1]))
        if self.inner is not None:
            total -= eps * flux[0]
        return abs(total) * unit_sphere_area(self.d)


_FLAPACK = "scipy.linalg._flapack"
_FLAPACK_LOCK = threading.Lock()  # one load per process, whichever thread solves first


def _lapack():
    """SciPy's f2py LAPACK module, whose dgbsv and dgtsv are the very objects
    scipy.linalg.lapack re-exports: the one in sys.modules if scipy.linalg (or
    an earlier call) loaded it, else its extension file alone, which skips
    scipy.linalg's __init__ (0.1 s, 322 modules, 26 MB in a fresh process)."""
    with _FLAPACK_LOCK:
        module = sys.modules.get(_FLAPACK)
        if module is None:
            import scipy

            module = _load_extension(_FLAPACK, os.path.join(scipy.__path__[0], "linalg"))
    return module


def _load_extension(name, directory):
    """Load the extension module `name` from `directory` and register it in
    sys.modules, so a later import of its package reuses it."""
    spec = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
    if spec is None:
        import scipy

        raise ImportError(f"no {name} extension in {directory} (scipy {scipy.__version__})",
                          name=name, path=directory)
    module = module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _not_a_knot(x, y):
    """Power-form coefficients (c0, c1, c2, c3) per panel of the not-a-knot cubic
    through (x, y), n >= 4 (de Boor, ch. IV): SciPy 1.17's cubic spline operation
    for operation, node slopes by the dgtsv it calls, so the bits are its bits."""
    dgtsv = _lapack().dgtsv
    dx = np.diff(x)
    slope = np.diff(y) / dx
    w0, w1 = x[2] - x[0], x[-1] - x[-3]
    diag = np.concatenate(([dx[1]], 2 * (dx[:-1] + dx[1:]), [dx[-2]]))
    rhs = np.empty(len(x))
    rhs[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    rhs[0] = ((dx[0] + 2 * w0) * dx[1] * slope[0] + dx[0]**2 * slope[1]) / w0
    rhs[-1] = (dx[-1]**2 * slope[-2] + (2 * w1 + dx[-1]) * dx[-2] * slope[-1]) / w1
    *_, s, info = dgtsv(np.append(dx[1:], w1), diag, np.append(w0, dx[:-1]), rhs, 1, 1, 1, 1)
    if info != 0:
        raise SolverError(f"the spline's slope system failed (dgtsv info {info})")
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    return t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]


def _panel(x, xq):
    """Panel of each query (the end panels extend beyond the ends) and offset in it."""
    i = np.clip(np.searchsorted(x, xq, "right") - 1, 0, len(x) - 2)
    return i, xq - x[i]


def _cubic_eval(x, c, xq):
    """(value, slope) at xq of the piecewise cubic with breakpoints x and
    coefficients c = _not_a_knot(x, y), summed as SciPy's PPoly sums them."""
    i, s = _panel(x, np.asarray(xq, dtype=float))
    c0, c1, c2, c3 = (ck[i] for ck in c)
    s2 = s * s
    return ((c3 + c2 * s) + c1 * s2) + c0 * (s2 * s), (c2 + c1 * s * 2) + c0 * s2 * 3


def _damped_newton(system: _RadialSystem, phi0):
    phi = np.array(phi0, dtype=float)
    res, f_max = system.residual(phi)
    norm = float(np.max(np.abs(res)))
    history = []

    def tol(p, f_max):
        return NEWTON_TOL * (1.0 + f_max) + system.rounding_floor(p)

    for it in range(MAX_NEWTON):
        if norm <= tol(phi, f_max):
            return phi, it, norm
        step = system.newton_step(phi, res)
        lam = 1.0
        for _ in range(MAX_DAMPING + 1):
            cand = phi + lam * step
            cres, cf_max = system.residual(cand)
            cnorm = float(np.max(np.abs(cres)))
            if np.isfinite(cnorm) and cnorm < norm:
                break
            lam *= 0.5
        else:
            raise NewtonDivergence(
                f"no residual decrease at iteration {it} (norm {norm:.3e})",
                damping_history=history,
            )
        history.append(lam)
        phi, res, norm, f_max = cand, cres, cnorm, cf_max
    if norm <= tol(phi, f_max):
        return phi, MAX_NEWTON, norm
    raise NewtonDivergence(
        f"Newton did not converge: final norm {norm:.3e}", damping_history=history
    )


# ---------------------------------------------------------------------------
# public solvers
# ---------------------------------------------------------------------------


def _radial_system(domain: DomainSpec, f: Nonlinearity | None, eps: float,
                   grid_opts) -> _RadialSystem:
    """The graded grid and assembled system of a ball or one annulus."""
    outer = domain.components[0]
    if outer.radius is None:
        raise ConfigError("the oracle needs spherical boundary components")
    inner = None
    if len(domain.components) > 1:
        inner = domain.components[1]
        if len(domain.components) != 2 or inner.radius is None:
            raise ConfigError("the radial oracle supports a ball or one annulus")
    r = graded_radial_grid(
        domain.dimension, outer.radius, None if inner is None else inner.radius,
        eps, **grid_opts,
    )
    return _RadialSystem(
        r, domain.dimension, eps, f, None if inner is None else inner.robin, outer.robin
    )


def _initial_on(initial, r):
    """An initial guess on grid r: an array given on r, or an earlier result
    sampled at r."""
    if isinstance(initial, RadialSolveResult):
        return initial.phi_at(r)
    return np.asarray(initial, dtype=float)


def _linearized_layers(system: _RadialSystem, f: Nonlinearity, phi_star: float):
    """phi* + sum_k A_k exp(-mu |r - r_k| / sqrt(eps)), with mu = sqrt(-f'(phi*))
    and A_k = (phi_bd,k - phi*) / (1 + gamma_k mu): the linearized Robin layer
    of each boundary.  Flat phi* when mu is not a finite positive rate."""
    r = system.r
    phi = np.full(system.n, phi_star)
    slope = -float(f.df(phi_star))
    if not 0.0 < slope < math.inf:
        return phi
    mu = math.sqrt(slope)
    layers = [(r[-1], system.outer)] + ([] if system.inner is None else [(r[0], system.inner)])
    for r_k, robin in layers:
        amp = (robin.phi_bd - phi_star) / (1.0 + robin.gamma * mu)
        phi += amp * np.exp(-mu / system.sq_eps * np.abs(r - r_k))
    return phi


def _stretched_start(system: _RadialSystem, initial: RadialSolveResult):
    """The earlier solve sampled at the same stretched depth |r - r_k|/sqrt(eps)
    from the nearest boundary r_k, so a layer solved at a larger eps narrows to
    this one.  Sample points stop at the center of a ball or the midpoint of
    an annulus; at equal eps they are r itself."""
    r = system.r
    stretch = math.sqrt(initial.eps / system.eps) - 1.0

    def mapped(r_k):  # r_k + sqrt(initial.eps / eps) (r - r_k), exact when stretch = 0
        return r + stretch * (r - r_k)

    if system.inner is None:
        return initial.phi_at(np.maximum(mapped(r[-1]), r[0]))
    mid = 0.5 * (r[0] + r[-1])
    return initial.phi_at(np.where(r >= mid, np.maximum(mapped(r[-1]), mid),
                                   np.minimum(mapped(r[0]), mid)))


def _boundary_data(domain: DomainSpec):
    """(robin, radii) of a result: (gamma, phi_bd) pairs and radii, outer first."""
    return (
        tuple((c.robin.gamma, c.robin.phi_bd) for c in domain.components),
        tuple(c.radius for c in domain.components),
    )


def solve_radial_dirichlet(
    f: Nonlinearity,
    radius: float,
    phi_bd: float,
    eps: float,
    d: int = 2,
    initial=None,
    **grid_opts,
) -> RadialSolveResult:
    """Dirichlet problem on the ball: the Robin problem with gamma = 0."""
    return solve_radial_robin_pb(
        make_ball(d, radius, RobinData(0.0, phi_bd)), f, eps, initial=initial, **grid_opts
    )


def solve_radial_robin_pb(
    domain: DomainSpec,
    f: Nonlinearity,
    eps: float,
    initial=None,
    **grid_opts,
) -> RadialSolveResult:
    """Robin problem on a ball or annulus with the local charge density f.

    `initial` is None (start from phi* plus the linearized layer of each
    boundary), an array on the solver's grid, or an earlier RadialSolveResult,
    which is sampled at the same stretched depth from the nearest boundary
    (continuation in eps).
    """
    if not f.monotone:
        raise ConfigError("the oracle requires a monotone charge density")
    system = _radial_system(domain, f, eps, grid_opts)
    phi_star = float(f.phi_star if f.phi_star is not None else find_reference_potential(f))
    if initial is None:
        phi0 = _linearized_layers(system, f, phi_star)
    elif isinstance(initial, RadialSolveResult):
        phi0 = _stretched_start(system, initial)
    else:
        phi0 = np.asarray(initial, dtype=float)
    phi, iters, norm = _damped_newton(system, phi0)
    robin, radii = _boundary_data(domain)
    return RadialSolveResult(
        model="pb", d=domain.dimension, eps=eps, r=system.r, phi=phi, newton_iters=iters,
        residual_norm=norm,
        conservation_residual=system.conservation_residual(phi),
        robin=robin, radii=radii, phi_eps_star=phi_star,
    )


def _density_from_normalizers(species, normalizers):
    a = np.array([s.amount * s.z / A for s, A in zip(species, normalizers)])
    b = np.array([-s.z for s in species])
    return _exp_terms_nonlinearity(a, b, 0.0, "custom", species)


def solve_radial_ccpb(
    domain: DomainSpec,
    species: list[IonSpecies],
    eps: float,
    initial=None,
    **grid_opts,
) -> RadialSolveResult:
    """Nonlocal conserved-charge solve on an annulus.

    Outer fixed point on the normalizer vector A_i = integral of
    exp(-z_i phi); each sweep reruns Newton on one grid and system with A
    frozen.  Anderson mixing (memory 3) takes over if plain iteration stalls.
    `initial` is as for solve_radial_robin_pb; None starts from phi = 0.
    """
    check_neutrality(species)
    domain.require_ccpb_admissible()
    if len(domain.components) != 2:
        raise ConfigError("the conserved-charge oracle needs an annulus")
    system = _radial_system(domain, None, eps, grid_opts)
    r, d = system.r, system.d
    weight = unit_sphere_area(d) * r ** (d - 1)
    norms = np.full(len(species), domain.volume)
    # this start pins the sweep trajectory bit for bit (TestOneSolvePath and the
    # benchmark reference) until the reference is regenerated
    phi = np.zeros(len(r)) if initial is None else _initial_on(initial, r)
    history_x = []
    history_g = []
    total_newton = 0
    for outer_it in range(1, MAX_OUTER + 1):
        system.f = _density_from_normalizers(species, norms)
        phi, iters, residual_norm = _damped_newton(system, phi)
        total_newton += iters
        new_norms = np.array(
            [np.trapezoid(np.exp(-s.z * phi) * weight, r) for s in species]
        )
        change = float(np.max(np.abs(new_norms / norms - 1.0)))
        if change <= A_TOL:
            norms = new_norms
            break
        # Anderson mixing on log-normalizers once plain iteration slows down
        x = np.log(norms)
        g = np.log(new_norms)
        history_x.append(x)
        history_g.append(g)
        if outer_it >= 5 and len(history_x) >= 2:
            m = min(3, len(history_x) - 1)
            xs = np.array(history_x[-(m + 1):])
            gs = np.array(history_g[-(m + 1):])
            fs = gs - xs
            df = np.diff(fs, axis=0)
            try:
                coef, *_ = np.linalg.lstsq(df.T, fs[-1], rcond=None)
                mixed = gs[-1] - coef @ np.diff(gs, axis=0)
                norms = np.exp(mixed)
            except np.linalg.LinAlgError:
                norms = new_norms
        else:
            norms = new_norms
    else:
        raise FixedPointStall(
            f"normalizer iteration did not converge in {MAX_OUTER} sweeps "
            f"(last relative change {change:.3e})"
        )
    # residuals of the last sweep, whose density system.f still holds
    conservation = system.conservation_residual(phi)
    f_eps = _density_from_normalizers(species, norms)
    phi_eps_star = find_reference_potential(f_eps)
    neutrality = float(
        np.trapezoid(np.asarray(f_eps.f(phi), dtype=float) * weight, r)
    )
    robin, radii = _boundary_data(domain)
    return RadialSolveResult(
        model="ccpb", d=d, eps=eps, r=r, phi=phi,
        newton_iters=total_newton,
        residual_norm=residual_norm,
        conservation_residual=conservation,
        robin=robin, radii=radii,
        normalizers=tuple(float(a) for a in norms),
        phi_eps_star=phi_eps_star,
        outer_iters=outer_it,
        neutrality=neutrality,
    )


# ---------------------------------------------------------------------------
# oracle vs expansion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryErrors:
    k: int
    e1: float
    e2: float
    field_err: float
    envelope: tuple | None  # fitted (M', M) over Region II, or None
    region2_max_dev: float | None
    region3_max_dev: float | None
    region3_bound_ok: bool | None


@dataclass(frozen=True)
class ExpansionErrorReport:
    model: str
    eps: float
    T: float
    beta: float | None
    boundaries: tuple[BoundaryErrors, ...]
    phi_ref: float

    def to_json_dict(self) -> dict:
        return {
            "model": self.model,
            "eps": self.eps,
            "T": self.T,
            "beta": self.beta,
            "phi_ref": self.phi_ref,
            "boundaries": [
                {
                    "k": b.k,
                    "E1": b.e1,
                    "E2": b.e2,
                    "field_err": b.field_err,
                    "envelope": None if b.envelope is None else
                    {"m_prime": b.envelope[0], "m_rate": b.envelope[1]},
                    "region2_max_dev": b.region2_max_dev,
                    "region3_max_dev": b.region3_max_dev,
                    "region3_bound_ok": b.region3_bound_ok,
                }
                for b in self.boundaries
            ],
        }


def _stretched_samples(oracle: RadialSolveResult, component, T):
    """(t, phi, dphi-along-(-nu)) on the stretched grid of one boundary."""
    sq = math.sqrt(oracle.eps)
    t = np.linspace(0.0, T, STRETCHED_SAMPLES)
    rs = component.radius + component.depth_sign * (t * sq)
    phi, dphi = _cubic_eval(oracle.r, oracle._cubic, rs)
    return t, phi, component.depth_sign * dphi


def compare_expansion(
    oracle: RadialSolveResult,
    domain: DomainSpec,
    bundles: Sequence[LayerBundle],
    T: float,
    beta: float | None = None,
) -> ExpansionErrorReport:
    """Sup errors of the one- and two-term expansions on the stretched grid,
    plus Region II envelope fits when the band parameters are orderable."""
    eps = oracle.eps
    sq = math.sqrt(eps)
    d = domain.dimension
    phi_ref = oracle.phi_eps_star
    results = []
    bands_ok = beta is not None and T * sq < eps**beta
    for comp, bundle in zip(domain.components, bundles):
        t, phi_or, coef_or = _stretched_samples(oracle, comp, T)
        u, du = profile_eval(bundle.u, t)
        v, dv = profile_eval(bundle.v, t)
        hfac = (d - 1) * comp.mean_curvature
        pred2 = u + sq * hfac * v
        coef2 = du / sq + hfac * dv
        if bundle.w is not None:
            w, dw = profile_eval(bundle.w, t)
            pred2 = pred2 + sq * w
            coef2 = coef2 + dw
        e1 = float(np.max(np.abs(phi_or - u)))
        e2 = float(np.max(np.abs(phi_or - pred2))) / sq
        field_err = float(np.max(np.abs(coef_or - coef2)))
        envelope = None
        r2_max = r3_max = None
        r3_ok = None
        if bands_ok:
            t_hi = eps ** (beta - 0.5)
            t_all = comp.depth_sign * (oracle.r - comp.radius) / sq
            band = (t_all >= T) & (t_all <= t_hi)
            if not band.any():
                raise RegionEmpty(f"no oracle nodes in Region II of component {comp.index}")
            dev = np.abs(oracle.phi[band] - phi_ref)
            tb = t_all[band]
            keep = dev > 1e-250
            if np.count_nonzero(keep) >= 4:
                slope, _ = np.polyfit(tb[keep], np.log(dev[keep]), 1)
                m_rate = max(-float(slope), 1e-12)
            else:
                m_rate = 1.0
            m_prime = float(np.max(dev * np.exp(m_rate * tb)))
            envelope = (m_prime, m_rate)
            r2_max = float(np.max(dev))
            # Region III: distance to the full boundary beyond eps**beta
            dist_all = np.min(
                [c.depth_sign * (oracle.r - c.radius) for c in domain.components], axis=0
            )
            far = dist_all > eps**beta
            if far.any():
                r3_max = float(np.max(np.abs(oracle.phi[far] - phi_ref)))
                r3_ok = bool(r3_max <= m_prime * math.exp(-m_rate * t_hi) * (1 + 1e-9) + 1e-300)
        results.append(
            BoundaryErrors(
                k=comp.index, e1=e1, e2=e2, field_err=field_err,
                envelope=envelope, region2_max_dev=r2_max,
                region3_max_dev=r3_max, region3_bound_ok=r3_ok,
            )
        )
    return ExpansionErrorReport(
        model=bundles[0].model, eps=eps, T=T, beta=beta if bands_ok else None,
        boundaries=tuple(results), phi_ref=float(phi_ref),
    )


def band_charge_integral(
    oracle: RadialSolveResult,
    domain: DomainSpec,
    k: int,
    f: Nonlinearity,
    params: RegionParams,
    region: str,
) -> float:
    """Oracle-side total charge in Region I or II of component k: the exact
    integral over the band of the not-a-knot cubic through f(phi) r^{d-1}."""
    comp = domain.components[k]
    d = domain.dimension
    depths = {"I": (0.0, params.inner_width), "II": (params.inner_width, params.outer_width)}
    lo, hi = sorted(comp.radius + comp.depth_sign * s for s in depths[region])
    r = oracle.r
    c0, c1, c2, c3 = _not_a_knot(r, np.asarray(f.f(oracle.phi), dtype=float) * r ** (d - 1))
    def area(i, h):  # integral of panel i's cubic over [r_i, r_i + h]
        return ((c0[i] * h / 4 + c1[i] / 3) * h + c2[i] / 2) * h * h + c3[i] * h
    (i, j), (s_lo, s_hi) = _panel(r, np.array([lo, hi]))
    total = np.sum(area(np.arange(i, j), np.diff(r)[i:j])) - area(i, s_lo) + area(j, s_hi)
    return unit_sphere_area(d) * float(total)
