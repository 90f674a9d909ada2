"""Brute-force radial ground truth.

Finite-volume discretization of -eps (r^{d-1} phi')' = r^{d-1} f(phi) on a
boundary-graded grid, solved by damped Newton with the exact Jacobian.  It
is tridiagonal but for the third entry of each Robin row, from the one-sided
3-point stencil of phi'.  Only its diagonal depends on phi, so each system
assembles the three bands and the two third entries once.  A local (PB)
Newton step adds f'(phi) to the diagonal of a copy, eliminates each Robin
row's third entry against its neighbouring flux row and solves the
tridiagonal system with LAPACK's dgtsv.  The conserved-charge sweeps solve
the same entries as five bands with dgbsv, bit for bit as before: the
benchmark's reference values pin their trajectory, and the tridiagonal step
moves one of them beyond its tolerance.  Cell-centered conservative fluxes
make the discrete divergence identity hold to solver tolerance.  Every
boundary row is a Robin row (gamma = 0 is the Dirichlet limit), and the
center of a ball is a symmetric flux row.

Each solve builds its grid and assembled system once.  The nonlocal
conserved-charge problem is an outer fixed point on the normalizer vector
(the domain integrals of exp(-z_i phi)) with Anderson mixing as a fallback;
each sweep reruns Newton on the same system with the sweep's frozen
normalizers.  A solve may warm-start from an earlier result, which is
sampled on the new grid by its not-a-knot cubic spline (continuation in eps).
A local (PB) solve samples it at the same stretched depth |r - r_k|/sqrt(eps)
from the nearest boundary, and starts cold from phi* plus the linearized
(Debye-Huckel) Robin layer of each boundary.  The spline's slopes are one
tridiagonal solve by dgtsv too.  dgtsv and dgbsv come from SciPy's
LAPACK extension, loaded alone with the first solve (_lapack): the
scipy.linalg package itself is never imported here.

Every result carries its bulk reference potential as phi_eps_star.

The solvers never consult the asymptotic machinery: initial guesses are
constants, the linearized layer built from the oracle's own f'(phi*) and
Robin data, or earlier oracle results.  Only stretched_layers and
compare_expansion do, to evaluate the expansion the oracle is compared with.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from dataclasses import asdict, dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec
from typing import Sequence

import numpy as np
from numpy.linalg import LinAlgError

from . import asymptotics
from .errors import (
    ConfigError,
    FixedPointStall,
    GridTooCoarse,
    NewtonDivergence,
    NonFiniteOutput,
    RegionEmpty,
    SolverError,
)
from .geometry import DomainSpec, RegionParams, unit_sphere_area
from .nonlinearity import (
    IonSpecies,
    Nonlinearity,
    _exp_terms_nonlinearity,
    check_neutrality,
    find_reference_potential,
)
from .numerics import write_csv
from .profiles import LayerBundle, RobinData

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

    The Jacobian is tridiagonal but for J[0, 2] and J[n-1, n-3], the third
    entries gamma sqrt(eps) c2 of the Robin rows (zero at gamma = 0 and at
    the center of a ball).  Only its diagonal depends on phi, through
    f'(phi) on the flux rows, so the bands and the third entries are
    assembled once.  The residual reads the one-sided stencils of the Robin
    rows computed for them, so residual and Jacobian share one stencil.
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
        # dgtsv's bands: lower[i] = J[i + 1, i], diag[i] = J[i, i], upper[i] = J[i, i + 1]
        lower, diag, upper = np.empty(n - 1), np.empty(n), np.empty(n - 1)
        a_up = eps * self.face_coef[1:] / self.vol[1:-1]
        a_dn = eps * self.face_coef[:-1] / self.vol[1:-1]
        upper[1:] = a_up
        lower[:-1] = a_dn
        diag[1:-1] = -(a_up + a_dn)
        # rounding floor: flux differences amplify value rounding by this factor
        self._floor_scale = float(np.max(eps * (self.face_coef[:-1] + self.face_coef[1:])
                                         / self.vol[1:-1]))
        if inner is None:
            c = eps * self.face_coef[0] / self.vol[0]
            diag[0] = -c
            upper[0] = c
            third_in = 0.0
            self._floor_scale = max(self._floor_scale, c)
            self._df_rows = slice(0, -1)
        else:
            g = inner.gamma * self.sq_eps
            c0, c1, c2 = self._inner_stencil = _one_sided_coeffs(h[0], h[1])
            diag[0] = 1.0 + g * c0
            upper[0] = g * c1
            third_in = g * c2
            self._df_rows = slice(1, -1)
        g = outer.gamma * self.sq_eps
        c0, c1, c2 = self._outer_stencil = _one_sided_coeffs(h[-1], h[-2])
        diag[-1] = 1.0 + g * c0
        lower[-1] = g * c1
        self._bands = (lower, diag, upper)
        self._thirds = (third_in, g * c2)  # J[0, 2], J[n-1, n-3]

    def residual(self, phi):
        """(residual vector, f(phi) at the nodes)."""
        eps = self.eps
        flux = self.face_coef * np.diff(phi)
        fvals = np.asarray(self.f.f(phi), dtype=float)
        res = np.empty(self.n)
        res[1:-1] = eps * (flux[1:] - flux[:-1]) / self.vol[1:-1] + fvals[1:-1]
        if self.inner is None:
            res[0] = eps * flux[0] / self.vol[0] + fvals[0]
        else:
            c0, c1, c2 = self._inner_stencil
            dphi = -(c0 * phi[0] + c1 * phi[1] + c2 * phi[2])  # phi'(a), inward stencil
            res[0] = phi[0] + self.inner.gamma * self.sq_eps * (-dphi) - self.inner.phi_bd
        c0, c1, c2 = self._outer_stencil
        dphi = c0 * phi[-1] + c1 * phi[-2] + c2 * phi[-3]
        res[-1] = phi[-1] + self.outer.gamma * self.sq_eps * dphi - self.outer.phi_bd
        return res, fvals

    def newton_step(self, phi, res):
        """The step s solving J(phi) s = -res, by dgtsv on a copy of the bands.

        Each Robin row's third entry is first eliminated by one row operation
        against its neighbouring flux row, whose coupling to that column is
        positive.  The rewritten row is about 1 + gamma sqrt(eps)/h on the
        diagonal and -gamma sqrt(eps)/h off it, so it does not cancel even at
        large gamma.  Raises ValueError on a non-finite f'(phi) or residual
        and numpy.linalg.LinAlgError on a singular Jacobian, as SciPy's
        solve_banded does.
        """
        lower, diag, upper = (band.copy() for band in self._bands)
        rows = self._df_rows
        diag[rows] += np.asarray(self.f.df(phi), dtype=float)[rows]
        rhs = -res
        _check_finite(diag, rhs)
        third_in, third_out = self._thirds
        if third_in:  # row 0 less (J[0, 2] / J[1, 2]) row 1
            m = third_in / upper[1]
            diag[0] -= m * lower[0]
            upper[0] -= m * diag[1]
            rhs[0] -= m * rhs[1]
        if third_out:  # row n-1 less (J[n-1, n-3] / J[n-2, n-3]) row n-2
            m = third_out / lower[-2]
            diag[-1] -= m * upper[-1]
            lower[-1] -= m * diag[-2]
            rhs[-1] -= m * rhs[-2]
        *_, step, info = _lapack().dgtsv(lower, diag, upper, rhs, 1, 1, 1, 1)
        return _solved(step, info, "dgtsv")

    def rounding_floor(self, phi):
        """Attainable residual level: flux differences amplify value rounding
        by eps * face_coef / vol, which dominates the floor on fine grids."""
        noise = 2.0**-50 * max(1.0, float(np.max(np.abs(phi))))
        return self._floor_scale * noise

    def conservation_residual(self, phi, fvals):
        """Discrete divergence identity: boundary face fluxes balance the
        cell integrals of f over the interior control volumes, given
        fvals = f(phi) at the nodes."""
        eps = self.eps
        flux = self.face_coef * np.diff(phi)
        lo = 0 if self.inner is None else 1
        total = eps * flux[-1] + float(np.sum(self.vol[lo:-1] * fvals[lo:-1]))
        if self.inner is not None:
            total -= eps * flux[0]
        return abs(total) * unit_sphere_area(self.d)


class _BandedSystem(_RadialSystem):
    """The conserved-charge sweeps' system: the same entries, each Newton
    step solved whole as five bands by dgbsv.

    Its steps, and so the sweeps' trajectory, are bit for bit those that
    perfbench/reference.json and TestOneSolvePath pin; the tridiagonal step
    moves one reference value beyond its tolerance.  It goes when the
    reference is regenerated from converged solves (ROADMAP item 1(a)).
    """

    def __init__(self, *args):
        super().__init__(*args)
        # gbsv storage: ab[4 + i - j, j] = J[i, j]; rows 0-1 are LU fill-in
        lower, diag, upper = self._bands
        ab = np.zeros((7, self.n), order="F")
        ab[3, 1:] = upper
        ab[4] = diag
        ab[5, :-1] = lower
        ab[2, 2], ab[6, -3] = self._thirds
        self._gb = ab
        self._lu = np.empty_like(ab, order="F")

    def newton_step(self, phi, res):
        """The step s solving J(phi) s = -res, errors as _RadialSystem's."""
        lu = self._lu
        lu[...] = self._gb
        rows = self._df_rows
        lu[4, rows] += np.asarray(self.f.df(phi), dtype=float)[rows]
        rhs = -res
        _check_finite(lu[4], rhs)
        _, _, step, info = _lapack().dgbsv(2, 2, lu, rhs, overwrite_ab=1, overwrite_b=1)
        return _solved(step, info, "dgbsv")


def _check_finite(diag, rhs):
    if not (np.isfinite(diag).all() and np.isfinite(rhs).all()):
        raise ValueError("Newton system must not contain infs or NaNs")


def _solved(step, info, routine):
    """The step of a LAPACK solve, or the error its info code reports."""
    if info > 0:
        raise LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {routine}")
    return step


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
    """(phi, iterations, residual norm, f(phi) at the nodes) of the damped
    Newton solve from phi0."""
    phi = np.array(phi0, dtype=float)
    res, fvals = system.residual(phi)
    norm = float(np.max(np.abs(res)))
    history = []

    def tol(p, fvals):
        return NEWTON_TOL * (1.0 + float(np.max(np.abs(fvals)))) + system.rounding_floor(p)

    for it in range(MAX_NEWTON):
        if norm <= tol(phi, fvals):
            return phi, it, norm, fvals
        step = system.newton_step(phi, res)
        lam = 1.0
        for _ in range(MAX_DAMPING + 1):
            cand = phi + lam * step
            cres, cfvals = system.residual(cand)
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
        phi, res, norm, fvals = cand, cres, cnorm, cfvals
    if norm <= tol(phi, fvals):
        return phi, MAX_NEWTON, norm, fvals
    raise NewtonDivergence(
        f"Newton did not converge: final norm {norm:.3e}", damping_history=history
    )


# ---------------------------------------------------------------------------
# public solvers
# ---------------------------------------------------------------------------


def _radial_system(domain: DomainSpec, f: Nonlinearity | None, eps: float,
                   grid_opts, system=_RadialSystem) -> _RadialSystem:
    """The graded grid and assembled `system` of a ball or one annulus."""
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
    return system(
        r, domain.dimension, eps, f, None if inner is None else inner.robin, outer.robin
    )


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
    phi, iters, norm, fvals = _damped_newton(system, phi0)
    robin, radii = _boundary_data(domain)
    return RadialSolveResult(
        model="pb", d=domain.dimension, eps=eps, r=system.r, phi=phi, newton_iters=iters,
        residual_norm=norm,
        conservation_residual=system.conservation_residual(phi, fvals),
        robin=robin, radii=radii, phi_eps_star=phi_star,
    )


def _density_from_normalizers(species, normalizers):
    a = np.array([s.amount * s.z / A for s, A in zip(species, normalizers)])
    b = np.array([-s.z for s in species])
    return _exp_terms_nonlinearity(a, b, 0.0, "custom")


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
    system = _radial_system(domain, None, eps, grid_opts, _BandedSystem)
    r, d = system.r, system.d
    weight = unit_sphere_area(d) * r ** (d - 1)
    norms = np.full(len(species), domain.volume)
    # this start pins the sweep trajectory bit for bit (TestOneSolvePath and the
    # benchmark reference) until the reference is regenerated
    if initial is None:
        phi = np.zeros(len(r))
    elif isinstance(initial, RadialSolveResult):
        phi = initial.phi_at(r)
    else:
        phi = np.asarray(initial, dtype=float)
    history_x = []
    history_g = []
    total_newton = 0
    for outer_it in range(1, MAX_OUTER + 1):
        system.f = _density_from_normalizers(species, norms)
        phi, iters, residual_norm, fvals = _damped_newton(system, phi)
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
    # residuals of the last sweep, whose density gave fvals
    conservation = system.conservation_residual(phi, fvals)
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
    E1: float
    E2: float
    field_err: float
    # max |phi - phi_eps_star| over the oracle nodes in Region II of this
    # boundary and in Region III; None when the bands are not ordered
    region2_max_dev: float | None
    region3_max_dev: float | None


@dataclass(frozen=True)
class ExpansionErrorReport:
    model: str
    eps: float
    T: float
    beta: float | None
    boundaries: tuple[BoundaryErrors, ...]
    phi_ref: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def stretched_layers(bundles: Sequence[LayerBundle], T: float) -> list[asymptotics.LayerSample]:
    """The sample of each bundle at the STRETCHED_SAMPLES depths on
    [0, T] where compare_expansion compares; one serves every eps."""
    t = np.linspace(0.0, T, STRETCHED_SAMPLES)
    return [asymptotics.sample(bundle, t) for bundle in bundles]


def _stretched_samples(oracle: RadialSolveResult, component, t):
    """(phi, dphi-along-(-nu)) at the stretched depths t of one boundary."""
    rs = component.radius + component.depth_sign * (t * math.sqrt(oracle.eps))
    phi, dphi = _cubic_eval(oracle.r, oracle._cubic, rs)
    return phi, component.depth_sign * dphi


def compare_expansion(
    oracle: RadialSolveResult,
    domain: DomainSpec,
    layers: Sequence[asymptotics.LayerSample],
    bands: RegionParams | None = None,
) -> ExpansionErrorReport:
    """Sup errors of the one- and two-term expansions at the depths of
    layers, one sample per boundary at the same depths from 0 to T
    (stretched_layers), each read through the query of its boundary at the
    oracle's eps.  Given bands at the oracle's eps and this T, also the
    oracle's largest deviation from phi_eps_star over its nodes in Region II
    of each boundary and in Region III."""
    eps = oracle.eps
    sq = math.sqrt(eps)
    phi_ref = oracle.phi_eps_star
    T = float(layers[0].t[-1])
    if bands is not None and (bands.eps, bands.T) != (eps, T):
        raise ConfigError(f"bands at (eps, T) = {(bands.eps, bands.T)}, oracle at {(eps, T)}")
    depths = [c.depth_sign * (oracle.r - c.radius) for c in domain.components]
    r3_max = None
    if bands is not None:
        # Region III: distance to the full boundary beyond eps**beta
        far = bands.band(np.min(depths, axis=0)) == 3
        if far.any():
            r3_max = float(np.max(np.abs(oracle.phi[far] - phi_ref)))
    results = []
    for comp, layer, depth in zip(domain.components, layers, depths):
        phi_or, coef_or = _stretched_samples(oracle, comp, layer.t)
        q = asymptotics.ExpansionQuery(comp.mean_curvature, eps, 2, domain.dimension)
        E1 = float(np.max(np.abs(phi_or - layer.u)))
        E2 = float(np.max(np.abs(phi_or - layer.potential(q)))) / sq
        field_err = float(np.max(np.abs(coef_or - layer.field(q))))
        r2_max = None
        if bands is not None:
            band = bands.band(depth) == 2
            if not band.any():
                raise RegionEmpty(f"no oracle nodes in Region II of component {comp.index}")
            r2_max = float(np.max(np.abs(oracle.phi[band] - phi_ref)))
        results.append(
            BoundaryErrors(
                k=comp.index, E1=E1, E2=E2, field_err=field_err,
                region2_max_dev=r2_max, region3_max_dev=r3_max,
            )
        )
    return ExpansionErrorReport(
        model=layers[0].bundle.model, eps=eps, T=T, beta=None if bands is None else bands.beta,
        boundaries=tuple(results), phi_ref=float(phi_ref),
    )


def band_charge_integral(
    oracle: RadialSolveResult,
    domain: DomainSpec,
    k: int,
    f: Nonlinearity,
    params: RegionParams,
    band: int,
) -> float:
    """Oracle-side total charge in Region I (band 1) or II (band 2) of
    component k: the exact integral over the band of the not-a-knot cubic
    through f(phi) r^{d-1}."""
    comp = domain.components[k]
    d = domain.dimension
    lo, hi = sorted(comp.radius + comp.depth_sign * s for s in params.depths(band))
    r = oracle.r
    c0, c1, c2, c3 = _not_a_knot(r, np.asarray(f.f(oracle.phi), dtype=float) * r ** (d - 1))
    def area(i, h):  # integral of panel i's cubic over [r_i, r_i + h]
        return ((c0[i] * h / 4 + c1[i] / 3) * h + c2[i] / 2) * h * h + c3[i] * h
    (i, j), (s_lo, s_hi) = _panel(r, np.array([lo, hi]))
    total = np.sum(area(np.arange(i, j), np.diff(r)[i:j])) - area(i, s_lo) + area(j, s_hi)
    return unit_sphere_area(d) * float(total)
