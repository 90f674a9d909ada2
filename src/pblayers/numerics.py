"""Small shared numerical kernels: panel quadrature, quintic Hermite
evaluation, the bisection behind the reference potential, the Brent root
finder of the bulk potential and the Robin boundary values, the CSV
writer of every artifact, and the scalar test of the evaluators."""

from __future__ import annotations

import numpy as np
import orjson

from .errors import NaNFunctionValue, NonFiniteOutput, NoSignChange, RootNotConverged

# 5-point Gauss-Legendre rule on [-1, 1]
_GL5_X = np.array([
    -0.906179845938663992797626878299,
    -0.538469310105683091036314420700,
    0.0,
    0.538469310105683091036314420700,
    0.906179845938663992797626878299,
])
_GL5_W = np.array([
    0.236926885056189087514264040720,
    0.478628670499366468041291514836,
    0.568888888888888888888888888889,
    0.478628670499366468041291514836,
    0.236926885056189087514264040720,
])

CLUSTER_BLEND = 0.9  # weight of the cosine map in boundary_clustered_nodes
BISECT_STEPS = 200
BRENT_MAXITER = 100  # iterations of brent_root, the default of SciPy's brentq


_REAL_SCALARS = (float, int, np.floating, np.integer)


def is_scalar(x) -> bool:
    """A Python or numpy real number, or a 0-d array: what an evaluator
    answers with a float.  Lists, tuples and other arrays are arrays."""
    return isinstance(x, _REAL_SCALARS) or (isinstance(x, np.ndarray) and x.ndim == 0)


def gauss_panels(a: np.ndarray, b: np.ndarray):
    """Gauss-Legendre nodes/weights for the panels [a_i, b_i].

    Returns (x, w) of shape (len(a), 5); sum(fn(x) * w, axis=1) integrates
    each panel.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid[:, None] + half[:, None] * _GL5_X[None, :]
    w = half[:, None] * _GL5_W[None, :]
    return x, w


def _gl5_partial_matrix():
    """(5, 7) matrix P: P @ y integrates the degree-6 interpolant through y at
    (-1, the five Gauss abscissae, 1) from -1 to each Gauss abscissa."""
    s = np.concatenate(([-1.0], _GL5_X, [1.0]))
    p = np.arange(1, 8)
    antideriv = (_GL5_X[:, None] ** p - (-1.0) ** p) / p
    return np.linalg.solve(np.vander(s, 7, increasing=True).T, antideriv.T).T


GL5_PARTIAL = _gl5_partial_matrix()


def hermite_eval(tq, t, y, dy, d2y, second: bool = False):
    """Evaluate the piecewise quintic Hermite interpolant of (t, y, dy, d2y)
    at tq: on each panel [t_j, t_j+1] the quintic that matches value, slope
    and second derivative at both ends, O(h^6) in value and O(h^5) in slope.

    It is summed in difference form: with h = t_j+1 - t_j and
    s = (tq - t_j) / h, p = y_j + h y'_j s + h^2 y''_j s^2 / 2
    + (a3 + a4 s + a5 s^2) s^3, where a3..a5 are combinations of the misfits
    at s = 1 of the Taylor part, y_j+1 - y_j - h y'_j - h^2 y''_j / 2,
    h (y'_j+1 - y'_j) - h^2 y''_j and h^2 (y''_j+1 - y''_j).  The slope
    then carries the rounding of y_j+1 - y_j, not the eps |y| / h of a sum
    y_j H_0(s) + y_j+1 H_5(s).  Returns (value, slope) arrays of tq's shape,
    and the second derivative third when `second` is set, exact at the left
    node of each panel.  tq must lie inside [t[0], t[-1]].
    """
    tq = np.asarray(tq, dtype=float)
    idx = np.clip(np.searchsorted(t, tq, side="right") - 1, 0, len(t) - 2)
    h = t[idx + 1] - t[idx]
    s = (tq - t[idx]) / h
    y0, d0, c0 = y[idx], dy[idx], d2y[idx]
    slope = h * d0  # the Taylor part at s = 1, in units of the panel
    curv = h * h * c0
    miss = y[idx + 1] - y0 - slope - 0.5 * curv
    miss_slope = h * dy[idx + 1] - slope - curv
    miss_curv = h * h * d2y[idx + 1] - curv
    a3 = 10.0 * miss - 4.0 * miss_slope + 0.5 * miss_curv
    a4 = -15.0 * miss + 7.0 * miss_slope - miss_curv
    a5 = 6.0 * miss - 3.0 * miss_slope + 0.5 * miss_curv
    val = y0 + s * (slope + s * (0.5 * curv + s * (a3 + s * (a4 + s * a5))))
    der = d0 + s * (curv + s * (3.0 * a3 + s * (4.0 * a4 + s * (5.0 * a5)))) / h
    if not second:
        return val, der
    sec = c0 + s * (6.0 * a3 + s * (12.0 * a4 + s * (20.0 * a5))) / (h * h)
    return val, der, sec


def boundary_clustered_nodes(n: int, span: float):
    """n cosine-graded nodes on [0, span], clustered at 0 only.

    solve_u grades the decades -log10((u - phi*) / (u(0) - phi*)) of its
    offsets with it: the cosine map concentrates resolution at the boundary,
    where the inner sublayer of a large potential drop lives, and the uniform
    blend keeps the minimum spacing at (1-CLUSTER_BLEND)*span/(n-1), so
    consecutive offsets stay distinct doubles and the tail nodes, where
    t grows linearly in the decades, stay evenly spaced in t.
    """
    xi = np.linspace(0.0, 1.0, n)
    return span * ((1.0 - CLUSTER_BLEND) * xi + CLUSTER_BLEND * (1.0 - np.cos(0.5 * np.pi * xi)))


def bisect_root(left_of_root, lo: float, hi: float, rtol: float) -> float:
    """Midpoint of the bracket [lo, hi], halved toward the root (above x
    where left_of_root(x)) until hi - lo <= rtol * max(1, |mid|), at most
    BISECT_STEPS times."""
    for _ in range(BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        if hi - lo <= rtol * max(1.0, abs(mid)):
            break
        if left_of_root(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# brent_root transcribes SciPy's optimize/Zeros/brentq.c (by Charles Harris).
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
# All rights reserved.  Used under the BSD 3-Clause License, whose conditions
# and disclaimer are in LICENSES/SciPy-BSD-3-Clause.txt of this repository.
def brent_root(f, a: float, b: float, xtol: float, rtol: float, what: str = "f") -> float:
    """Root of f between a and b by Brent's method, operation for operation
    SciPy's brentq: the same evaluation points and bits.  Stops when f is 0
    or half the bracket is below (xtol + rtol |x|) / 2.  Raises
    NaNFunctionValue on a NaN value of f, NoSignChange (naming f `what`) when
    f(a) and f(b) share a sign, RootNotConverged after BRENT_MAXITER
    iterations."""

    def fn(x):
        fx = float(f(x))
        if np.isnan(fx):
            raise NaNFunctionValue(f"root function is NaN at x={x!r}")
        return fx

    # xcur is the newest estimate, xpre the one before, and [xblk, xcur]
    # brackets the root with |f(xcur)| <= |f(xblk)|
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = fn(xpre), fn(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise NoSignChange(
            f"{what} does not change sign on [{xpre!r}, {xcur!r}]: {fpre!r} and {fcur!r}"
        )
    for _ in range(BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = fn(xcur)
    raise RootNotConverged(f"no convergence in {BRENT_MAXITER} iterations, last x={xcur!r}")


def write_csv(path, header: str, columns):
    """Write equal-length float columns under a header line, one column per
    header field.  orjson formats every value at once as its shortest
    round-trip decimal, so files are deterministic and reload exactly.
    Raises NonFiniteOutput, before the file is opened, on NaN or inf."""
    table = np.column_stack(columns)
    if not np.isfinite(table).all():
        raise NonFiniteOutput(f"{path}: non-finite value in {header} columns")
    # "[a,b,c,d]" -> "a,b\nc,d\n": the closing bracket becomes the last
    # separator and every n_cols-th separator a line break
    buf = bytearray(orjson.dumps(table.ravel(), option=orjson.OPT_SERIALIZE_NUMPY))
    chars = np.frombuffer(buf, dtype=np.uint8)
    chars[-1] = ord(",")
    chars[np.flatnonzero(chars == ord(","))[table.shape[1] - 1 :: table.shape[1]]] = ord("\n")
    with open(path, "wb") as fh:
        fh.write(f"{header}\n".encode())
        fh.write(memoryview(buf)[1:])
