"""Small shared numerical kernels: panel quadrature, Hermite evaluation,
finite differences on nonuniform grids, the bisection behind the reference
potential (the bulk potential and the Robin boundary values use scipy's
brentq), and the CSV writer of every artifact."""

from __future__ import annotations

import numpy as np
import orjson

from .errors import NonFiniteOutput

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


def panel_integrals(fn, a, b):
    """Integral of fn over each panel [a_i, b_i] by 5-point Gauss."""
    x, w = gauss_panels(a, b)
    return np.sum(fn(x.ravel()).reshape(x.shape) * w, axis=1)


def hermite_eval(tq, t, y, dy):
    """Evaluate the piecewise cubic Hermite interpolant of (t, y, dy) at tq.

    Matches values and first derivatives at the nodes exactly.  Returns
    (value, derivative) arrays of tq's shape.  tq must lie inside [t[0], t[-1]].
    """
    tq = np.asarray(tq, dtype=float)
    idx = np.clip(np.searchsorted(t, tq, side="right") - 1, 0, len(t) - 2)
    h = t[idx + 1] - t[idx]
    s = (tq - t[idx]) / h
    y0, y1 = y[idx], y[idx + 1]
    d0, d1 = dy[idx], dy[idx + 1]
    # standard Hermite basis
    s2 = s * s
    s3 = s2 * s
    h00 = 2 * s3 - 3 * s2 + 1
    h10 = s3 - 2 * s2 + s
    h01 = -2 * s3 + 3 * s2
    h11 = s3 - s2
    val = h00 * y0 + h * h10 * d0 + h01 * y1 + h * h11 * d1
    dh00 = (6 * s2 - 6 * s) / h
    dh10 = 3 * s2 - 4 * s + 1
    dh01 = (-6 * s2 + 6 * s) / h
    dh11 = 3 * s2 - 2 * s
    der = dh00 * y0 + dh10 * d0 + dh01 * y1 + dh11 * d1
    return val, der


def second_difference(t, y):
    """Three-point second derivative on a nonuniform grid (interior nodes).

    Exact for quadratics; second order on smoothly graded grids.  Returns an
    array of len(t) - 2 values for nodes 1..n-2.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    hl = t[1:-1] - t[:-2]
    hr = t[2:] - t[1:-1]
    return 2.0 * (hl * y[2:] - (hl + hr) * y[1:-1] + hr * y[:-2]) / (
        hl * hr * (hl + hr)
    )


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
