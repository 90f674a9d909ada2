"""The CSV writer of every artifact against the row-by-row `%r` writer and
the nested-list orjson writer it replaced: same header, same rows, every
value reloading bit-equal, the same bytes as the nested-list writer.  The
Brent root finder against scipy's brentq, which it transcribes: the same
evaluation points and result bits, and typed errors where brentq raises
ValueError or RuntimeError."""

import math

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from pblayers.ccpb import PHI0_TOL
from pblayers.errors import (
    NaNFunctionValue,
    NonFiniteOutput,
    NoSignChange,
    RootNotConverged,
    SolverError,
)
from pblayers.numerics import BRENT_MAXITER, brent_root, write_csv
from pblayers.profiles import BOUNDARY_RTOL, DEFAULT_NODES, Profile


def reference_write_csv(path, header, rows):
    """The former writer: tuples of Python floats, each as its repr."""
    line = ",".join(["%r"] * (header.count(",") + 1)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.writelines(line % row for row in rows)


def reference_write_csv_2d(path, header, columns):
    """The former orjson writer: the (n, k) table dumped as nested lists,
    whose row brackets turn into line breaks."""
    table = np.column_stack(columns)
    rows = orjson.dumps(table, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].replace(b"],[", b"\n")
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n" + rows + b"\n")


def adversarial_values(n_random=20000):
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
               np.finfo(float).max, -np.finfo(float).max, 1e-7, 1.1e278, 1e15, 1e16,
               1e-5, 1e-4, 3.82e-5, 9.999999999999999e-5, 1.0, -1.0, 0.1, 1 / 3]
    rng = np.random.default_rng(20250518)
    bits = rng.integers(0, 2**64, n_random, dtype=np.uint64).view(np.float64)
    decade = 10.0 ** rng.uniform(-5.0, -4.0, n_random)  # the positional band
    normals = rng.standard_normal(n_random) * 10.0 ** rng.uniform(-20, 20, n_random)
    values = np.concatenate((special, bits[np.isfinite(bits)], decade, normals))
    return values[: 3 * (len(values) // 3)]


def compare(tmp_path, header, columns):
    got, want, nested = tmp_path / "got.csv", tmp_path / "want.csv", tmp_path / "nested.csv"
    write_csv(got, header, columns)
    reference_write_csv(want, header, zip(*(c.tolist() for c in columns)))
    reference_write_csv_2d(nested, header, columns)
    assert got.read_bytes() == nested.read_bytes()
    got_lines = got.read_bytes().split(b"\n")
    want_lines = want.read_bytes().split(b"\n")
    # every row ends in "\n": the last split piece is empty on both sides
    assert got_lines[-1] == want_lines[-1] == b""
    assert got_lines[0] == want_lines[0] == header.encode()
    assert len(got_lines) == len(want_lines) == len(columns[0]) + 2
    got_vals = np.array([[float(x) for x in ln.split(b",")] for ln in got_lines[1:-1]])
    want_vals = np.array([[float(x) for x in ln.split(b",")] for ln in want_lines[1:-1]])
    assert got_vals.shape == (len(columns[0]), len(columns))
    assert np.array_equal(got_vals.view(np.uint64), want_vals.view(np.uint64))
    assert np.array_equal(got_vals.view(np.uint64), np.column_stack(columns).view(np.uint64))


def test_adversarial_values_reload_bit_equal(tmp_path):
    cols = adversarial_values().reshape(3, -1)
    compare(tmp_path, "a,b,c", (cols[0], cols[1], cols[2]))


@pytest.mark.parametrize("header", ["a", "r,phi"])
def test_one_and_two_columns(tmp_path, header):
    n_cols = header.count(",") + 1
    values = adversarial_values(2000)
    compare(tmp_path, header, tuple(values[: n_cols * (len(values) // n_cols)].reshape(n_cols, -1)))


def test_real_profile_reloads_bit_equal(tmp_path, std_bundle):
    u = std_bundle.u
    assert len(u.t) == DEFAULT_NODES
    compare(tmp_path, "t,value,derivative", (u.t, u.values, u.derivs))


@pytest.mark.parametrize("row", [(0.0, -0.0, 5e-324), (1e16, 3.82e-5, -1.1e278)])
def test_single_row(tmp_path, row):
    compare(tmp_path, "a,b,c", tuple(np.array([x]) for x in row))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_profile_writes_nothing(tmp_path, std_bundle, bad):
    u = std_bundle.u
    values = u.values.copy()
    values[len(values) // 2] = bad
    prof = Profile("u", u.t, values, u.derivs, u.second_derivs, u.tail, u.robin)
    path = tmp_path / "u_k0.csv"
    with pytest.raises(NonFiniteOutput, match="u_k0.csv") as info:
        prof.to_csv(path)
    assert isinstance(info.value, SolverError)
    assert not path.exists()


def traced(fn, points):
    def f(x):
        points.append(x.hex())
        return fn(x)
    return f


def run_both(fn, a, b, xtol, rtol):
    """(evaluation points, result hex or exception type) of brent_root and of
    brentq with its default maxiter, which is BRENT_MAXITER."""
    out = []
    for solver in (brent_root, lambda f, a, b, xtol, rtol: brentq(f, a, b, xtol=xtol, rtol=rtol)):
        points = []
        try:
            res = solver(traced(fn, points), a, b, xtol, rtol).hex()
        except (SolverError, ValueError, RuntimeError) as exc:
            res = type(exc)
        out.append((points, res))
    return out


@st.composite
def monotone_exp_sums(draw):
    """f(x) = sign * (sum_i c_i exp(b_i x) - k), each term increasing, zero
    near r; a bracket [r - left, r + right] in either order."""
    n = draw(st.integers(1, 3))
    signs = st.sampled_from((-1.0, 1.0))
    b = [draw(st.floats(0.1, 4.0)) * draw(signs) for _ in range(n)]
    c = [math.copysign(draw(st.floats(0.1, 10.0)), bi) for bi in b]
    r = draw(st.floats(-3.0, 3.0))
    k = sum(ci * math.exp(bi * r) for ci, bi in zip(c, b))
    sign = draw(signs)

    def fn(x):
        return sign * (sum(ci * math.exp(bi * x) for ci, bi in zip(c, b)) - k)

    lo, hi = r - draw(st.floats(1e-3, 5.0)), r + draw(st.floats(1e-3, 5.0))
    return (fn, lo, hi) if draw(st.booleans()) else (fn, hi, lo)


TOLERANCES = st.one_of(
    st.sampled_from([(PHI0_TOL, PHI0_TOL), (BOUNDARY_RTOL, BOUNDARY_RTOL),
                     (2e-12, 4 * np.finfo(float).eps)]),
    st.tuples(st.floats(1e-16, 1e-4), st.floats(4 * np.finfo(float).eps, 1e-4)),
)


class TestBrentRoot:
    @given(monotone_exp_sums(), TOLERANCES)
    @settings(max_examples=400, deadline=None)
    def test_same_points_and_bits_as_brentq(self, problem, tols):
        fn, a, b = problem
        (got_points, got), (want_points, want) = run_both(fn, a, b, *tols)
        assert got_points == want_points
        assert got == want
        assert isinstance(got, str)  # a sign change on every bracket drawn

    def test_nan_value_raises_typed_error(self):
        (points, got), (want_points, want) = run_both(
            lambda x: x if x < 0.5 else math.nan, -1.0, 2.0, PHI0_TOL, PHI0_TOL
        )
        assert got is NaNFunctionValue and want is ValueError
        assert points == want_points == [(-1.0).hex(), (2.0).hex()]
        assert issubclass(NaNFunctionValue, SolverError)

    def test_no_sign_change_raises_typed_error(self):
        (points, got), (_, want) = run_both(lambda x: x * x + 1.0, -1.0, 2.0, PHI0_TOL, PHI0_TOL)
        assert got is NoSignChange and want is ValueError
        assert len(points) == 2
        assert issubclass(NoSignChange, SolverError)

    def test_no_convergence_raises_typed_error(self):
        # a step function leaves only bisection, from a bracket of width 4
        # down to xtol = 1e-300: far more than BRENT_MAXITER halvings
        (points, got), (want_points, want) = run_both(
            lambda x: math.copysign(1.0, x), -1.0, 3.0, 1e-300, 4 * np.finfo(float).eps
        )
        assert got is RootNotConverged and want is RuntimeError
        assert points == want_points
        assert len(points) == BRENT_MAXITER + 2
        assert issubclass(RootNotConverged, SolverError)
