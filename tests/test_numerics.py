"""The CSV writer of every artifact against the row-by-row `%r` writer and
the nested-list orjson writer it replaced: same header, same rows, every
value reloading bit-equal, the same bytes as the nested-list writer."""

import numpy as np
import orjson
import pytest

from pblayers.errors import NonFiniteOutput, SolverError
from pblayers.numerics import write_csv
from pblayers.profiles import DEFAULT_NODES, Profile


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
    u = std_bundle["u"]
    assert len(u.t) == DEFAULT_NODES
    compare(tmp_path, "t,value,derivative", (u.t, u.values, u.derivs))


@pytest.mark.parametrize("row", [(0.0, -0.0, 5e-324), (1e16, 3.82e-5, -1.1e278)])
def test_single_row(tmp_path, row):
    compare(tmp_path, "a,b,c", tuple(np.array([x]) for x in row))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_profile_writes_nothing(tmp_path, std_bundle, bad):
    u = std_bundle["u"]
    values = u.values.copy()
    values[len(values) // 2] = bad
    prof = Profile("u", u.t, values, u.derivs, u.second_derivs, u.tail, u.robin)
    path = tmp_path / "u_k0.csv"
    with pytest.raises(NonFiniteOutput, match="u_k0.csv") as info:
        prof.to_csv(path)
    assert isinstance(info.value, SolverError)
    assert not path.exists()
