import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repgraph import (
    ContractError,
    LengthMismatchError,
    MalformedHeaderError,
    Rng,
    ShapeError,
    Tensor4,
    load_tensor,
    reshape_nodes,
    save_tensor,
    unflatten_nodes,
)
from repgraph.autograd import Tape, einsum2
from repgraph.tensor import MAGIC


def matmul(a, b):
    """2-D matrix product through ``einsum2``, the one contraction kernel."""
    tape = Tape()
    return einsum2("ij,jk->ik", tape.constant(a), tape.constant(b)).value


def naive_matmul(a, b):
    """Triple-loop reference, deliberately independent of numpy's matmul."""
    m, k = a.shape
    k2, p = b.shape
    out = np.zeros((m, p))
    for i in range(m):
        for j in range(p):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


class TestMatmul:
    def test_identity(self):
        eye = np.eye(2)
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(matmul(eye, b), b)

    def test_row_times_column(self):
        out = matmul(np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]]))
        assert out.shape == (1, 1)
        assert out[0, 0] == 11.0

    def test_matches_triple_loop_oracle(self):
        rng = Rng(13)
        a = rng.uniform(-1, 1, (7, 5))
        b = rng.uniform(-1, 1, (5, 3))
        assert np.abs(matmul(a, b) - naive_matmul(a, b)).max() < 1e-12

    def test_associativity_on_random_chains(self):
        rng = Rng(5)
        for _ in range(5):
            a, b, c = (rng.uniform(-1, 1, (8, 8)) for _ in range(3))
            left = matmul(matmul(a, b), c)
            right = matmul(a, matmul(b, c))
            rel = np.abs(left - right) / np.maximum(1.0, np.abs(left))
            assert rel.max() < 1e-10


class TestReshapeNodes:
    def test_small_shape_and_round_trip(self):
        x = Rng(0).tensor((1, 3, 2, 2))
        mat = reshape_nodes(x)
        assert mat.shape == (4, 3)
        assert np.array_equal(unflatten_nodes(mat, x.shape).data, x.data)

    def test_degenerate_spatial(self):
        x = Rng(1).tensor((2, 1, 1, 1))
        assert reshape_nodes(x).shape == (2, 1)

    def test_index_arithmetic_oracle(self):
        x = Rng(2).tensor((2, 4, 3, 5))
        mat = reshape_nodes(x)
        n, c, h, w = x.shape
        for i in range(n * h * w):
            b, pos = divmod(i, h * w)
            y, xw = divmod(pos, w)
            assert np.array_equal(mat[i], x.data[b, :, y, xw])

    def test_round_trip_exhaustive_small_shapes(self):
        rng = Rng(3)
        for n, c, h, w in itertools.product(range(1, 9), repeat=4):
            x = Tensor4(rng.uniform(-1, 1, (n, c, h, w), dtype=np.float32))
            assert np.array_equal(unflatten_nodes(reshape_nodes(x), x.shape).data, x.data)

    def test_rejects_wrong_matrix_shape(self):
        with pytest.raises(ShapeError):
            unflatten_nodes(np.zeros((5, 3)), (1, 3, 2, 2))


class TestTensor4:
    def test_rejects_non_finite(self):
        bad = np.ones((1, 1, 2, 2))
        bad[0, 0, 0, 0] = np.nan
        with pytest.raises(ContractError):
            Tensor4(bad)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ShapeError):
            Tensor4(np.zeros((2, 3)))

    def test_data_is_read_only(self):
        x = Tensor4.zeros((1, 1, 2, 2))
        with pytest.raises(ValueError):
            x.data[0, 0, 0, 0] = 1.0


class TestRng:
    def test_equal_seeds_equal_sequences(self):
        a, b = Rng(42), Rng(42)
        for _ in range(3):
            assert np.array_equal(a.uniform(-1, 1, (4, 5)), b.uniform(-1, 1, (4, 5)))

    def test_different_seeds_differ(self):
        assert not np.array_equal(Rng(1).uniform(0, 1, 10), Rng(2).uniform(0, 1, 10))

    def test_init_weight_bound(self):
        w = Rng(0).init_weight((64, 100), fan_in=100)
        assert np.abs(w).max() <= 0.1

    def test_init_weight_rejects_bad_fan_in(self):
        with pytest.raises(ContractError):
            Rng(0).init_weight((2, 2), fan_in=0)


class TestTensorIO:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_round_trip_bit_exact(self, tmp_path, dtype):
        x = Rng(7).tensor((2, 3, 4, 5), dtype=dtype)
        path = tmp_path / "t.rgt4"
        save_tensor(x, path)
        y = load_tensor(path)
        assert y.dtype == dtype
        assert np.array_equal(y.data, x.data)

    @settings(max_examples=20, deadline=None)
    @given(
        st.tuples(*(st.integers(1, 4) for _ in range(4))),
        st.sampled_from([np.float32, np.float64]),
        st.integers(0, 2**31),
    )
    def test_round_trip_property(self, shape, dtype, seed):
        import tempfile

        x = Rng(seed).tensor(shape, dtype=dtype)
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/t.rgt4"
            save_tensor(x, path)
            assert np.array_equal(load_tensor(path).data, x.data)

    def test_truncated_file_is_length_mismatch(self, tmp_path):
        path = tmp_path / "t.rgt4"
        save_tensor(Rng(0).tensor((1, 2, 3, 3)), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(LengthMismatchError):
            load_tensor(path)

    def test_negative_dimension_is_malformed_header(self, tmp_path):
        import struct

        path = tmp_path / "t.rgt4"
        header = MAGIC + struct.pack("<4q", 1, -2, 3, 3) + bytes([8])
        path.write_bytes(header + b"\x00" * 72)
        with pytest.raises(MalformedHeaderError):
            load_tensor(path)

    def test_bad_magic_is_malformed_header(self, tmp_path):
        path = tmp_path / "t.rgt4"
        save_tensor(Rng(0).tensor((1, 1, 2, 2)), path)
        blob = bytearray(path.read_bytes())
        blob[0] = 0x58
        path.write_bytes(bytes(blob))
        with pytest.raises(MalformedHeaderError):
            load_tensor(path)

    def test_unknown_dtype_tag_is_malformed_header(self, tmp_path):
        path = tmp_path / "t.rgt4"
        save_tensor(Rng(0).tensor((1, 1, 2, 2)), path)
        blob = bytearray(path.read_bytes())
        blob[40] = 7  # dtype tag byte
        path.write_bytes(bytes(blob))
        with pytest.raises(MalformedHeaderError):
            load_tensor(path)
