import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reshape_ref
from texture_nilm import Matrix2D, reshape
from texture_nilm.errors import MatrixTooSmall, RangeOverflow, WindowTooShort


def window(values):
    return np.asarray(values, dtype=float)


class TestMatrix2D:
    def test_too_small(self):
        with pytest.raises(MatrixTooSmall):
            Matrix2D(np.zeros((2, 2), dtype=int))
        with pytest.raises(MatrixTooSmall):
            Matrix2D(np.zeros((3, 2), dtype=int))

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            Matrix2D(np.full((3, 3), 256))
        with pytest.raises(ValueError):
            Matrix2D(np.full((3, 3), -1))

    def test_fractional_cells_rejected(self):
        with pytest.raises(ValueError):
            Matrix2D(np.full((3, 3), 0.5))

    def test_shape_properties(self):
        m = Matrix2D(np.zeros((4, 5), dtype=int))
        assert (m.rows, m.cols) == (4, 5)


class TestReshape:
    def test_constant_window_maps_to_zero(self):
        m = reshape(window([80.0] * 16))
        assert (m.rows, m.cols) == (4, 4)
        assert not m.cells.any()

    def test_full_range_ramp(self):
        m = reshape(window(list(range(16))))
        assert m.cells[0, 0] == 0
        assert m.cells[3, 3] == 255
        assert m.cells.tolist() == (np.arange(16).reshape(4, 4) * 17).tolist()

    def test_short_window_fill_replicates_last_quantized_sample(self):
        m = reshape(window([10, 20, 30, 40, 50, 60, 70, 80, 90, 100]))
        assert m.cells.tolist() == [
            [0, 28, 57, 85],
            [113, 142, 170, 198],
            [227, 255, 255, 255],
            [255, 255, 255, 255],
        ]

    def test_window_too_short(self):
        with pytest.raises(WindowTooShort):
            reshape(window([1.0] * 8))

    def test_range_overflow_names_the_first_window(self):
        # every sample is finite, but max - min is not
        stack = np.full((3, 16), 100.0)
        stack[1, 4], stack[1, 9] = 9e307, -9e307
        stack[2, :2] = 1.7e308, -1.7e308
        with pytest.raises(RangeOverflow, match="overflows float64") as info:
            reshape(stack)
        assert info.value.row == 1
        assert reshape(stack[0]).cells.shape == (4, 4)

    def test_round_half_up(self):
        # midpoint ratios round up: [0, 1, 2] -> 0, 127.5, 255
        m = reshape(window([0, 1, 2] * 3))
        assert sorted(set(m.cells.ravel().tolist())) == [0, 128, 255]

    @settings(max_examples=80)
    @given(
        st.lists(st.integers(min_value=0, max_value=10**6), min_size=9, max_size=50)
    )
    def test_matches_reference(self, values):
        got = reshape(window(values))
        assert got.cells.tolist() == reshape_ref([float(v) for v in values])

    @settings(max_examples=80)
    @given(
        st.lists(st.integers(min_value=0, max_value=10**6), min_size=9, max_size=50),
        st.integers(min_value=1, max_value=1000),
        st.integers(min_value=-(10**6), max_value=10**6),
    )
    def test_affine_invariance(self, values, scale, offset):
        # integer inputs keep a*w+b exact in float64, so the quantized grids
        # must agree bit for bit
        base = reshape(window(values))
        scaled = reshape(window([scale * v + offset for v in values]))
        assert np.array_equal(base.cells, scaled.cells)

    @settings(max_examples=80)
    @given(
        st.lists(st.integers(min_value=0, max_value=10**6), min_size=9, max_size=50)
    )
    def test_rank_monotone_correspondence(self, values):
        n = len(values)
        q = reshape(window(values)).cells.ravel()[:n]
        for i in range(n):
            for j in range(n):
                if values[i] < values[j]:
                    assert q[i] <= q[j]
                elif values[i] == values[j]:
                    assert q[i] == q[j]

    @settings(max_examples=40)
    @given(st.integers(min_value=9, max_value=600))
    def test_grid_is_smallest_square_holding_the_window(self, n):
        m = reshape(window(list(range(n))))
        assert m.rows == m.cols
        assert m.rows * m.cols >= n
        assert (m.rows - 1) ** 2 < n
