import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import constant_matrix, random_matrix
from oracles import (
    lbp_code_ref,
    lbp_histogram_ref,
    reshape_ref,
    wld_bin_ref,
    wld_histogram_ref,
    wld_response_ref,
)
from texture_nilm import (
    DescriptorConfig,
    DescriptorHistogram,
    Matrix2D,
    lbp_histogram,
    reshape,
    wld_histogram,
)
from texture_nilm.errors import InvalidConfig

EXAMPLE_CELLS = [[5, 9, 1, 3], [7, 4, 8, 2], [6, 4, 4, 9], [1, 2, 3, 4]]


class TestDescriptorConfig:
    def test_defaults(self):
        cfg = DescriptorConfig()
        assert cfg.orientation_bins * cfg.excitation_bins == 256

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"orientation_bins": 7},
            {"orientation_bins": 0},
            {"orientation_bins": 3},
            {"orientation_bins": 512},
            # 256 % -8 == 0 in Python, so only the range check refuses it
            {"orientation_bins": -8},
            {"orientation_bins": 255},
            {"epsilon": 0.0},
            {"epsilon": -1.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(InvalidConfig):
            DescriptorConfig(**kwargs)

    def test_alternative_joint_shapes_allowed(self):
        cfg = DescriptorConfig(orientation_bins=16)
        assert (cfg.orientation_bins, cfg.excitation_bins) == (16, 16)


class TestDescriptorHistogram:
    def test_requires_256_bins(self):
        with pytest.raises(ValueError):
            DescriptorHistogram(np.zeros(255))

    def test_rejects_negative_bins(self):
        bins = np.zeros(256)
        bins[3] = -1
        with pytest.raises(ValueError):
            DescriptorHistogram(bins)

    def test_total(self):
        bins = np.zeros(256)
        bins[10] = 4
        bins[200] = 2
        assert DescriptorHistogram(bins).bins.sum() == 6


def single_vote(hist: DescriptorHistogram) -> int:
    """Bin of the one vote in the histogram of a matrix with one interior cell."""
    (index,) = np.flatnonzero(hist.bins)
    assert hist.bins[index] == 1
    return int(index)


def wld_vote(cells, cfg: DescriptorConfig | None = None) -> int:
    return single_vote(wld_histogram(Matrix2D(cells), cfg or DescriptorConfig()))


def gradient_cells(vertical: int, horizontal: int) -> list[list[int]]:
    """3x3 cells whose center has the given bottom-minus-top and
    left-minus-right differences, with every other cell 0."""
    cells = [[0] * 3 for _ in range(3)]
    cells[0][1], cells[2][1] = max(-vertical, 0), max(vertical, 0)
    cells[1][0], cells[1][2] = max(horizontal, 0), max(-horizontal, 0)
    return cells


class TestLbpCode:
    """Per-cell LBP codes, read off the one vote of a 3x3 matrix's histogram."""

    def test_constant_neighborhood_gives_all_ones(self):
        assert single_vote(lbp_histogram(constant_matrix(7, 3))) == 255

    def test_dominant_center_gives_zero(self):
        cells = np.zeros((3, 3), dtype=int)
        cells[1, 1] = 255
        assert single_vote(lbp_histogram(Matrix2D(cells))) == 0

    def test_worked_example(self):
        # oracle-computed before the build: neighbors (5,9,1,8,4,4,6,7) vs
        # center 4 give bits 1,1,0,1,1,1,1,1 -> 251
        cells = [row[:3] for row in EXAMPLE_CELLS[:3]]
        assert single_vote(lbp_histogram(Matrix2D(cells))) == 251
        assert lbp_code_ref(cells, 1, 1) == 251

    @settings(max_examples=60)
    @given(st.integers(min_value=0, max_value=12345), st.integers(0, 55))
    def test_invariant_under_constant_shift(self, seed, shift):
        rng = np.random.default_rng(seed)
        base = rng.integers(0, 200, size=(5, 5))
        assert (
            lbp_histogram(Matrix2D(base)).bins.tolist()
            == lbp_histogram(Matrix2D(base + shift)).bins.tolist()
        )

    @settings(max_examples=40)
    @given(st.integers(min_value=0, max_value=99999))
    def test_code_range_and_reference(self, seed):
        m = random_matrix(np.random.default_rng(seed), 3, 3)
        code = single_vote(lbp_histogram(m))
        assert 0 <= code <= 255
        assert code == lbp_code_ref(m.cells.tolist(), 1, 1)


class TestLbpHistogram:
    def test_constant_matrix_masses_bin_255(self):
        h = lbp_histogram(constant_matrix(80, 4))
        assert h.bins[255] == 4
        assert h.bins.sum() == 4
        assert h.bins.sum() == h.bins[255]

    def test_three_by_three_has_single_vote(self):
        h = lbp_histogram(random_matrix(np.random.default_rng(0), 3, 3))
        assert h.bins.sum() == 1

    def test_matches_reference_on_random_matrices(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            m = random_matrix(rng, 8, 8)
            assert lbp_histogram(m).bins.tolist() == lbp_histogram_ref(m.cells.tolist())

    @settings(max_examples=30)
    @given(st.integers(0, 99999), st.integers(3, 12), st.integers(3, 12))
    def test_total_equals_interior_count(self, seed, rows, cols):
        m = random_matrix(np.random.default_rng(seed), rows, cols)
        assert lbp_histogram(m).bins.sum() == (rows - 2) * (cols - 2)


class TestWldResponse:
    """Per-cell WLD responses, checked on the scalar oracle and against the
    one vote of a 3x3 matrix's histogram."""

    def test_constant_neighborhood(self):
        cells = constant_matrix(42, 3).cells.tolist()
        assert wld_response_ref(cells, 1, 1) == (0.0, 0.0)
        # orientation bin 0, excitation bin 16
        assert wld_vote(cells) == wld_bin_ref(0.0, 0.0) == 16

    def test_uniformly_brighter_ring(self):
        cells = np.full((3, 3), 2, dtype=int)
        cells[1, 1] = 1
        excitation, orientation = wld_response_ref(cells.tolist(), 1, 1)
        assert excitation == math.atan(8.0)
        assert excitation == pytest.approx(1.4464, abs=1e-4)
        assert wld_vote(cells) == wld_bin_ref(excitation, orientation)

    def test_pure_vertical_difference(self):
        # bottom - top = 3, left - right = 0
        cells = [[0, 1, 0], [2, 5, 2], [0, 4, 0]]
        excitation, orientation = wld_response_ref(cells, 1, 1)
        assert orientation == math.pi / 2.0
        assert wld_vote(cells) // 32 == 2
        assert wld_vote(cells) == wld_bin_ref(excitation, orientation)

    def test_epsilon_guards_zero_center(self):
        cells = np.zeros((3, 3), dtype=int)
        cells[0, 1] = 10
        excitation, orientation = wld_response_ref(cells.tolist(), 1, 1, epsilon=1.0)
        assert excitation == math.atan(10.0)
        assert wld_vote(cells, DescriptorConfig(epsilon=1.0)) == wld_bin_ref(
            excitation, orientation
        )

    @settings(max_examples=60)
    @given(st.integers(0, 99999))
    def test_matches_reference(self, seed):
        m = random_matrix(np.random.default_rng(seed), 3, 3)
        excitation, orientation = wld_response_ref(m.cells.tolist(), 1, 1)
        assert -math.pi / 2 <= excitation <= math.pi / 2
        assert 0.0 <= orientation < 2.0 * math.pi
        assert wld_vote(m.cells) == wld_bin_ref(excitation, orientation)

    @settings(max_examples=80)
    @given(st.integers(0, 9999), st.integers(0, 7), st.integers(1, 30))
    def test_excitation_strictly_increases_with_any_neighbor(self, seed, which, bump):
        rng = np.random.default_rng(seed)
        base = rng.integers(0, 200, size=(3, 3))
        ring = [(-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1)]
        bumped = base.copy()
        dr, dc = ring[which]
        bumped[1 + dr, 1 + dc] += bump
        low = wld_response_ref(base.tolist(), 1, 1)[0]
        high = wld_response_ref(bumped.tolist(), 1, 1)[0]
        assert high > low
        # the excitation part of the joint bin never decreases
        assert wld_vote(bumped) % 32 >= wld_vote(base) % 32


class TestGradientOrientation:
    """Orientation of the (vertical, horizontal) difference vector, on the
    scalar oracle and as the orientation part of the histogram's one vote."""

    def test_zero_vector_convention(self):
        assert wld_response_ref(gradient_cells(0, 0), 1, 1)[1] == 0.0
        assert wld_vote(gradient_cells(0, 0)) // 32 == 0

    def test_quadrants(self):
        for vertical, horizontal, angle, orientation_bin in [
            (0, 1, 0.0, 0),
            (1, 0, math.pi / 2, 2),
            (0, -1, math.pi, 4),
            (-1, 0, 1.5 * math.pi, 6),
        ]:
            cells = gradient_cells(vertical, horizontal)
            assert wld_response_ref(cells, 1, 1)[1] == angle
            assert wld_vote(cells) // 32 == orientation_bin

    @settings(max_examples=100)
    @given(
        st.integers(min_value=-255, max_value=255),
        st.integers(min_value=-255, max_value=255),
    )
    def test_antipode_shifts_by_pi(self, v, h):
        if v == 0 and h == 0:
            return
        cells = gradient_cells(v, h)
        excitation, theta = wld_response_ref(cells, 1, 1)
        anti = wld_response_ref(gradient_cells(-v, -h), 1, 1)[1]
        assert 0.0 <= theta < 2.0 * math.pi
        diff = abs((anti - theta) % (2.0 * math.pi))
        assert min(diff, 2.0 * math.pi - diff) == pytest.approx(math.pi, abs=1e-12)
        assert wld_vote(cells) == wld_bin_ref(excitation, theta)


class TestWldHistogram:
    def test_constant_matrix_masses_center_excitation_bin(self, descriptor_cfg):
        # orientation bin 0, excitation bin Mx/2 = 16 -> flat index 16
        for size in (3, 4, 8):
            h = wld_histogram(constant_matrix(100, size), descriptor_cfg)
            assert h.bins[16] == (size - 2) ** 2
            assert h.bins.sum() == (size - 2) ** 2

    def test_three_by_three_has_single_vote(self, descriptor_cfg):
        h = wld_histogram(random_matrix(np.random.default_rng(1), 3, 3), descriptor_cfg)
        assert h.bins.sum() == 1

    def test_matches_reference_on_random_matrices(self, descriptor_cfg):
        rng = np.random.default_rng(43)
        for _ in range(25):
            m = random_matrix(rng, 8, 8)
            assert (
                wld_histogram(m, descriptor_cfg).bins.tolist()
                == wld_histogram_ref(m.cells.tolist())
            )

    @pytest.mark.parametrize("orientation_bins", [2**n for n in range(9)])
    def test_alternative_binning_matches_reference(self, orientation_bins):
        cfg = DescriptorConfig(orientation_bins=orientation_bins)
        rng = np.random.default_rng(44)
        for _ in range(10):
            m = random_matrix(rng, 8, 8)
            assert wld_histogram(m, cfg).bins.tolist() == wld_histogram_ref(
                m.cells.tolist(), orientation_bins, 256 // orientation_bins
            )

    @settings(max_examples=30)
    @given(st.integers(0, 99999), st.integers(3, 12), st.integers(3, 12))
    def test_total_equals_interior_count(self, seed, rows, cols):
        m = random_matrix(np.random.default_rng(seed), rows, cols)
        h = wld_histogram(m, DescriptorConfig())
        assert h.bins.sum() == (rows - 2) * (cols - 2)


@st.composite
def window_stacks(draw):
    """(W, L) stacks mixing flat rows, rows full of ties and wide-range rows."""
    length = draw(st.integers(9, 200))
    row = st.sampled_from([0, 3, 10**6]).flatmap(
        lambda top: st.lists(st.integers(0, top), min_size=length, max_size=length)
    ) | st.lists(
        st.floats(-1e6, 1e6, allow_nan=False), min_size=length, max_size=length
    )
    return draw(st.lists(row, min_size=1, max_size=6))


class TestStackParity:
    """A stack of windows gives, row by row, each window's oracle result."""

    @settings(max_examples=60, deadline=None)
    @given(window_stacks())
    def test_rows_match_oracles(self, rows):
        matrices = reshape(np.array(rows, dtype=np.float64))
        lbp = lbp_histogram(matrices).bins
        wld = wld_histogram(matrices, DescriptorConfig()).bins
        assert matrices.cells.shape[0] == lbp.shape[0] == wld.shape[0] == len(rows)
        for i, values in enumerate(rows):
            cells = reshape_ref([float(v) for v in values])
            assert matrices.cells[i].tolist() == cells
            assert lbp[i].tolist() == lbp_histogram_ref(cells)
            assert wld[i].tolist() == wld_histogram_ref(cells)

    def test_one_window_is_the_one_row_stack(self):
        values = np.random.default_rng(9).normal(100.0, 20.0, size=50)
        one = reshape(values)
        stack = reshape(values[None])
        assert one.cells.shape == (8, 8) and stack.cells.shape == (1, 8, 8)
        assert np.array_equal(one.cells, stack.cells[0])
        cfg = DescriptorConfig()
        for describe in (lbp_histogram, lambda m: wld_histogram(m, cfg)):
            assert describe(one).bins.shape == (256,)
            assert np.array_equal(describe(one).bins, describe(stack).bins[0])

    def test_stack_checks_run_over_every_window(self):
        grids = np.zeros((3, 4, 4), dtype=np.int64)
        grids[2, 1, 1] = 256
        with pytest.raises(ValueError, match="cells must lie in"):
            Matrix2D(grids)
        bins = np.zeros((3, 256))
        bins[1, 5] = -1
        with pytest.raises(ValueError, match="finite and non-negative"):
            DescriptorHistogram(bins)
        assert DescriptorHistogram(np.ones((3, 256))).bins.sum() == 768
