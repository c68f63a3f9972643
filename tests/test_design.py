import csv
import io

import numpy as np
import pytest
from scipy.spatial.distance import pdist

import mgpkit.design
from mgpkit.design import (
    DesignMatrix,
    InputSpec,
    format_csv_rows,
    lhs,
    maximin_lhs,
    morris_trajectories,
    read_design_csv,
    scale_design,
    unscale_points,
    write_design_csv,
)

TABLE_SPECS = [
    InputSpec("pressure_mpa", 10.0, 35.0),
    InputSpec("temperature_k", 500.0, 2000.0),
    InputSpec("mass_flow_kg_s", 2.2, 3.0),
    InputSpec("grid_frequency_hz", 50.0, 60.0),
    InputSpec("n_blades", 5.0, 20.0),
    InputSpec("boiler_temperature_k", 550.0, 650.0),
]


def assert_lhs_property(d):
    n = d.n
    for j in range(d.l):
        strata = np.floor(d.points[:, j] * n).astype(int)
        assert sorted(strata) == list(range(n))


class TestLhs:
    def test_two_point_stratification(self):
        d = lhs(2, 1, seed=11)
        pts = np.sort(d.points[:, 0])
        assert 0.0 <= pts[0] < 0.5 <= pts[1] < 1.0

    def test_paper_size_design_hits_all_strata(self):
        d = lhs(50, 6, seed=1)
        assert d.points.shape == (50, 6)
        assert_lhs_property(d)

    def test_deterministic(self):
        a = lhs(4, 2, seed=7)
        b = lhs(4, 2, seed=7)
        np.testing.assert_array_equal(a.points, b.points)

    @pytest.mark.parametrize("n,l", [(1, 2), (0, 2), (3, 0)])
    def test_rejects_bad_sizes(self, n, l):
        with pytest.raises(ValueError):
            lhs(n, l, seed=0)

    def test_stratification_random_sizes(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            l = int(rng.integers(1, 8))
            assert_lhs_property(lhs(n, l, seed=int(rng.integers(1e6))))


class TestMaximinLhs:
    def test_single_restart_equals_lhs(self):
        a = maximin_lhs(8, 3, seed=5, restarts=1)
        b = lhs(8, 3, seed=5)
        np.testing.assert_array_equal(a.points, b.points)

    def test_improves_over_plain_lhs_in_median(self):
        gains = []
        for seed in range(20):
            plain = lhs(10, 2, seed).min_distance()
            best = maximin_lhs(10, 2, seed, restarts=50).min_distance()
            gains.append(best - plain)
        assert np.median(gains) >= 0.0
        assert all(g >= 0.0 for g in gains)  # first candidate is the plain draw

    def test_two_point_min_distance(self):
        d = maximin_lhs(2, 1, seed=3, restarts=10)
        assert d.min_distance() >= 0.5

    def test_keeps_lhs_property(self):
        d = maximin_lhs(12, 4, seed=9, restarts=30)
        assert_lhs_property(d)

    def test_rejects_zero_restarts(self):
        with pytest.raises(ValueError):
            maximin_lhs(4, 2, seed=0, restarts=0)

    @staticmethod
    def reference(n, l, seed, restarts):
        """Best of `restarts` candidates on the same seeds, each measured by pdist."""
        best, best_dist = None, -np.inf
        for i in range(restarts):
            cand_seed = seed if i == 0 else np.random.SeedSequence((seed, i)).generate_state(1)[0]
            cand = lhs(n, l, int(cand_seed))
            d = pdist(cand.points).min()
            if d > best_dist:
                best, best_dist = cand, d
        return best

    @pytest.mark.parametrize("n", [2, 3, 7, 40, 100, 500, 1000])
    def test_equals_measuring_every_candidate(self, n):
        for l in (1, 2, 6, 8):
            for restarts in (1, 3, 20):
                for seed in (0, 1, 2):
                    got, want = maximin_lhs(n, l, seed, restarts), self.reference(n, l, seed, restarts)
                    assert np.array_equal(got.points, want.points)
                    assert got.min_distance() == want.min_distance()

    @pytest.mark.parametrize("n", [2, 3, 7, 40, 100, 500])
    def test_pair_check_is_exact_at_a_tie(self, n):
        # True exactly when pdist's minimum is <= the bound, whatever the row order
        rng = np.random.default_rng(n)
        for l in (1, 2, 6, 8):
            for seed in (0, 1):
                pts = lhs(n, l, seed).points
                low = pdist(pts).min()
                for rows in (pts, pts[::-1], pts[rng.permutation(n)]):
                    assert mgpkit.design._has_pair_within(rows, low)
                    assert not mgpkit.design._has_pair_within(rows, np.nextafter(low, 0.0))
                    assert mgpkit.design._has_pair_within(rows, 2.0 * low)

    @pytest.mark.parametrize("l", [1, 2, 6])
    def test_pair_check_sees_a_pair_across_blocks(self, l):
        # the closest pair lies along the sorted coordinate, the last row of
        # one block and the first of the next, so only the window finds it
        rows = mgpkit.design._SWEEP_ROWS
        gaps = np.full(2 * rows, 0.007)
        gaps[rows - 1] = 0.003
        pts = np.full((2 * rows + 1, l), 0.5)
        pts[:, 0] = np.concatenate([[0.0], np.cumsum(gaps)])
        pts = pts[np.random.default_rng(l).permutation(len(pts))]
        low = pdist(pts).min()
        assert mgpkit.design._has_pair_within(pts, low)
        assert not mgpkit.design._has_pair_within(pts, np.nextafter(low, 0.0))

    @pytest.mark.parametrize("l", [1, 2, 6, 8])
    def test_cdist_rounds_every_pair_as_pdist(self, l):
        # the pair check rejects a candidate on a cdist distance and maximin_lhs
        # compares pdist minima: the two must agree bit for bit, in either row
        # order and in any block of rows
        for n in (7, 100, 500):
            pts = lhs(n, l, seed=n).points
            want = pdist(pts)
            full = mgpkit.design.cdist(pts, pts)
            upper = np.triu_indices(n, 1)
            assert np.array_equal(full[upper], want)
            assert np.array_equal(full.T[upper], want)
            assert np.array_equal(mgpkit.design.cdist(pts[n // 3 : n // 2], pts[n // 5 :]),
                                  full[n // 3 : n // 2, n // 5 :])


class TestScaleDesign:
    def test_table_range_endpoints(self):
        d = DesignMatrix(np.array([[0.0] * 6, [1.0] * 6, [0.5] * 6]))
        phys = scale_design(d, TABLE_SPECS)
        assert phys[0, 0] == 10.0  # pressure lower bound
        assert phys[1, 5] == 650.0  # boiler temperature upper bound
        assert phys[2, 3] == 55.0  # frequency midpoint

    def test_round_trip(self):
        d = lhs(20, 6, seed=4)
        back = unscale_points(scale_design(d, TABLE_SPECS), TABLE_SPECS)
        np.testing.assert_allclose(back, d.points, atol=1e-12)

    def test_dimension_mismatch(self):
        d = lhs(5, 3, seed=1)
        with pytest.raises(ValueError):
            scale_design(d, TABLE_SPECS)


@pytest.mark.parametrize("bad", [np.nan, -0.1, 1.1])
def test_design_matrix_rejects_points_outside_the_unit_cube(bad):
    with pytest.raises(ValueError, match="unit hypercube"):
        DesignMatrix(np.array([[bad, 0.5]]))


class TestMorrisTrajectories:
    def test_shape_and_coverage(self):
        (t,) = morris_trajectories(1, 3, delta=0.3, seed=0)
        assert t.points.shape == (4, 3)
        assert sorted(t.varied_index) == [0, 1, 2]

    def test_paper_tour_count(self):
        ts = morris_trajectories(10, 6, delta=0.3, seed=1)
        assert len(ts) == 10
        assert sum(t.points.shape[0] for t in ts) == 70

    def test_single_coordinate_steps(self):
        for t in morris_trajectories(5, 4, delta=0.25, seed=2):
            diffs = np.diff(t.points, axis=0)
            for k, row in enumerate(diffs):
                nz = np.nonzero(row)[0]
                assert len(nz) == 1
                assert nz[0] == t.varied_index[k]
                assert abs(abs(row[nz[0]]) - 0.25) < 1e-12

    def test_stays_in_unit_cube(self):
        for seed in range(10):
            for t in morris_trajectories(4, 6, delta=0.3, seed=seed):
                assert np.all(t.points >= 0.0) and np.all(t.points <= 1.0)

    def test_deterministic(self):
        a = morris_trajectories(3, 2, delta=0.3, seed=8)
        b = morris_trajectories(3, 2, delta=0.3, seed=8)
        for ta, tb in zip(a, b):
            np.testing.assert_array_equal(ta.points, tb.points)

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.2, 1.5])
    def test_rejects_bad_delta(self, delta):
        with pytest.raises(ValueError):
            morris_trajectories(2, 3, delta=delta, seed=0)


class TestDesignCsv:
    def test_round_trip_physical(self, tmp_path):
        d = lhs(10, 6, seed=6)
        path = tmp_path / "d.csv"
        write_design_csv(path, d, TABLE_SPECS)
        back = read_design_csv(path, TABLE_SPECS)
        np.testing.assert_allclose(back.points, d.points, atol=1e-9)

    def test_round_trip_unit(self, tmp_path):
        d = lhs(10, 6, seed=6)
        path = tmp_path / "d.csv"
        write_design_csv(path, d, TABLE_SPECS, unit=True)
        back = read_design_csv(path, TABLE_SPECS)
        np.testing.assert_allclose(back.points, d.points, atol=1e-12)

    @staticmethod
    def _per_value_rows(table):
        """The writer format_csv_rows replaced: csv.writer over f"{v:.12g}" per value."""
        buf = io.StringIO()
        w = csv.writer(buf)
        for row in table:
            w.writerow([f"{v:.12g}" for v in row])
        return buf.getvalue()

    def test_format_csv_rows_matches_per_value_writer(self):
        awkward = np.array([
            [-0.0, 1e16, 1e-7, 123456789012345.0, 0.1 + 0.2],
            [1e-5, 1e-4, 1e22, -2.5e-300, np.inf],
            [0.0, -1.5, 1.0 / 3.0, 2.0 ** 60, 999999999999.5],
        ])
        for table in (awkward, awkward[:, :1], lhs(9, 6, seed=2).points):
            assert format_csv_rows(table) == self._per_value_rows(table)

    def test_bad_cell_reports_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n0.1,0.2\n0.3,oops\n")
        with pytest.raises(ValueError, match="row 3"):
            read_design_csv(path, TABLE_SPECS[:2])

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_reports_location(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"u_a,u_b\n0.1,0.2\n0.3,0.4\n{cell},0.5\n")
        with pytest.raises(ValueError, match="non-finite value at row 4"):
            read_design_csv(path, TABLE_SPECS[:2])

    @pytest.mark.parametrize("row, m", [("0.3", 1), ("0.3,0.4,0.5", 3)])
    def test_ragged_row_reports_location(self, tmp_path, row, m):
        path = tmp_path / "bad.csv"
        path.write_text(f"u_a,u_b\n0.1,0.2\n{row}\n0.6,0.7\n")
        with pytest.raises(ValueError, match=f"row 3 has {m} values, expected 2"):
            read_design_csv(path, TABLE_SPECS[:2])


def test_input_spec_rejects_inverted_range():
    with pytest.raises(ValueError):
        InputSpec("bad", 5.0, 1.0)
