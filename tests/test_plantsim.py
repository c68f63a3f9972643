import numpy as np
import pytest

from mgpkit.design import maximin_lhs, scale_design, unscale_points
from mgpkit.mgp import Dataset
from mgpkit.plantsim import (
    DEFAULT_SPECS,
    OUTPUT_NAMES,
    PlantConfig,
    generate_dataset,
    plant_response_batch,
    read_dataset_csv,
    write_dataset_csv,
)

MIDPOINT = np.array([22.5, 1250.0, 2.6, 55.0, 12.5, 600.0])
# version-pinned reference responses at the midpoint operating point
MIDPOINT_TRIPLE = np.array([323.62128786, 331.37260131, 104.29833057])
MIDPOINT_TRIPLE_DECOUPLED = np.array([323.62128786, 313.39285714, 104.0])

NOISELESS = PlantConfig(noise_sd=np.zeros(3))


class TestPlantResponse:
    def test_midpoint_reference_triple(self):
        y = plant_response_batch(MIDPOINT, NOISELESS)[0]
        np.testing.assert_allclose(y, MIDPOINT_TRIPLE, atol=1e-8)

    def test_midpoint_decoupled(self):
        cfg = PlantConfig(noise_sd=np.zeros(3), coupling=0.0)
        y = plant_response_batch(MIDPOINT, cfg)[0]
        np.testing.assert_allclose(y, MIDPOINT_TRIPLE_DECOUPLED, atol=1e-8)

    def test_zero_mass_flow_kills_hpt_ipt(self):
        x = MIDPOINT.copy()
        x[2] = 0.0
        y = plant_response_batch(x, NOISELESS)[0]
        assert y[0] == 0.0 and y[1] == 0.0

    def test_monotone_in_pressure(self):
        lo = MIDPOINT.copy()
        for p in (12.0, 20.0, 28.0, 34.0):
            hi = MIDPOINT.copy()
            hi[0] = p
            lo_y = plant_response_batch(lo, NOISELESS)[0]
            hi_y = plant_response_batch(hi, NOISELESS)[0]
            if p > MIDPOINT[0]:
                assert hi_y[0] > lo_y[0] and hi_y[1] > lo_y[1]
            else:
                assert hi_y[0] < lo_y[0] and hi_y[1] < lo_y[1]

    def test_monotone_in_mass_flow(self):
        hi = MIDPOINT.copy()
        hi[2] = 2.9
        lo_y = plant_response_batch(MIDPOINT, NOISELESS)[0]
        hi_y = plant_response_batch(hi, NOISELESS)[0]
        assert np.all(hi_y > lo_y)

    def test_out_of_range_evaluated(self):
        x = MIDPOINT.copy()
        x[0] = 50.0
        assert np.all(np.isfinite(plant_response_batch(x, NOISELESS)))

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            plant_response_batch(MIDPOINT[:4], NOISELESS)

    def test_rejects_non_finite(self):
        x = MIDPOINT.copy()
        x[1] = np.nan
        with pytest.raises(ValueError):
            plant_response_batch(x, NOISELESS)

    def test_batch_rejects_non_finite_row(self):
        pts = np.tile(MIDPOINT, (4, 1))
        pts[2, 3] = np.nan
        with pytest.raises(ValueError):
            plant_response_batch(pts, NOISELESS)

    def test_batch_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            plant_response_batch(np.tile(MIDPOINT[:5], (3, 1)), NOISELESS)

    def test_hpt_ipt_strongly_correlated(self):
        # series coupling: the first two turbines move together far more
        # tightly than either does with the third
        pts = scale_design(maximin_lhs(200, 6, seed=1, restarts=3), DEFAULT_SPECS)
        c = np.corrcoef(plant_response_batch(pts, NOISELESS).T)
        assert c[0, 1] > 0.99
        assert c[0, 1] > c[0, 2] + 0.5
        assert c[0, 1] > c[1, 2] + 0.5

    def test_decoupling_breaks_ipt_pressure_link(self):
        decoupled = PlantConfig(noise_sd=np.zeros(3), coupling=0.0)
        x = MIDPOINT.copy()
        x[0] = 34.0
        y_mid = plant_response_batch(MIDPOINT, decoupled)[0]
        y_hi = plant_response_batch(x, decoupled)[0]
        assert y_hi[1] == y_mid[1]  # IPT no longer sees inlet pressure


class TestPlantConfig:
    def test_default_noise_positive(self):
        cfg = PlantConfig()
        assert cfg.noise_sd.shape == (3,)
        assert np.all(cfg.noise_sd > 0.0)

    def test_scalar_noise_broadcast(self):
        cfg = PlantConfig(noise_sd=1.5)
        np.testing.assert_array_equal(cfg.noise_sd, [1.5, 1.5, 1.5])

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError):
            PlantConfig(noise_sd=np.array([1.0, -1.0, 1.0]))

    @pytest.mark.parametrize("c", [-0.1, 1.5])
    def test_rejects_bad_coupling(self, c):
        with pytest.raises(ValueError):
            PlantConfig(coupling=c)


class TestGenerateDataset:
    def test_shapes(self):
        d = maximin_lhs(10, 6, seed=2, restarts=3)
        data = generate_dataset(d, PlantConfig(seed=3), reps=4)
        assert data.k == 3 and data.reps == 4
        assert data.output_names == OUTPUT_NAMES
        for yi in data.y:
            assert yi.shape == (40,)

    def test_deterministic(self):
        d = maximin_lhs(10, 6, seed=2, restarts=3)
        a = generate_dataset(d, PlantConfig(seed=3), reps=4)
        b = generate_dataset(d, PlantConfig(seed=3), reps=4)
        for ya, yb in zip(a.y, b.y):
            np.testing.assert_array_equal(ya, yb)

    def test_seed_changes_noise_not_signal(self):
        d = maximin_lhs(10, 6, seed=2, restarts=3)
        a = generate_dataset(d, PlantConfig(seed=3), reps=50)
        b = generate_dataset(d, PlantConfig(seed=4), reps=50)
        assert not np.array_equal(a.y[0], b.y[0])
        np.testing.assert_allclose(
            np.array(a.point_means()), np.array(b.point_means()),
            atol=6.0 * PlantConfig().noise_sd.max() / np.sqrt(50),
        )

    def test_replicate_scatter_matches_noise_sd(self):
        d = maximin_lhs(30, 6, seed=5, restarts=3)
        cfg = PlantConfig(seed=7)
        data = generate_dataset(d, cfg, reps=40)
        for k in range(3):
            g = data.y[k].reshape(30, 40)
            pooled = np.sqrt(np.mean(g.var(axis=1, ddof=1)))
            # pooled replicate sd estimates noise_sd; 1200 obs keep it tight
            assert abs(pooled - cfg.noise_sd[k]) < 0.1 * cfg.noise_sd[k]

    def test_noiseless_replicates_identical(self):
        d = maximin_lhs(5, 6, seed=1, restarts=3)
        data = generate_dataset(d, NOISELESS, reps=3)
        for yi in data.y:
            g = yi.reshape(5, 3)
            assert np.all(g == g[:, :1])

    def test_rejects_zero_reps(self):
        d = maximin_lhs(5, 6, seed=1, restarts=3)
        with pytest.raises(ValueError):
            generate_dataset(d, NOISELESS, reps=0)


class TestDatasetCsv:
    def test_round_trip(self, tmp_path):
        # the file holds physical inputs and outputs at full precision: reading
        # it back gives the written outputs and the unit image of the written
        # inputs, bit for bit
        d = maximin_lhs(8, 6, seed=4, restarts=3)
        data = generate_dataset(d, PlantConfig(seed=9), reps=3)
        path = tmp_path / "plant.csv"
        write_dataset_csv(path, data)
        back = read_dataset_csv(path)
        assert back.reps == 3 and back.output_names == OUTPUT_NAMES
        np.testing.assert_allclose(back.x[0], data.x[0], atol=1e-9)
        written = unscale_points(scale_design(d, DEFAULT_SPECS), DEFAULT_SPECS)
        for xb in back.x:
            assert np.array_equal(xb, written)
        for ya, yb in zip(data.y, back.y):
            assert np.array_equal(ya, yb)

    def test_outputs_off_one_design_rejected(self, tmp_path):
        # the file has one block of inputs, so writing output 1, which lies
        # 1e-9 off output 0's points, would move its points
        data = generate_dataset(maximin_lhs(4, 6, seed=4, restarts=3), NOISELESS, reps=2)
        x = data.x[0]
        moved = Dataset(data.specs, [x, x + 1e-9, x], data.y, data.reps, data.output_names)
        path = tmp_path / "plant.csv"
        with pytest.raises(ValueError, match="shared design"):
            write_dataset_csv(path, moved)
        assert not path.exists()

    def test_bad_row_reports_location(self, tmp_path):
        d = maximin_lhs(4, 6, seed=4, restarts=3)
        data = generate_dataset(d, NOISELESS, reps=2)
        path = tmp_path / "plant.csv"
        write_dataset_csv(path, data)
        written = path.read_text().splitlines()
        # a value that is not a number, a row missing its last output value, and
        # a rep that is not a whole number (once read as rep 0)
        for edit, message in [(lambda row: row.replace(row.split(",")[-1], "bogus"), "row 4"),
                              (lambda row: row.rsplit(",", 1)[0], "row 4 has 9 values, expected 10"),
                              (lambda row: row.replace(",0,", ",0.4,"),
                               "row 4: rep '0.4' is not a whole number")]:
            lines = list(written)
            lines[3] = edit(lines[3])
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(ValueError, match=message):
                read_dataset_csv(path)

    def _written(self, tmp_path):
        d = maximin_lhs(4, 6, seed=4, restarts=3)
        path = tmp_path / "plant.csv"
        write_dataset_csv(path, generate_dataset(d, PlantConfig(seed=9), reps=2))
        header, *rows = path.read_text().splitlines()
        return path, header, rows

    def test_rep_major_rows_rejected(self, tmp_path):
        # the same rows in rep-major order would load as scrambled points
        path, header, rows = self._written(tmp_path)
        path.write_text("\n".join([header] + rows[0::2] + rows[1::2]) + "\n")
        with pytest.raises(ValueError, match="rows 2-3: rep column"):
            read_dataset_csv(path)

    def test_replicates_with_different_inputs_rejected(self, tmp_path):
        path, header, rows = self._written(tmp_path)
        # rep 1 of point 1 takes the inputs of point 0
        rows[3] = ",".join(rows[0].split(",")[:6] + rows[3].split(",")[6:])
        path.write_text("\n".join([header] + rows) + "\n")
        with pytest.raises(ValueError, match="rows 4-5: replicate rows disagree"):
            read_dataset_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            read_dataset_csv(path)
