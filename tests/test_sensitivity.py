import csv
import io

import numpy as np
import pytest

from mgpkit.design import InputSpec, morris_trajectories
from mgpkit.sensitivity import (
    EEResult,
    ee_plot_data,
    ee_ranking_text,
    ee_report,
    elementary_effects,
    rank_inputs,
)

SPECS_3 = [InputSpec(n, 0.0, 1.0) for n in ("a", "b", "c")]


def affine(x):
    # slopes 4, -2, 0.5 plus an irrelevant constant; K = 1, so a vector
    return 4.0 * x[:, 0] - 2.0 * x[:, 1] + 0.5 * x[:, 2] + 7.0


class TestElementaryEffects:
    def test_affine_exact_slopes(self):
        ts = morris_trajectories(10, 3, delta=0.3, seed=0)
        res = elementary_effects(affine, ts, SPECS_3)
        np.testing.assert_allclose(res.mu[0], [4.0, -2.0, 0.5], atol=1e-10)
        np.testing.assert_allclose(res.mu_star[0], [4.0, 2.0, 0.5], atol=1e-10)
        assert np.all(res.sigma_ee < 1e-10)

    def test_interaction_gives_positive_sigma(self):
        ts = morris_trajectories(20, 2, delta=0.25, seed=1)
        res = elementary_effects(lambda x: x[:, 0] * x[:, 1], ts, SPECS_3[:2])
        assert res.sigma_ee[0, 0] > 1e-3
        assert res.sigma_ee[0, 1] > 1e-3

    def test_sign_cancellation_shows_in_mu_star(self):
        # d/dx of (x-0.5)^2 changes sign across the cube: mu ~ 0, mu_star > 0
        ts = morris_trajectories(50, 1, delta=0.4, seed=2)
        res = elementary_effects(lambda x: (x[:, 0] - 0.5) ** 2, ts, SPECS_3[:1])
        assert abs(res.mu[0, 0]) < res.mu_star[0, 0]
        assert res.mu_star[0, 0] > 0.05

    def test_multi_output_shape(self):
        ts = morris_trajectories(4, 3, delta=0.3, seed=3)
        res = elementary_effects(
            lambda x: np.column_stack([x[:, 0], x[:, 1], x[:, 2], np.ones(len(x))]), ts, SPECS_3
        )
        assert res.mu.shape == (4, 3)
        assert res.k == 4 and res.l == 3
        assert res.r == 4

    def test_deterministic(self):
        ts = morris_trajectories(5, 3, delta=0.3, seed=4)
        a = elementary_effects(affine, ts, SPECS_3)
        b = elementary_effects(affine, ts, SPECS_3)
        np.testing.assert_array_equal(a.mu, b.mu)
        np.testing.assert_array_equal(a.sigma_ee, b.sigma_ee)

    def test_rejects_empty_trajectories(self):
        with pytest.raises(ValueError):
            elementary_effects(affine, [], SPECS_3)

    def test_rejects_spec_mismatch(self):
        ts = morris_trajectories(2, 3, delta=0.3, seed=0)
        with pytest.raises(ValueError):
            elementary_effects(affine, ts, SPECS_3[:2])

    def test_wraps_model_failure(self):
        ts = morris_trajectories(2, 3, delta=0.3, seed=0)

        def bad(x):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="model evaluation failed"):
            elementary_effects(bad, ts, SPECS_3)

    def test_one_call_on_stacked_trajectories(self):
        ts = morris_trajectories(5, 3, delta=0.3, seed=6)
        seen = []

        def record(x):
            seen.append(x.copy())
            return affine(x)

        elementary_effects(record, ts, SPECS_3)
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0], np.vstack([t.points for t in ts]))

    def test_wrong_output_rows_name_the_counts(self):
        ts = morris_trajectories(3, 3, delta=0.3, seed=7)  # 3 x (3 + 1) = 12 points
        one_short = lambda x: affine(x[:-1])
        doubled = lambda x: affine(np.vstack([x, x]))  # 24 values for one output
        for wrong, returned in ((one_short, 11), (doubled, 24)):
            with pytest.raises(RuntimeError, match=f"returned {returned} rows .* for 12 points"):
                elementary_effects(wrong, ts, SPECS_3)


class TestRankInputs:
    def _result(self, mu_star, sigma):
        k, l = np.atleast_2d(mu_star).shape
        return EEResult(
            mu=np.atleast_2d(mu_star),
            mu_star=np.atleast_2d(mu_star),
            sigma_ee=np.atleast_2d(sigma),
            r=5,
            delta=0.3,
            output_names=[f"y{i}" for i in range(k)],
            input_names=[f"x{v}" for v in range(l)],
        )

    def test_orders_by_mu_star(self):
        res = self._result([1.0, 3.0, 2.0], [0.0, 0.0, 0.0])
        assert rank_inputs(res, 0) == [1, 2, 0]

    def test_tie_broken_by_sigma(self):
        res = self._result([2.0, 2.0, 1.0], [0.1, 0.9, 0.0])
        assert rank_inputs(res, 0) == [1, 0, 2]

    def test_full_tie_broken_by_index(self):
        res = self._result([2.0, 2.0], [0.5, 0.5])
        assert rank_inputs(res, 0) == [0, 1]


class TestReports:
    def _res(self):
        ts = morris_trajectories(6, 3, delta=0.3, seed=5)
        f = lambda x: np.column_stack([4 * x[:, 0] - x[:, 1], x[:, 2] ** 2])
        return elementary_effects(f, ts, SPECS_3, output_names=["p1", "p2"])

    def test_report_round_trip(self):
        res = self._res()
        rows = list(csv.DictReader(io.StringIO(ee_report(res))))
        for col, want in (("mu", res.mu), ("mu_star", res.mu_star), ("sigma", res.sigma_ee)):
            got = np.array([float(r[col]) for r in rows]).reshape(res.k, res.l)
            np.testing.assert_allclose(got, want, rtol=1e-10)
        assert [r["output"] for r in rows[:: res.l]] == ["p1", "p2"]
        assert [r["input"] for r in rows[: res.l]] == ["a", "b", "c"]

    def test_row_count(self):
        res = self._res()
        lines = ee_report(res).strip().splitlines()
        assert len(lines) == 1 + res.k * res.l

    def test_ranking_text(self):
        res = self._res()
        text = ee_ranking_text(res)
        assert text.splitlines()[0].startswith("p1: a > ")

    def test_plot_data_shape(self):
        res = self._res()
        lines = ee_plot_data(res).strip().splitlines()
        assert lines[0].startswith("#")
        assert len(lines) == 1 + res.k * res.l
