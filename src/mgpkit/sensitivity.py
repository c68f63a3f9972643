"""Morris elementary-effects screening over one-at-a-time trajectories."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EEResult:
    """Elementary-effect statistics per (output, input).

    mu is the signed mean of the r effects, mu_star the mean absolute effect
    (robust to sign cancellation), sigma_ee their standard deviation.
    """

    mu: np.ndarray  # K x l
    mu_star: np.ndarray  # K x l
    sigma_ee: np.ndarray  # K x l
    r: int
    delta: float
    output_names: list
    input_names: list

    @property
    def k(self) -> int:
        return self.mu.shape[0]

    @property
    def l(self) -> int:
        return self.mu.shape[1]


def elementary_effects(f, trajectories: list, specs: list, output_names: list = None) -> EEResult:
    """Compute EE statistics of a unit-cube-input model over trajectories.

    ``f`` maps an m x l array of unit-cube points to an m x K array of
    outputs (a vector when K = 1); any physical scaling happens inside f.
    It is called once, on every trajectory's (l+1) x l points stacked in
    order, and its rows are split back per trajectory.
    Each trajectory contributes one effect per input:
    (f(after) - f(before)) / signed_step.
    """
    if not trajectories:
        raise ValueError("need at least one trajectory")
    l = trajectories[0].l
    if len(specs) != l:
        raise ValueError(f"trajectories have dimension {l} but {len(specs)} input specs given")
    points = np.vstack([traj.points for traj in trajectories])
    m = points.shape[0]
    try:
        vals = np.atleast_1d(np.asarray(f(points), dtype=float))
    except Exception as exc:
        raise RuntimeError(f"model evaluation failed on {m} points: {exc}") from exc
    if vals.ndim > 2 or vals.shape[0] != m:
        raise RuntimeError(f"model returned {vals.shape[0]} rows (shape {vals.shape}) "
                           f"for {m} points; expected {m} rows")
    vals = vals.reshape(len(trajectories), l + 1, -1)
    rows = []
    for traj, tv in zip(trajectories, vals):
        steps = traj.signed_steps()
        per_input = np.empty((tv.shape[1], l))
        per_input[:, list(traj.varied_index)] = ((tv[1:] - tv[:-1]) / steps[:, None]).T
        rows.append(per_input)
    effects = np.array(rows)  # r x K x l
    r = effects.shape[0]
    mu = effects.mean(axis=0)
    mu_star = np.abs(effects).mean(axis=0)
    sigma_ee = effects.std(axis=0, ddof=1) if r > 1 else np.zeros_like(mu)
    return EEResult(
        mu=mu,
        mu_star=mu_star,
        sigma_ee=sigma_ee,
        r=r,
        delta=trajectories[0].delta,
        output_names=output_names or [f"y{i}" for i in range(mu.shape[0])],
        input_names=[s.name for s in specs],
    )


def rank_inputs(result: EEResult, output: int) -> list:
    """Input indices for one output, most important first.

    Sorted by mu_star descending, ties broken by sigma_ee descending, then by
    input index.
    """
    keys = [
        (-result.mu_star[output, v], -result.sigma_ee[output, v], v) for v in range(result.l)
    ]
    return [v for _, _, v in sorted(keys)]


def _report_rows(result: EEResult) -> list:
    """[output, input, mu, mu_star, sigma] per (output, input), numbers as .12g."""
    stats = (result.mu, result.mu_star, result.sigma_ee)
    return [[result.output_names[i], result.input_names[v], *(f"{s[i, v]:.12g}" for s in stats)]
            for i in range(result.k) for v in range(result.l)]


def ee_report(result: EEResult) -> str:
    """CSV of per-(output, input) statistics."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["output", "input", "mu", "mu_star", "sigma"])
    w.writerows(_report_rows(result))
    return buf.getvalue()


def ee_ranking_text(result: EEResult) -> str:
    lines = []
    for i in range(result.k):
        order = rank_inputs(result, i)
        names = " > ".join(result.input_names[v] for v in order)
        lines.append(f"{result.output_names[i]}: {names}")
    return "\n".join(lines)


def ee_plot_data(result: EEResult) -> str:
    """Whitespace table for external plotting: output input mu mu_star sigma."""
    lines = ["# output input mu mu_star sigma"] + [" ".join(row) for row in _report_rows(result)]
    return "\n".join(lines) + "\n"
