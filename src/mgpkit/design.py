"""Space-filling designs and one-at-a-time screening trajectories.

All designs live in the unit hypercube [0, 1]^l and are mapped to physical
units through :func:`scale_design` with a list of :class:`InputSpec`.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np


# scipy.spatial loads when a design is first measured, not at import; tests wrap these names
def pdist(points):
    from scipy.spatial.distance import pdist
    return pdist(points)


def cdist(a, b):
    from scipy.spatial.distance import cdist
    return cdist(a, b)


_SWEEP_ROWS = 64
_BELOW = np.tri(_SWEEP_ROWS, k=-1, dtype=bool)  # a block's pairs with its own earlier rows


def _has_pair_within(points, bound) -> bool:
    """Whether two rows of ``points`` lie at distance <= ``bound``, stopping at the first.

    Rows sorted by their first coordinate are swept in blocks, each compared with
    itself and the earlier rows whose rounded gap to its first row in that
    coordinate is <= ``bound``: no distance is below that gap, and cdist rounds
    each distance as pdist does."""
    pts = points[np.argsort(points[:, 0], kind="stable")]
    x0 = pts[:, 0]
    for start in range(0, len(pts), _SWEEP_ROWS):
        stop = min(start + _SWEEP_ROWS, len(pts))
        lo = np.count_nonzero(x0[start] - x0[:start] > bound)  # gaps fall as the index grows
        near = cdist(pts[start:stop], pts[lo:stop]) <= bound
        near[:, start - lo:] &= _BELOW[: stop - start, : stop - start]
        if near.any():
            return True
    return False


@dataclass(frozen=True)
class InputSpec:
    """A named physical input with its admissible range (lower < upper)."""

    name: str
    lower: float
    upper: float

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError(
                f"input '{self.name}': lower ({self.lower}) must be < upper ({self.upper})"
            )


@dataclass(frozen=True)
class DesignMatrix:
    """n points in [0,1]^l, one row per point."""

    points: np.ndarray
    # min_distance() measured once: maximin_lhs measures every candidate
    _min_distance: float = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValueError("design points must be a 2-d array")
        if not np.all((pts >= 0.0) & (pts <= 1.0)):  # NaN fails too
            raise ValueError("design points must lie in the unit hypercube")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def l(self) -> int:
        return self.points.shape[1]

    def min_distance(self) -> float:
        """Minimum pairwise Euclidean distance between design points."""
        if self._min_distance is None:
            object.__setattr__(self, "_min_distance", float(pdist(self.points).min()))
        return self._min_distance


@dataclass(frozen=True)
class MorrisTrajectory:
    """(l+1) points where consecutive points differ in one coordinate by ±delta."""

    points: np.ndarray
    varied_index: tuple
    delta: float

    @property
    def l(self) -> int:
        return self.points.shape[1]

    def signed_steps(self) -> np.ndarray:
        """Signed step taken at each of the l moves (±delta)."""
        diffs = np.diff(self.points, axis=0)
        return diffs[np.arange(self.l), list(self.varied_index)]


def lhs(n: int, l: int, seed: int) -> DesignMatrix:
    """Latin hypercube sample: one point per axis stratum, per column,
    placed uniformly at random within its stratum.
    """
    if n < 2:
        raise ValueError(f"need at least 2 design points, got {n}")
    if l < 1:
        raise ValueError(f"need at least 1 input dimension, got {l}")
    rng = np.random.default_rng(seed)
    pts = np.empty((n, l))
    for j in range(l):
        perm = rng.permutation(n)
        pts[:, j] = (perm + rng.uniform(size=n)) / n
    return DesignMatrix(pts)


def maximin_lhs(n: int, l: int, seed: int, restarts: int = 20) -> DesignMatrix:
    """Best-of-`restarts` LHS under the maximin inter-point distance criterion.

    The first candidate reuses the stream of ``lhs(n, l, seed)``, so
    ``restarts=1`` returns exactly that design.  A later candidate is dropped at
    its first pair within the best distance so far and measured in full only
    when it has none, which leaves the chosen design unchanged.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    best = None
    best_dist = -np.inf
    for i in range(restarts):
        cand_seed = seed if i == 0 else np.random.SeedSequence((seed, i)).generate_state(1)[0]
        cand = lhs(n, l, int(cand_seed))
        if best is not None and _has_pair_within(cand.points, best_dist):
            continue  # its minimum distance cannot beat the best
        d = cand.min_distance()
        if d > best_dist:
            best, best_dist = cand, d
    return best


def scale_design(d: DesignMatrix, specs: list[InputSpec]) -> np.ndarray:
    """Map a unit-cube design to physical units, column by column."""
    if len(specs) != d.l:
        raise ValueError(f"design has {d.l} columns but {len(specs)} input specs given")
    lo = np.array([s.lower for s in specs])
    hi = np.array([s.upper for s in specs])
    return lo + d.points * (hi - lo)


def unscale_points(x_phys: np.ndarray, specs: list[InputSpec]) -> np.ndarray:
    """Inverse of :func:`scale_design` on a raw physical-unit array."""
    x_phys = np.atleast_2d(np.asarray(x_phys, dtype=float))
    if x_phys.shape[1] != len(specs):
        raise ValueError(f"points have {x_phys.shape[1]} columns but {len(specs)} input specs given")
    lo = np.array([s.lower for s in specs])
    hi = np.array([s.upper for s in specs])
    return (x_phys - lo) / (hi - lo)


# Morris base points come from a p-level grid; levels without a feasible
# ±delta step are excluded so every trajectory stays inside [0,1]^l.
MORRIS_GRID_LEVELS = 4


def morris_trajectories(
    r: int, l: int, delta: float = 0.3, seed: int = 0
) -> list[MorrisTrajectory]:
    """Generate r one-at-a-time trajectories of l+1 points each.

    Each trajectory varies every coordinate exactly once, in random order,
    by ±delta (sign flipped where needed to stay in range).
    """
    if r < 1:
        raise ValueError(f"need at least 1 trajectory, got {r}")
    if l < 1:
        raise ValueError(f"need at least 1 input dimension, got {l}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    rng = np.random.default_rng(seed)
    levels = np.linspace(0.0, 1.0, MORRIS_GRID_LEVELS)
    feasible = [lv for lv in levels if lv + delta <= 1.0 + 1e-12 or lv - delta >= -1e-12]
    trajectories = []
    for _ in range(r):
        base = rng.choice(feasible, size=l)
        order = rng.permutation(l)
        pts = np.empty((l + 1, l))
        pts[0] = base
        x = base.copy()
        for k, v in enumerate(order):
            up_ok = x[v] + delta <= 1.0 + 1e-12
            down_ok = x[v] - delta >= -1e-12
            if up_ok and down_ok:
                sign = 1.0 if rng.random() < 0.5 else -1.0
            else:
                sign = 1.0 if up_ok else -1.0
            x[v] = min(1.0, max(0.0, x[v] + sign * delta))
            pts[k + 1] = x
        trajectories.append(MorrisTrajectory(pts, tuple(int(v) for v in order), delta))
    return trajectories


def write_design_csv(path, d: DesignMatrix, specs: list[InputSpec], unit: bool = False) -> None:
    """Write a design as CSV; physical units by default, `u_`-prefixed unit cube otherwise."""
    if unit:
        header = [f"u_{s.name}" for s in specs]
        data = d.points
    else:
        header = [s.name for s in specs]
        data = scale_design(d, specs)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.write(format_csv_rows(data))


def format_csv_rows(table: np.ndarray) -> str:
    """CSV lines of a 2-d float table, every value as ``.12g``, in one pass.

    The text equals what ``csv.writer`` writes for ``[f"{v:.12g}" for v in row]``:
    such fields never need quoting, and ``\\r\\n`` is its line ending.
    """
    table = np.asarray(table, dtype=float)
    line = ",".join(["%.12g"] * table.shape[1]) + "\r\n"
    return "".join([line % tuple(row) for row in table.tolist()])


def read_design_csv(path, specs: list[InputSpec]) -> DesignMatrix:
    """Read a design CSV (unit or physical, detected from the header prefix).

    Points outside the input ranges are rejected, not clipped; a row of the
    wrong length or with a non-finite value is named in the error.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty design file")
    header = rows[0]
    is_unit = all(h.startswith("u_") for h in header)
    data = []
    for i, row in enumerate(rows[1:], start=2):
        try:
            data.append([float(v) for v in row])
        except ValueError as exc:
            raise ValueError(f"{path}: bad value at row {i}: {exc}") from exc
        if len(row) != len(specs):
            raise ValueError(f"{path}: row {i} has {len(row)} values, expected {len(specs)}")
    if not data:
        raise ValueError(f"{path}: design file has no points")
    arr = np.array(data)
    bad = np.flatnonzero(~np.isfinite(arr).all(axis=1))
    if len(bad):
        raise ValueError(f"{path}: non-finite value at row {bad[0] + 2}")
    if not is_unit:
        arr = unscale_points(arr, specs)
    return DesignMatrix(arr)
