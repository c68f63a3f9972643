"""Analytic three-turbine virtual power plant.

A deterministic closed-form stand-in for a full thermodynamic simulator: six
physical inputs map to three steady-state turbine powers (HPT, IPT, LPT) in
arbitrary consistent units.  The coefficients below are version-pinned; the
suite's regression values depend on them.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .design import DesignMatrix, InputSpec, scale_design, unscale_points
from .mgp import Dataset

DEFAULT_SPECS = [
    InputSpec("pressure_mpa", 10.0, 35.0),
    InputSpec("temperature_k", 500.0, 2000.0),
    InputSpec("mass_flow_kg_s", 2.2, 3.0),
    InputSpec("grid_frequency_hz", 50.0, 60.0),
    InputSpec("n_blades", 5.0, 20.0),
    InputSpec("boiler_temperature_k", 550.0, 650.0),
]

OUTPUT_NAMES = ["HPT", "IPT", "LPT"]

# Pinned response coefficients. Changing any of these invalidates the
# recorded midpoint reference triple in the tests.
_A_HPT = 10.0
_A_IPT = 25.0
_A_LPT = 40.0
_EXHAUST_FRACTION = 0.3
_P_EXHAUST_REF = 6.75  # nominal exhaust pressure, used when decoupled

# Response standard deviations over a 500-point reference LHS of the default
# ranges; the default noise level is a fixed fraction of these.
_REF_SPREAD = np.array([105.27214119, 107.64346765, 15.32955747])
_NOISE_FRACTION = 0.15


def _blade_efficiency(b):
    """Saturating efficiency curve: 0.5 at 5 blades, -> 1 as blades grow."""
    return b / (b + 5.0)


def _exhaust_pressure(p, t):
    return _EXHAUST_FRACTION * p * (t / 1000.0) ** 0.25


@dataclass(frozen=True)
class PlantConfig:
    """Virtual-plant settings: input ranges, noise level, series coupling."""

    specs: list = field(default_factory=lambda: list(DEFAULT_SPECS))
    noise_sd: np.ndarray = None  # per-output; default a fraction of _REF_SPREAD
    coupling: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.coupling <= 1.0:
            raise ValueError(f"coupling must be in [0, 1], got {self.coupling}")
        if self.noise_sd is None:
            object.__setattr__(self, "noise_sd", _NOISE_FRACTION * _REF_SPREAD)
        else:
            sd = np.asarray(self.noise_sd, dtype=float) * np.ones(3)
            if np.any(sd < 0.0):
                raise ValueError("noise_sd must be >= 0")
            object.__setattr__(self, "noise_sd", sd)


def plant_response_batch(x: np.ndarray, config: PlantConfig = None) -> np.ndarray:
    """Plant powers for each row of an (n x 6) physical-unit matrix -> (n x 3)."""
    config = config or PlantConfig()
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != len(config.specs):
        raise ValueError(f"expected {len(config.specs)} inputs, got {x.shape[1]}")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite plant input")

    p, t, mdot, freq, blades, t_boiler = x.T
    g = _blade_efficiency(blades)
    p_exh = _exhaust_pressure(p, t)
    c = config.coupling

    hpt = _A_HPT * p ** 0.9 * mdot * (t / 1000.0) ** 0.25 * g
    # IPT rides on the HPT exhaust when coupled, so the two are nearly
    # proportional across the operating range (a lossless series pair would
    # be perfectly correlated)
    ipt = (
        _A_IPT
        * (c * p_exh * (p / 22.5) ** -0.1 + (1.0 - c) * _P_EXHAUST_REF)
        * mdot
        * g
        * (t_boiler / 600.0) ** 0.3
    )
    lpt = (
        _A_LPT
        * mdot
        * (freq / 55.0) ** 1.2
        * (t_boiler / 600.0) ** 2
        * (1.0 + 0.05 * c * (p_exh / _P_EXHAUST_REF - 1.0))
    )
    return np.column_stack([hpt, ipt, lpt])


def generate_dataset(design: DesignMatrix, config: PlantConfig = None, reps: int = 1) -> Dataset:
    """Evaluate the plant on a unit-cube design and add iid replicate noise."""
    config = config or PlantConfig()
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    phys = scale_design(design, config.specs)
    clean = plant_response_batch(phys, config)  # n x 3
    rng = np.random.default_rng(config.seed)
    noise = rng.normal(size=(design.n, reps, 3)) * config.noise_sd
    obs = clean[:, None, :] + noise  # n x reps x 3
    ys = [obs[:, :, k].reshape(-1) for k in range(3)]
    return Dataset(config.specs, [design.points] * 3, ys, reps, list(OUTPUT_NAMES))


def write_dataset_csv(path, data: Dataset) -> None:
    """Dataset CSV: physical input columns, replication index, K output columns.

    Requires all outputs on exactly one design (true of every plant dataset).
    """
    if any(data.design_of):
        raise ValueError("dataset CSV requires a shared design across outputs")
    phys = scale_design(DesignMatrix(data.x[0]), data.specs)
    header = [s.name for s in data.specs] + ["rep"] + list(data.output_names)
    grids = [yi.reshape(-1, data.reps) for yi in data.y]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for i, row in enumerate(phys):
            for m in range(data.reps):
                # repr is the shortest text that reads back as the same float
                w.writerow([repr(float(v)) for v in row] + [m]
                           + [repr(float(g[i, m])) for g in grids])


def read_dataset_csv(path, specs: list = None) -> Dataset:
    """Inverse of :func:`write_dataset_csv`."""
    specs = specs if specs is not None else list(DEFAULT_SPECS)
    l = len(specs)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise ValueError(f"{path}: dataset file has no data rows")
    header = rows[0]
    if len(header) <= l + 1:
        raise ValueError(f"{path}: expected {l} input columns, rep and >=1 output column")
    output_names = header[l + 1 :]
    k = len(output_names)
    phys, reps_col, ys = [], [], []
    for r_i, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ValueError(f"{path}: row {r_i} has {len(row)} values, expected {len(header)}")
        try:
            phys.append([float(v) for v in row[:l]])
            reps_col.append(int(float(row[l])))
            ys.append([float(v) for v in row[l + 1 :]])
        except ValueError as exc:
            raise ValueError(f"{path}: bad value at row {r_i}: {exc}") from exc
    phys = np.array(phys)
    ys = np.array(ys)
    reps = max(reps_col) + 1
    if reps < 1 or len(phys) % reps != 0:
        raise ValueError(f"{path}: row count {len(phys)} not divisible by reps {reps}")
    n = len(phys) // reps
    # rows are point-major: a point's reps rows are consecutive, with rep 0..M-1
    for i in range(n):
        rows_i = slice(i * reps, (i + 1) * reps)
        where = f"{path}: rows {2 + i * reps}-{1 + (i + 1) * reps}"
        if reps_col[rows_i] != list(range(reps)):
            raise ValueError(f"{where}: rep column does not run 0..{reps - 1}")
        if np.any(phys[rows_i] != phys[i * reps]):
            raise ValueError(f"{where}: replicate rows disagree on their inputs")
    unit = unscale_points(phys[::reps], specs)
    y_lists = [ys[:, j].reshape(n, reps).reshape(-1) for j in range(k)]
    return Dataset(specs, [unit] * k, y_lists, reps, output_names)
