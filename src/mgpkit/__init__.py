"""mgpkit: multi-output Gaussian-process surrogate modeling toolkit.

Designs (maximin LHS, Morris trajectories), a nonseparable cross-covariance
multi-output GP with L1-penalized trend screening, a virtual three-turbine
power plant for benchmarking, and elementary-effects sensitivity screening.
"""

__version__ = "0.1.0"

from .covkernel import (
    CrossCorrAngles,
    CrossCorrMatrix,
    MarginalSds,
    RoughnessParams,
    angles_to_corr,
    corr_to_angles,
    cov_matrix,
)
from .design import (
    DesignMatrix,
    InputSpec,
    lhs,
    maximin_lhs,
    morris_trajectories,
    scale_design,
)
from .mgp import (
    Dataset,
    FitConfig,
    FitError,
    FittedModel,
    MgpParams,
    Prediction,
    RegressionBasis,
    fit,
    fit_independent,
    gls_beta_l1,
    model_from_json,
    model_to_json,
    penalized_loglik,
    predict,
    predict_batch,
    rmse,
)
from .plantsim import DEFAULT_SPECS, PlantConfig, generate_dataset, plant_response_batch
from .sensitivity import EEResult, ee_report, elementary_effects, rank_inputs
