"""Differentially private sketches for l1/l2 regression.

Release a private sketch of a regression dataset (JL, CountSketch, or a
multi-level weighted l1 sketch), solve the regression on the sketch, and
verify every noise-calibration formula and tail bound by Monte Carlo.
The root exports what callers of the library use; the building blocks
(``linalg``'s SVD, QR solve and samplers, ``jl``'s noisy rank test) stay in
their modules.
"""

import types as _types

from .bounds import (
    BoundReport,
    GaussianNoiseSpec,
    l1_coeff_bound,
    ridge_coeff_bound_l2,
    verify_tail_bound,
)
from .countsketch import (
    NoisePlan,
    noise_row_count,
    private_countsketch_l2,
)
from .dataset import (
    DataMatrix,
    IngestResult,
    ingest,
    max_row_norm,
    synthetic_regression,
)
from .errors import (
    CertificationError,
    DecompositionError,
    DpSketchError,
    ParameterError,
    SingularSystemError,
    SketchFileError,
)
from .jl import (
    JlConfig,
    JlReleaseMeta,
    private_jl_sketch,
    threshold_w_squared,
)
from .l1 import (
    L1SketchConfig,
    WeightedSketch,
    illustration_sketch_private,
    l1_tail_bound,
    level_count,
    private_l1_sketch,
)
from .mechanisms import (
    PrivacyParams,
    RowBound,
    bucket_sensitivity,
    gaussian_sigma,
)
from .sketchfile import SketchFile, read_sketch, write_sketch
from .solvers import (
    RatioReport,
    RegressionSolution,
    SketchProblem,
    approximation_ratio,
    exact_l1_solution,
    exact_l2_solution,
    solve_l1_weighted,
    solve_l2_sketch,
)
from .suites import SUITES

# Importing a submodule binds its name here too; export only the API.
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
]

__version__ = "0.1.0"
