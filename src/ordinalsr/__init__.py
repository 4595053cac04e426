"""Sequential re-estimation learning of individualized treatment rules
for ordinal treatment arms."""

from .data import (
    ScalingParams,
    TrialDataset,
    apply_scaling,
    compute_utility,
    fit_scaling,
    load_csv,
    save_csv,
)
from .kernels import KernelSpec, gram_matrix, median_bandwidth
from .aol import (
    BinarySubproblem,
    KernelExpansionRule,
    SparseLinearRule,
    build_subproblem,
    fit_aol_l1_linear,
    fit_aol_l2,
)
from .sr import (
    ConstantRule,
    SRConfig,
    SRModel,
    fit_sr,
    load_model,
    predict_ordinal,
    save_model,
)
from .simgen import SETTINGS, generate, get_setting, loss, true_optimal
from .evaluate import (
    cv_tune,
    evaluate_rule,
    itr_effect,
    misclassification,
    run_benchmark,
    summarize,
    value_estimate,
)

__version__ = "0.1.0"
