"""Online data valuation for MLP training.

Gradient inner-product influence estimators (full IP, layerwise Ghost,
layer-aware LAI, last-layer LLI), a Monte-Carlo Shapley reference for
fidelity checks, and batch-curation training policies.
"""

from .data import DatasetBundle, Sample, Split
from .influence import (
    Estimator,
    PairSimilarities,
    Preconditioner,
    pair_matrix,
    pair_similarities,
)
from .network import (
    MLP,
    Activation,
    BatchTaps,
    LayerSpec,
    ParamGrads,
    SampleTaps,
    backward_taps,
    batch_taps,
    evaluate_sample,
    forward,
    loss_and_output_grad,
    param_grads,
)
from .oracle import ShapleyEstimate, UtilityFn, shapley_mc
from .trainer import (
    CostLedger,
    CurationDecision,
    CurationMode,
    TrainerConfig,
    TrainingReport,
    ValidationCache,
    build_validation_cache,
    curate_batch,
    sgd_step,
    train,
)

__version__ = "0.1.0"
