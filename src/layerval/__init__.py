"""Online data valuation for MLP training.

Gradient inner-product influence estimators (full IP, layerwise Ghost,
layer-aware LAI, last-layer LLI), a Monte-Carlo Shapley reference for
fidelity checks, and batch-curation training policies.
"""

from .data import DatasetBundle, Split
from .influence import Estimator, pair_matrix
from .network import MLP, Activation, BatchTaps, LayerSpec, batch_taps
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
