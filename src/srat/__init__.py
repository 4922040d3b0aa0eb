"""Reweighted adversarial training on dense networks, with a feature
separation objective, deferred class-balanced reweighting, and a
closed-form Gaussian-mixture analysis verified by brute-force oracles."""

from srat.attack import AttackConfig, pgd_attack
from srat.data import (
    ImbalanceSpec,
    LabeledDataset,
    apply_imbalance,
    batches,
    load_csv,
    sample_gaussian_mixture,
    save_csv,
)
from srat.errors import (
    AttackError,
    ConfigError,
    DomainError,
    IngestionError,
    SratError,
    TrainingError,
)
from srat.evaluation import EvalReport, evaluate, export_features
from srat.losses import (
    ClassWeights,
    LossConfig,
    combined_objective,
    cross_entropy,
    effective_number_weights,
    focal_loss,
    ldam_loss,
    separation_loss,
)
from srat.mlp import (
    DenseLayer,
    ForwardTrace,
    MlpModel,
    ModelSpec,
    backward,
    build_mlp,
    forward,
    load_model,
    save_model,
    sgd_step,
)
from srat.theory import (
    GaussianMixtureSpec,
    LinearClassifier,
    StdConvention,
    TheoremReport,
    classwise_error,
    grid_search_bias,
    monte_carlo_classwise_error,
    normal_cdf,
    optimal_bias,
    optimal_classifier,
    reweighted_risk,
    verify_theorem1,
    verify_theorem2,
)
from srat.training import TrainConfig, train_srat, weight_schedule

__version__ = "0.1.0"
