"""Calibrated animal re-identification with explicit spatiotemporal priors.

The package separates what an animal looks like (a calibrated foreground
likelihood) from where and when it tends to appear (background priors), then
fuses the two into a posterior. Keeping the factors explicit means the
location and time assumptions can be inspected, swapped, or switched off,
instead of being baked invisibly into a single end-to-end score.
"""

from .calibration import (
    CalibrationReport,
    fit_global_temperature,
    per_instance_softmax,
    pits_objective,
    tempered_softmax,
)
from .classifier import (
    PitsModel,
    TrainConfig,
    features_from,
    load_model,
    save_model,
    train,
    train_background_model,
)
from .data import (
    Dataset,
    GridSpec,
    IdentityCatalog,
    Location,
    Observation,
    build_catalog,
    load_dataset,
    save_dataset,
    target_temperature,
)
from .errors import (
    ConfigError,
    ParseError,
    SchemaError,
    SimulationError,
    SplitError,
    TrainingError,
)
from .evaluation import (
    ExperimentReport,
    infer,
    load_report,
    overall_accuracy,
    run_experiment,
    run_row_suite,
    save_report,
    score_predictions,
)
from .fusion import Prediction, fuse, read_predictions, sequential_infer, write_predictions
from .priors import (
    PriorConfig,
    PriorState,
    init_state,
    prior_vector,
    resolve_location,
    update_last_seen,
    update_location,
)
from .simulate import PRESETS, SimConfig, generate, lynx_like, turtle_like

__version__ = "0.1.0"

__all__ = [
    "CalibrationReport",
    "ConfigError",
    "Dataset",
    "ExperimentReport",
    "GridSpec",
    "IdentityCatalog",
    "Location",
    "Observation",
    "ParseError",
    "PitsModel",
    "Prediction",
    "PriorConfig",
    "PriorState",
    "PRESETS",
    "SchemaError",
    "SimConfig",
    "SimulationError",
    "SplitError",
    "TrainConfig",
    "TrainingError",
    "build_catalog",
    "features_from",
    "fit_global_temperature",
    "fuse",
    "generate",
    "infer",
    "init_state",
    "load_dataset",
    "load_model",
    "load_report",
    "lynx_like",
    "overall_accuracy",
    "per_instance_softmax",
    "pits_objective",
    "prior_vector",
    "read_predictions",
    "resolve_location",
    "run_experiment",
    "run_row_suite",
    "save_dataset",
    "save_model",
    "save_report",
    "score_predictions",
    "sequential_infer",
    "target_temperature",
    "tempered_softmax",
    "train",
    "train_background_model",
    "turtle_like",
    "update_last_seen",
    "update_location",
    "write_predictions",
]
