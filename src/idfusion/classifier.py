"""Linear identity classifier with a learned per-instance temperature head.

The model is deliberately small: a single linear layer produces logits and a
second linear head produces the temperature through 1 + softplus, which keeps
T >= 1 by construction. Training is plain mini-batch gradient descent with
cosine-annealed learning rate; given the same seed and data it is bit-exact
across runs.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .calibration import TEMPERATURE_REGULARIZER, LogitsOutput, pits_objective
from .data import (Dataset, GridSpec, IdentityCatalog, Location, Observation, from_fields,
                   read_json, write_json)
from .errors import ConfigError, SchemaError, TrainingError

logger = logging.getLogger(__name__)

INPUT_KINDS = ("foreground", "background", "whole")
LOSS_KINDS = ("ce", "pits")


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one classifier training run."""

    loss_kind: str = "pits"
    input_kind: str = "foreground"
    lam: float = TEMPERATURE_REGULARIZER
    epochs: int = 100
    learning_rate: float = 1e-3
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        if self.loss_kind not in LOSS_KINDS:
            raise ConfigError(f"loss_kind must be one of {LOSS_KINDS}, got {self.loss_kind!r}")
        if self.input_kind not in INPUT_KINDS:
            raise ConfigError(f"input_kind must be one of {INPUT_KINDS}, got {self.input_kind!r}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be positive")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.lam < 0:
            raise ConfigError("lam must be non-negative")

    def to_dict(self) -> dict:
        return asdict(self)


def features_from(obs: Observation, input_kind: str) -> np.ndarray:
    if input_kind == "foreground":
        return obs.fg_features
    if input_kind == "background":
        return obs.bg_features
    if input_kind == "whole":
        return np.concatenate([obs.fg_features, obs.bg_features])
    raise ConfigError(f"unknown input kind {input_kind!r}")


def _softplus(u: np.ndarray | float) -> np.ndarray | float:
    return np.logaddexp(0.0, u)


@dataclass(frozen=True, eq=False)
class PitsModel:
    """Trained linear classifier over a fixed identity label space.

    ``temperature_head_active`` separates calibrated models from plain
    cross-entropy baselines. A CE-trained model never touched its temperature
    head, so exposing the head's untrained output would smear random
    temperatures over the baseline; instead the inactive head reports T = 1
    and the baseline stays an ordinary softmax classifier.
    """

    W: np.ndarray
    b: np.ndarray
    w_T: np.ndarray
    b_T: float
    labels: tuple[int, ...]
    input_kind: str
    temperature_head_active: bool
    loss_history: tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "W", np.asarray(self.W, dtype=np.float64))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=np.float64))
        object.__setattr__(self, "w_T", np.asarray(self.w_T, dtype=np.float64))
        if self.W.shape != (len(self.labels), self.w_T.shape[0]):
            raise ValueError(
                f"W shape {self.W.shape} inconsistent with {len(self.labels)} labels"
                f" and input dim {self.w_T.shape[0]}"
            )
        if self.b.shape != (len(self.labels),):
            raise ValueError("bias vector must have one entry per label")

    @property
    def n_classes(self) -> int:
        return len(self.labels)

    @property
    def input_dim(self) -> int:
        return self.w_T.shape[0]

    @property
    def final_train_loss(self) -> float | None:
        return self.loss_history[-1] if self.loss_history else None

    def forward(self, x: np.ndarray) -> LogitsOutput:
        """Logits z = Wx + b and temperature T = 1 + softplus(w_T . x + b_T)."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.input_dim,):
            raise ValueError(f"expected input of shape ({self.input_dim},), got {x.shape}")
        logits, temperatures = self.forward_rows(x[None])
        return LogitsOutput(logits=logits[0], temperature=float(temperatures[0]))

    def forward_rows(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`forward` for each row of an (n, d) block: (n, K) logits and
        (n,) temperatures.

        Each row's logits are their own matrix-vector product and each
        temperature its own dot product, as for a single input, so a row has
        the same bits alone or in a block. One matrix product ``X @ W.T``
        (or ``X @ w_T``) would be faster but sums in another order.
        """
        if X.ndim != 2 or X.shape[1] != self.input_dim:
            raise ValueError(f"expected inputs of shape (n, {self.input_dim}), got {X.shape}")
        logits = np.matmul(self.W, X[:, :, None])[:, :, 0]
        logits += self.b
        if not self.temperature_head_active:
            return logits, np.ones(X.shape[0])
        u = np.vecdot(X, self.w_T)
        u += self.b_T
        return logits, 1.0 + _softplus(u)


def _init_params(rng: np.random.Generator, k: int, d: int) -> tuple[np.ndarray, ...]:
    bound = 1.0 / math.sqrt(d)
    W = rng.uniform(-bound, bound, size=(k, d))
    w_T = rng.uniform(-bound, bound, size=d)
    return W, np.zeros(k), w_T, 0.0


def _descend(
    X: np.ndarray, y: np.ndarray, W: np.ndarray, b: np.ndarray, config: TrainConfig,
    rng: np.random.Generator, targets: np.ndarray | None = None,
    w_T: np.ndarray | None = None, b_T: float = 0.0,
) -> tuple[list[float], float]:
    """Mini-batch gradient descent on :func:`pits_objective`.

    Updates ``W`` and ``b`` in place; with ``targets`` the temperature head
    (``w_T`` in place, ``b_T`` returned) trains too, otherwise the objective
    is plain cross-entropy. Returns the per-epoch mean losses and the final
    ``b_T``.

    Once per epoch: draw the seeded shuffle, copy ``X``, ``y`` and
    ``targets`` into that order (into buffers reused across epochs), record
    the mean loss and check that the loss and every weight are finite. Per
    batch: take the next contiguous slice of the shuffled copies, run the
    forward pass and :func:`pits_objective`, and step each weight by its
    batch-mean gradient. Each step is written in place with the same float
    operations in the same order as ``W -= lr * (G.T @ Xb) / m``, so the
    weights carry the same bits as that plain expression gives.

    Raises:
        TrainingError: if the loss or any weight goes non-finite, reporting
            the epoch and the learning rate in effect.
    """
    n = X.shape[0]
    batch = config.batch_size
    Xs, ys = np.empty_like(X), np.empty_like(y)
    ts = None if targets is None else np.empty_like(targets)
    history: list[float] = []
    for epoch in range(config.epochs):
        lr = config.learning_rate * 0.5 * (1.0 + math.cos(math.pi * epoch / config.epochs))
        order = rng.permutation(n)
        # "clip" never fires on a permutation; "raise" would copy through a
        # temporary as large as X.
        np.take(X, order, axis=0, out=Xs, mode="clip")
        np.take(y, order, out=ys, mode="clip")
        if ts is not None:
            np.take(targets, order, out=ts, mode="clip")
        epoch_loss = 0.0
        for start in range(0, n, batch):
            stop = start + batch
            Xb = Xs[start:stop]
            m = Xb.shape[0]
            Z = Xb @ W.T
            Z += b
            if ts is None:
                loss, G, _ = pits_objective(Z, ys[start:stop])
            else:
                U = Xb @ w_T
                U += b_T
                T = _softplus(U)
                T += 1.0
                loss, G, dU = pits_objective(Z, ys[start:stop], T, ts[start:stop], config.lam)
                # dL/dU = dL/dT / (1 + exp(-U)), the softplus derivative.
                denom = np.exp(np.negative(U, out=U), out=U)
                denom += 1.0
                dU /= denom
                step = Xb.T @ dU
                step *= lr
                step /= m
                w_T -= step
                b_T -= lr * (float(np.add.reduce(dU)) / m)
            epoch_loss += float(np.add.reduce(loss)) / m * m
            step = G.T @ Xb
            step *= lr
            step /= m
            W -= step
            step = np.add.reduce(G, axis=0)
            step /= m
            step *= lr
            b -= step

        history.append(epoch_loss / n)
        weights = (W, b) if targets is None else (W, b, w_T, b_T)
        if not all(np.isfinite(v).all() for v in (history[-1], *weights)):
            raise TrainingError(
                f"training diverged at epoch {epoch} (lr={lr:.3g}): the loss or a weight"
                " became non-finite; reduce the learning rate or feature scale"
            )
    return history, b_T


def train(dataset: Dataset, catalog: IdentityCatalog, config: TrainConfig) -> PitsModel:
    """Fit the classifier on the train split.

    The label space is the catalog's sorted identity set; test-only
    identities are outside it by design, so every label and target
    temperature is valid as :func:`pits_objective` requires. The learning
    rate anneals to zero on a cosine.

    Raises:
        TrainingError: if the loss or any weight goes non-finite, reporting
            the epoch and the learning rate in effect.
    """
    labels = catalog.identities
    label_pos = {k: i for i, k in enumerate(labels)}
    train_obs = dataset.train

    X = np.stack([features_from(o, config.input_kind) for o in train_obs])
    y = np.array([label_pos[o.identity] for o in train_obs], dtype=np.int64)
    targets = np.array([catalog.target_temperatures[o.identity] for o in train_obs])
    n, d = X.shape
    k = len(labels)

    rng = np.random.default_rng(config.seed)
    W, b, w_T, b_T = _init_params(rng, k, d)
    use_temperature = config.loss_kind == "pits"
    history, b_T = _descend(
        X, y, W, b, config, rng, targets if use_temperature else None, w_T, b_T
    )

    logger.info(
        "trained %s/%s model: %d classes, %d samples, final loss %.4f",
        config.loss_kind, config.input_kind, k, n, history[-1],
    )
    return PitsModel(
        W=W,
        b=b,
        w_T=w_T,
        b_T=float(b_T),
        labels=labels,
        input_kind=config.input_kind,
        temperature_head_active=use_temperature,
        loss_history=tuple(history),
    )


# ---------------------------------------------------------------------------
# Background location model
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BackgroundLocationModel:
    """Linear classifier from background features to grid-cell indices."""

    W: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "W", np.asarray(self.W, dtype=np.float64))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=np.float64))
        if self.W.ndim != 2 or self.b.shape != (self.W.shape[0],):
            raise ValueError("weights must be (C, d_bg) with one bias per cell")

    @property
    def n_cells(self) -> int:
        return self.W.shape[0]

    def predict_location(self, x_bg: np.ndarray, grid: GridSpec) -> Location:
        """Center of the highest-scoring cell; ties go to the lowest index."""
        x_bg = np.asarray(x_bg, dtype=np.float64)
        if x_bg.shape != (self.W.shape[1],):
            raise ValueError(f"expected bg features of dim {self.W.shape[1]}, got {x_bg.shape}")
        if grid.n_cells != self.n_cells:
            raise ValueError(f"grid has {grid.n_cells} cells but model scores {self.n_cells}")
        scores = self.W @ x_bg + self.b
        return grid.cell_center(int(np.argmax(scores)))


def train_background_model(
    dataset: Dataset, grid: GridSpec, config: TrainConfig
) -> BackgroundLocationModel:
    """Fit a cell classifier on background features via cross-entropy.

    Reuses the optimizer settings from ``config``; the loss is always plain
    CE over cell indices regardless of config.loss_kind.
    """
    train_obs = dataset.train
    X = np.stack([o.bg_features for o in train_obs])
    y = np.array([grid.cell_index(o.location) for o in train_obs], dtype=np.int64)
    d = X.shape[1]

    rng = np.random.default_rng(config.seed)
    bound = 1.0 / math.sqrt(d)
    W = rng.uniform(-bound, bound, size=(grid.n_cells, d))
    b = np.zeros(grid.n_cells)
    _descend(X, y, W, b, config, rng)
    return BackgroundLocationModel(W=W, b=b)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_model(model: PitsModel, path: str | Path, config: TrainConfig) -> None:
    """Write a JSON checkpoint that records ``config``, the run that trained
    ``model``; exact float reprs round-trip bit-identically."""
    write_json(path, {
        "W": model.W.tolist(),
        "b": model.b.tolist(),
        "w_T": model.w_T.tolist(),
        "b_T": model.b_T,
        "d": model.input_dim,
        "K": model.n_classes,
        "labels": list(model.labels),
        "input_kind": model.input_kind,
        "temperature_head_active": model.temperature_head_active,
        "loss_history": list(model.loss_history),
        "train_config": config.to_dict(),
    })


def _floats(value) -> np.ndarray:
    return np.array(value, dtype=np.float64)


def _checkpoint_field(path: str | Path, payload: dict, key: str, convert, shape=None):
    """``convert(payload[key])``, of ``shape`` when one is given (None
    matches any length). A missing key, a value that will not convert or a
    wrong shape raises SchemaError naming the file and the key."""
    if key not in payload:
        raise SchemaError(f"{path}: checkpoint has no {key!r}")
    try:
        value = convert(payload[key])
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: checkpoint {key!r} is malformed: {exc}") from exc
    if shape is not None:
        got = np.shape(value)
        if len(got) != len(shape) or any(e not in (None, g) for e, g in zip(shape, got)):
            raise SchemaError(f"{path}: checkpoint {key!r} has shape {got}, expected {shape}")
    return value


def load_model(path: str | Path) -> PitsModel:
    """The model in a :func:`save_model` checkpoint.

    Raises:
        SchemaError: naming the file and the key when an entry is missing,
            malformed or disagrees with the stored ``K`` and ``d``.
    """
    return _model_from(path, read_json(path))


def load_model_and_config(path: str | Path) -> tuple[PitsModel, TrainConfig]:
    """:func:`load_model`, plus the checkpoint's ``train_config``, checked as
    a config section is: the provenance of every run inferred from it."""
    payload = read_json(path)
    return _model_from(path, payload), _checkpoint_field(
        path, payload, "train_config", lambda d: from_fields(TrainConfig, d, "train_config"))


def _model_from(path: str | Path, payload: dict) -> PitsModel:
    def field(key, convert, shape=None):
        return _checkpoint_field(path, payload, key, convert, shape)

    k, d = field("K", int), field("d", int)
    return PitsModel(
        W=field("W", _floats, (k, d)),
        b=field("b", _floats, (k,)),
        w_T=field("w_T", _floats, (d,)),
        b_T=field("b_T", float),
        labels=field("labels", lambda v: tuple(int(x) for x in v), (k,)),
        input_kind=field("input_kind", str),
        temperature_head_active=field("temperature_head_active", bool),
        loss_history=(field("loss_history", lambda v: tuple(float(x) for x in v))
                      if "loss_history" in payload else ()),
    )


def save_background_model(model: BackgroundLocationModel, path: str | Path,
                          config: TrainConfig) -> None:
    """Like :func:`save_model`, for a background location model."""
    write_json(path, {
        "W": model.W.tolist(),
        "b": model.b.tolist(),
        "C": model.n_cells,
        "train_config": config.to_dict(),
    })


def load_background_model(path: str | Path) -> BackgroundLocationModel:
    """The model in a :func:`save_background_model` checkpoint.

    Raises:
        SchemaError: naming the file and the key when an entry is missing,
            malformed or disagrees with the stored cell count ``C``.
    """
    payload = read_json(path)
    c = _checkpoint_field(path, payload, "C", int)
    return BackgroundLocationModel(
        W=_checkpoint_field(path, payload, "W", _floats, (c, None)),
        b=_checkpoint_field(path, payload, "b", _floats, (c,)),
    )
