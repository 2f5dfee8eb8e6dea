"""Linear identity classifier with a learned per-instance temperature head.

The model is deliberately small: a single linear layer produces logits and a
second linear head produces the temperature through 1 + softplus, which keeps
T >= 1 by construction. Training is plain mini-batch gradient descent with
cosine-annealed learning rate; given the same seed and data it is bit-exact
across runs. The background location model is the same linear model over the
grid's cells, trained on background features with its temperature head off.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .calibration import TEMPERATURE_REGULARIZER, _gradients, _losses
from .data import (Dataset, GridSpec, IdentityCatalog, JsonSpec, Observation, _index, _labels,
                   _read_only_copy, check_finite, from_fields, location_xy, read_json, write_json)
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
        for name in ("epochs", "batch_size", "seed"):
            object.__setattr__(self, name, _index(getattr(self, name), "train", name, ConfigError))
        if self.loss_kind not in LOSS_KINDS:
            raise ConfigError(f"loss_kind must be one of {LOSS_KINDS}, got {self.loss_kind!r}")
        if self.input_kind not in INPUT_KINDS:
            raise ConfigError(f"input_kind must be one of {INPUT_KINDS}, got {self.input_kind!r}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        check_finite(self, positive=("learning_rate",), non_negative=("lam",))

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
    """Trained linear classifier over a fixed label space: identities, or
    the grid's cell indices for a background location model.

    ``temperature_head_active`` separates calibrated models from plain
    cross-entropy baselines. A CE-trained model never touched its temperature
    head, so exposing the head's untrained output would smear random
    temperatures over the baseline; instead the inactive head reports T = 1
    and the baseline stays an ordinary softmax classifier.

    Its labels are a tuple of distinct non-negative ints. It owns read-only
    float64 copies of ``W``, ``b`` and ``w_T``, so no write can change its
    scores, and ``sequential_infer`` may keep in ``_scored`` the likelihood
    blocks of the last tuple of observations it scored.
    """

    W: np.ndarray
    b: np.ndarray
    w_T: np.ndarray
    b_T: float
    labels: tuple[int, ...]
    input_kind: str
    temperature_head_active: bool
    loss_history: tuple[float, ...] = field(default=())
    # (observations tuple, [(block, likelihood, temperatures) for each block of its stream])
    _scored: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", _labels(self.labels, "model"))
        for name in ("W", "b", "w_T"):
            object.__setattr__(self, name, _read_only_copy(getattr(self, name)))
        if self.W.shape != (len(self.labels), self.w_T.shape[0]):
            raise ValueError(
                f"W shape {self.W.shape} inconsistent with {len(self.labels)} labels"
                f" and input dim {self.w_T.shape[0]}"
            )
        if self.b.shape != (len(self.labels),):
            raise ValueError(f"b shape {self.b.shape} inconsistent with {len(self.labels)} labels")

    @property
    def n_classes(self) -> int:
        return len(self.labels)

    @property
    def input_dim(self) -> int:
        return self.w_T.shape[0]

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        """The pair of logits z = Wx + b and temperature T = 1 + softplus(w_T . x + b_T):
        row 0 of :meth:`forward_rows` on ``x[None]``."""
        logits, temperatures = self.forward_rows(np.asarray(x, dtype=np.float64)[None])
        return logits[0], float(temperatures[0])

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

    Once per call: each batch's views of the shuffle and per-row buffers, and
    one pair of logit and gradient buffers per batch size (at most two). Once
    per epoch: refill the buffers in the seeded shuffle order, each label as
    its flat position in its batch's buffers; after the last batch, every
    row's loss from what the steps kept, summed batch by batch, and a check
    that the loss and every weight are finite. Per batch: the forward pass,
    :func:`pits_objective`'s gradients and each weight's in-place step, with
    the float operations and order of ``W -= lr * (G.T @ Xb) / m``. No step
    reads the loss, so every bit is that of the plain step with
    :func:`pits_objective` per batch.

    Raises:
        TrainingError: if the loss or any weight goes non-finite, reporting
            the epoch and the learning rate in effect.
    """
    n, k = X.shape[0], W.shape[0]
    batch = config.batch_size
    whole = n // batch * batch  # the rows in full batches
    Xs, picks, ts = np.empty_like(X), np.empty(n, dtype=np.intp), np.empty(n)
    # Per row, what its loss needs: the label's shifted logit, the softmax sum, T - target.
    picked, total, gaps = np.empty(n), np.empty(n), np.empty(n)
    row_picks = np.arange(n) % batch * k  # where each row starts in its batch's flat buffers
    work = {m: (np.empty((m, k)), np.empty((m, k))) for m in {min(batch, n), n - whole} if m}
    batches = [(Xs[i : i + batch], Xs[i : i + batch].T, ts[i : i + batch], gaps[i : i + batch],
                (picks[i : i + batch], picked[i : i + batch], total[i : i + batch, None]),
                *work[min(batch, n - i)]) for i in range(0, n, batch)]
    W_t, step_W = W.T, np.empty_like(W)
    history: list[float] = []
    for epoch in range(config.epochs):
        lr = config.learning_rate * 0.5 * (1.0 + math.cos(math.pi * epoch / config.epochs))
        order = rng.permutation(n)
        # "clip" never fires on a permutation; "raise" would copy through a
        # temporary as large as X.
        np.take(X, order, axis=0, out=Xs, mode="clip")
        np.take(y, order, out=picks, mode="clip")
        picks += row_picks
        if targets is not None:
            np.take(targets, order, out=ts, mode="clip")
        for Xb, Xb_t, tb, gap, pick, Z, G in batches:
            m = Xb.shape[0]
            np.matmul(Xb, W_t, out=Z)
            Z += b
            if targets is None:
                _gradients(Z, G, pick)
            else:
                U = Xb @ w_T
                U += b_T
                T = _softplus(U)
                T += 1.0
                _, dU = _gradients(Z, G, pick, T, np.subtract(T, tb, out=gap), config.lam)
                # dL/dU = dL/dT / (1 + exp(-U)), the softplus derivative.
                denom = np.exp(np.negative(U, out=U), out=U)
                denom += 1.0
                dU /= denom
                step = Xb_t @ dU
                step *= lr
                step /= m
                w_T -= step
                b_T -= lr * (float(np.add.reduce(dU)) / m)
            np.matmul(G.T, Xb, out=step_W)
            step_W *= lr
            step_W /= m
            W -= step_W
            step = np.add.reduce(G, axis=0)
            step /= m
            step *= lr
            b -= step

        losses = _losses(picked, total, None if targets is None else gaps, config.lam)
        # A row of a block sums with the bits it has alone, so each full batch's
        # sum is one row's.
        epoch_loss = 0.0
        for part in np.add.reduce(losses[:whole].reshape(-1, batch), axis=1).tolist():
            epoch_loss += part / batch * batch
        if whole < n:
            epoch_loss += float(np.add.reduce(losses[whole:])) / (n - whole) * (n - whole)
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


def train_background_model(dataset: Dataset, grid: GridSpec, config: TrainConfig) -> PitsModel:
    """Fit a cell classifier on background features by plain cross-entropy,
    whatever config.loss_kind says, with ``config``'s optimizer settings: a
    :class:`PitsModel` over the grid's cell indices, temperature head inactive."""
    train_obs = dataset.train
    X = np.stack([o.bg_features for o in train_obs])
    y = grid.cell_indices(location_xy(train_obs)).astype(np.int64)
    d = X.shape[1]

    rng = np.random.default_rng(config.seed)
    bound = 1.0 / math.sqrt(d)
    W = rng.uniform(-bound, bound, size=(grid.n_cells, d))
    b = np.zeros(grid.n_cells)
    history, _ = _descend(X, y, W, b, config, rng)
    return PitsModel(W=W, b=b, w_T=np.zeros(d), b_T=0.0, labels=tuple(range(grid.n_cells)),
                     input_kind="background", temperature_head_active=False,
                     loss_history=tuple(history))


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
        "labels": list(model.labels),
        "input_kind": model.input_kind,
        "temperature_head_active": model.temperature_head_active,
        "loss_history": list(model.loss_history),
        "train_config": config.to_dict(),
    })


# Open: a checkpoint that still holds "K" and "d" loads; both are read off W.
_CHECKPOINT = JsonSpec({"W": list[list[float]], "b": list[float], "w_T": list[float],
                        "b_T": float, "labels": list[int], "input_kind": str,
                        "temperature_head_active": bool, "loss_history": list[float]})


def load_model(path: str | Path) -> PitsModel:
    """The model in a :func:`save_model` checkpoint, an identity model or a background
    location model alike; SchemaError naming the file and the key when an entry is
    missing or not of its JSON type, or the shapes when the arrays disagree."""
    return _model_from(path, read_json(path))


def load_model_and_config(path: str | Path) -> tuple[PitsModel, TrainConfig]:
    """:func:`load_model`, plus the checkpoint's ``train_config``, checked as
    a config section is: the provenance of every run inferred from it."""
    payload = read_json(path)
    model = _model_from(path, payload)
    if "train_config" not in payload:
        raise SchemaError(f"{path}: checkpoint has no 'train_config'")
    return model, from_fields(TrainConfig, payload["train_config"], f"{path}: train_config",
                              SchemaError)


def _model_from(path: str | Path, payload: dict) -> PitsModel:
    for key in _CHECKPOINT.tests:
        if key not in payload and key != "loss_history":
            raise SchemaError(f"{path}: checkpoint has no {key!r}")
    _CHECKPOINT.check(payload, str(path), SchemaError)
    if (kind := payload["input_kind"]) not in INPUT_KINDS:
        raise SchemaError(f"{path}: input_kind must be one of {INPUT_KINDS}, got {kind!r}")
    arrays = {}
    for key in ("W", "b", "w_T", "b_T", "loss_history"):
        try:
            arrays[key] = np.array(payload.get(key, ()), dtype=np.float64)
        except (OverflowError, ValueError) as exc:  # ragged rows, an int too large for a float
            raise SchemaError(f"{path}: checkpoint {key!r} is malformed: {exc}") from exc
        if not np.isfinite(arrays[key]).all():
            raise SchemaError(f"{path}: checkpoint {key!r} must be finite")
    try:
        return PitsModel(W=arrays["W"], b=arrays["b"], w_T=arrays["w_T"],
                         b_T=float(arrays["b_T"]), labels=payload["labels"],
                         input_kind=payload["input_kind"],
                         temperature_head_active=payload["temperature_head_active"],
                         loss_history=tuple(arrays["loss_history"].tolist()))
    except ValueError as exc:  # a shape mismatch, a negative or repeated label
        raise SchemaError(f"{path}: malformed checkpoint: {exc}") from exc
