"""Posterior fusion of the likelihood with a background prior, and the
sequential inference loop that threads prior state through a test stream.

Fusion is elementwise multiplication followed by renormalization. Large label
spaces go through log space so products of many small numbers cannot
underflow; an exactly uniform prior short-circuits to the likelihood itself,
so the argmax is preserved exactly, not just up to floating-point error.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .calibration import per_instance_softmax, softmax
from .classifier import BackgroundLocationModel, PitsModel, features_from
from .data import GridSpec, Location, Observation, read_json, read_jsonl, write_json, write_jsonl
from .priors import (
    MIGRATING_LOCATION,
    TIME_DECAY,
    PriorState,
    prior_vector,
    update_last_seen,
    update_location,
)

logger = logging.getLogger(__name__)

LOG_SPACE_THRESHOLD = 64

PREDICTIONS_FILENAME = "predictions.jsonl"
PREDICTIONS_META_FILENAME = "predictions_meta.json"


@dataclass(frozen=True)
class Prediction:
    """Outcome of fusing one observation, with everything needed to audit it."""

    obs_id: str
    predicted: int
    posterior: np.ndarray
    likelihood: np.ndarray
    prior: np.ndarray
    resolved_location: Location | None
    temperature_used: float
    true_identity: int | None = None

    @property
    def correct(self) -> bool | None:
        if self.true_identity is None:
            return None
        return self.predicted == self.true_identity


def fuse(likelihood: np.ndarray, prior: np.ndarray) -> np.ndarray:
    """Normalized elementwise product of likelihood and prior.

    An exactly constant prior returns likelihood / likelihood.sum() directly,
    keeping the argmax bit-identical to the likelihood argmax. If the product
    underflows to all zeros the likelihood wins alone, with a warning, rather
    than producing NaNs.
    """
    l = np.asarray(likelihood, dtype=np.float64)
    p = np.asarray(prior, dtype=np.float64)
    if l.shape != p.shape or l.ndim != 1:
        raise ValueError(f"likelihood {l.shape} and prior {p.shape} must be equal-length vectors")
    if np.any(l < 0) or np.any(p < 0):
        raise ValueError("likelihood and prior entries must be non-negative")
    if l.sum() <= 0:
        raise ValueError("likelihood must have positive mass")

    if np.all(p == p[0]):
        return l / l.sum()

    if l.shape[0] > LOG_SPACE_THRESHOLD:
        with np.errstate(divide="ignore"):
            log_post = np.log(l) + np.log(p)
        if np.all(np.isinf(log_post)):
            logger.warning("fused posterior lost all mass; falling back to the likelihood")
            return l / l.sum()
        return softmax(log_post)

    post = l * p
    total = post.sum()
    if total <= 0:
        logger.warning("fused posterior lost all mass; falling back to the likelihood")
        return l / l.sum()
    return post / total


def _stream_order(observations: Sequence[Observation]) -> list[int]:
    # Ascending timestamps; simultaneous captures break by obs_id, then by
    # original input position, so the order is total and deterministic.
    return sorted(
        range(len(observations)),
        key=lambda i: (observations[i].timestamp, observations[i].obs_id, i),
    )


def sequential_infer(
    model: PitsModel,
    state: PriorState,
    observations: Sequence[Observation],
    grid: GridSpec | None = None,
    background_model: BackgroundLocationModel | None = None,
) -> list[Prediction]:
    """Run fusion over a time-ordered stream, updating prior state as it goes.

    The stream is sorted by timestamp internally, so caller order within one
    call never matters. After each prediction the state learns from the
    *fused* argmax, never the ground truth: a migrating prior moves that
    identity to the resolved capture location, a time-decay prior stamps it
    as just seen, and stateless priors leave the state untouched.

    Streaming contract: ``state`` is advanced in place and is not copied.
    Feeding a stream as consecutive time-ordered chunks that share one state
    gives the same predictions, bit for bit, as one call over the whole
    stream; a caller that wants to keep the starting state passes a fresh one
    from ``init_state``.
    """
    if state is None:
        raise ValueError("sequential inference needs an initialized prior state")
    if not observations:
        raise ValueError("cannot run inference over an empty observation stream")
    if tuple(model.labels) != tuple(state.labels):
        raise ValueError("model and prior state disagree on the label space")

    active = {state.config.kind, *state.config.combine_with}
    track_location = MIGRATING_LOCATION in active
    track_time = TIME_DECAY in active

    predictions: list[Prediction] = []
    for i in _stream_order(observations):
        obs = observations[i]
        out = model.forward(features_from(obs, model.input_kind))
        likelihood = per_instance_softmax(out)
        prior, loc = prior_vector(state, obs, background_model, grid)
        posterior = fuse(likelihood, prior)
        winner = state.labels[int(np.argmax(posterior))]

        if track_location:
            update_location(state, winner, loc)
        if track_time:
            update_last_seen(state, winner, obs.timestamp)

        predictions.append(
            Prediction(
                obs_id=obs.obs_id,
                predicted=winner,
                posterior=posterior,
                likelihood=likelihood,
                prior=prior,
                resolved_location=loc,
                temperature_used=out.temperature,
                true_identity=obs.identity,
            )
        )
    return predictions


# ---------------------------------------------------------------------------
# Prediction records on disk
# ---------------------------------------------------------------------------


def _top_entries(vector: np.ndarray, labels: tuple[int, ...], n: int = 5) -> list[list]:
    order = np.argsort(-vector, kind="stable")[:n]
    return [[int(labels[i]), float(vector[i])] for i in order]


def prediction_record(pred: Prediction, labels: tuple[int, ...], prior_kind: str) -> dict:
    """The JSON-ready record of one prediction, as stored and as scored.

    likelihood_top5 rides along so a scorer can compute calibration of the
    uncalibrated-vs-fused pair without rerunning inference.
    """
    return {
        "obs_id": pred.obs_id,
        "predicted": int(pred.predicted),
        "true": None if pred.true_identity is None else int(pred.true_identity),
        "posterior_top5": _top_entries(pred.posterior, labels),
        "likelihood_top5": _top_entries(pred.likelihood, labels),
        "prior_kind": prior_kind,
        "resolved_loc": (
            None if pred.resolved_location is None
            else [pred.resolved_location.x, pred.resolved_location.y]
        ),
        "T_i": pred.temperature_used,
    }


def write_predictions(
    predictions: Sequence[Prediction],
    directory: str | Path,
    labels: tuple[int, ...],
    prior_kind: str,
    meta: dict | None = None,
) -> None:
    """Write one JSON line per prediction plus a metadata sidecar.

    Output is byte-stable: keys are sorted and floats use exact reprs, so the
    same inputs always produce the same file.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_jsonl(directory / PREDICTIONS_FILENAME,
                (prediction_record(pred, labels, prior_kind) for pred in predictions))
    write_json(directory / PREDICTIONS_META_FILENAME,
               {"labels": list(labels), "prior_kind": prior_kind, **(meta or {})})


def read_predictions(directory: str | Path) -> tuple[list[dict], dict]:
    """Load prediction records and their sidecar as plain dictionaries; a line or a
    sidecar that is not a JSON object raises ParseError or SchemaError."""
    directory = Path(directory)
    records = [rec for _, rec in read_jsonl(directory / PREDICTIONS_FILENAME)]
    return records, read_json(directory / PREDICTIONS_META_FILENAME)
