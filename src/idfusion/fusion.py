"""Posterior fusion with a background prior, the sequential inference loop
that threads prior state through a test stream, and the prediction records.

Fusion is elementwise multiplication followed by renormalization. Large label
spaces go through log space so products of many small numbers cannot
underflow; an exactly uniform prior short-circuits to the likelihood itself,
so the argmax is preserved exactly, not just up to floating-point error.

Inference is one loop over blocks of up to ``BLOCK_ROWS`` sightings. The
likelihood never depends on prior state, so every block's is computed once,
before the first state write. A model keeps the blocks of the last tuple of
observations it scored, with its stream order, and a later call over that same
tuple object, under any prior, reads them. Only a tuple (immutable, and held so
its id cannot be reused) is kept: a list or an iterator is scored on every call.
The memo lives and dies with its model. Its likelihood rows are shared by the
predictions of every call, so they are read-only; each call takes its own ``np.log``.
A decaying prior decays the block's offsets from the state's anchors in its
prior rows; the uniform prior fills them with 1/K. A stateless prior, its
fusion and the argmax run once over the block. The migrating and time priors
read the anchors each earlier row's winner moved: a serial draft picks each
row's winner as the argmax of ``log L - rate * offset`` and rewrites its
offsets for later rows, and one block pass over those offsets verifies it.
Rows up to the first wrong draft are final and move anchors in row order; the
rest are drafted again. A lone last row takes no draft.

Every kernel works along the label axis alone, so a sighting's posterior
has the same bits whether it comes alone or in a block, in one call or in
many. That is why the logits are one matrix-vector product per row
(``PitsModel.forward_rows``) and not one matrix product over the block: a
matrix product sums in another order and would move the last bits of the
logits. ``fuse_rows`` is the one fusion kernel, for a block, a row and
:func:`fuse`. The log-likelihood it adds in log space is taken once per
block, and the error state that lets a lost row take log(0) is set once per
call, not once per row.

Records are written afterwards as json's text, ``BLOCK_ROWS`` predictions at a time, so
single-sighting callers never pay; :func:`prediction_lines` tells how.
"""

from __future__ import annotations

import json
import logging
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .calibration import softmax, tempered_softmax
from .classifier import PitsModel, features_from
from .data import (GridSpec, Location, Observation, is_finite, json_rows, read_json, read_jsonl,
                   write_json)
from .errors import ConfigError
from .priors import (MIGRATING_LOCATION, TIME_DECAY, UNIFORM, PriorConfig, PriorState, decay,
                     decay_offsets, decay_terms, resolve_locations)

logger = logging.getLogger(__name__)

LOG_SPACE_THRESHOLD = 64
_LOST_MASS = "fused posterior lost all mass; falling back to the likelihood"
# Sightings per block of the inference loop. Each block computes into a few
# (BLOCK_ROWS, K) temporaries and stores its rows in three (BLOCK_ROWS, K)
# arrays of its own. Blocks this small reuse memory the process already
# holds, as per-sighting vectors did: at K=500, storing whole-stream (N, K)
# arrays raised the online-stream benchmark's peak RSS by 9%, 64-row blocks
# by 3-6% and 32-row blocks by 1-2%.
BLOCK_ROWS = 32

PREDICTIONS_FILENAME = "predictions.jsonl"
PREDICTIONS_META_FILENAME = "predictions_meta.json"


@dataclass(frozen=True)
class Prediction:
    """Outcome of fusing one observation, with everything needed to audit it.

    ``posterior``, ``likelihood`` and ``prior`` are rows of three arrays
    shared by the predictions of one block of ``sequential_infer``; the
    read-only likelihood's also by every call over a memoized tuple.
    ``resolved_location`` is the capture location the spatial priors read,
    ``temperature_used`` the sighting's T_i and ``true_identity`` its label.
    """

    obs_id: str
    predicted: int
    posterior: np.ndarray
    likelihood: np.ndarray
    prior: np.ndarray
    resolved_location: Location
    temperature_used: float
    true_identity: int

    @property
    def correct(self) -> bool:
        return self.predicted == self.true_identity


def fuse_rows(likelihood: np.ndarray, log_likelihood: np.ndarray, prior: np.ndarray,
              out: np.ndarray) -> np.ndarray:
    """:func:`fuse` along the last axis of (..., K) arrays, written to ``out``:
    an (n, K) block or a single (K,) row. ``log_likelihood`` is
    ``np.log(likelihood)``, taken by the caller once for a whole block; only
    log space (K > ``LOG_SPACE_THRESHOLD``) reads it.

    Inputs are not checked: each row must be a valid likelihood and prior.
    The caller ignores divide and invalid errors, since a row that loses all its
    mass takes log(0) or 0/0; returns those rows' indices, in order, to warn for.
    """
    constant = np.logical_and.reduce(prior == prior[..., :1], axis=-1)  # ndarray.all, unwrapped
    if constant.ndim and np.count_nonzero(constant) == len(constant):
        # A block of constant rows (the uniform prior's) keeps only the fallback's quotient.
        np.divide(likelihood, likelihood.sum(axis=-1, keepdims=True), out=out)
        return []
    if likelihood.shape[-1] > LOG_SPACE_THRESHOLD:
        np.log(prior, out=out)
        out += log_likelihood
        lost = np.logical_and.reduce(np.isinf(out), axis=-1)
        softmax(out, out=out)
    else:
        np.multiply(likelihood, prior, out=out)
        total = out.sum(axis=-1, keepdims=True)
        lost = total[..., 0] <= 0
        out /= total
    fallback = constant | lost
    if not np.count_nonzero(fallback):
        return []
    kept = likelihood[fallback]
    out[fallback] = kept / kept.sum(axis=-1, keepdims=True)
    return np.flatnonzero(lost & ~constant).tolist()


@np.errstate(divide="ignore", invalid="ignore")
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
    if not (np.isfinite(l).all() and np.isfinite(p).all()):
        raise ValueError("likelihood and prior entries must be finite")
    if np.any(l < 0) or np.any(p < 0):
        raise ValueError("likelihood and prior entries must be non-negative")
    if l.sum() <= 0:
        raise ValueError("likelihood must have positive mass")
    posterior = np.empty_like(l)
    if fuse_rows(l, np.log(l), p, posterior):
        logger.warning(_LOST_MASS)
    return posterior


@np.errstate(over="ignore")
def _draft(offsets: np.ndarray, log_likelihood: np.ndarray, points: np.ndarray,
           config: PriorConfig, rate: float) -> np.ndarray:
    """Winners drafted row by row as the argmax of ``log_likelihood - rate * offsets``;
    after each, the winner's column of ``offsets`` is rewritten in place for the later
    rows with their offsets from this row's point, the bits its state write gives. The
    fused argmax may still differ, so the caller verifies. Overflowing scores rank last."""
    # from_row[j, i]: the offset of row j's point from row i's, as an anchor.
    from_row = decay_offsets(config, points, points)
    winners = np.empty(len(points), dtype=np.intp)
    for i in range(len(points)):
        w = winners[i] = (log_likelihood[i] - rate * offsets[i]).argmax()
        offsets[i + 1 :, w] = from_row[i + 1 :, i]
    return winners


def _stream_order(observations: Sequence[Observation]) -> list[int]:
    # Ascending timestamps; simultaneous captures break by obs_id, then by
    # original input position, so the order is total and deterministic.
    return sorted(
        range(len(observations)),
        key=lambda i: (observations[i].timestamp, observations[i].obs_id, i),
    )


@np.errstate(divide="ignore", invalid="ignore")
def sequential_infer(
    model: PitsModel,
    state: PriorState,
    observations: Iterable[Observation],
    grid: GridSpec | None = None,
    background_model: PitsModel | None = None,
) -> list[Prediction]:
    """Run fusion over a time-ordered stream, updating prior state as it goes.

    ``observations`` is any iterable; it is read once. The stream is sorted
    by timestamp internally, so caller order within one call never matters.
    The state learns from each *fused* argmax, never the ground truth, in row
    order (drafted, then verified, a block at a time: see the module docstring):
    a migrating prior moves that identity to the resolved capture location, a
    time-decay prior stamps it as just seen; stateless priors leave it untouched.
    Every block's likelihood is computed (or read from ``model``'s memo: see the
    module docstring) before the first state write, so a bad temperature anywhere
    in the stream raises with ``state`` untouched.

    ValueError unless ``model`` and ``state`` have equal labels (the state then takes
    the model's tuple), ConfigError unless ``grid`` has the config's cell size.

    Streaming contract: ``state`` is advanced in place and is not copied.
    Feeding a stream as consecutive time-ordered chunks that share one state
    gives the same predictions, bit for bit, as one call over the whole
    stream, or as one call per sighting; a caller that wants to keep the
    starting state passes a fresh one from ``init_state``.
    """
    scored = model._scored
    blocks = scored[1] if scored is not None and scored[0] is observations else None
    stream = observations if blocks else list(observations)
    if state is None:
        raise ValueError("sequential inference needs an initialized prior state")
    if not stream:
        raise ValueError("cannot run inference over an empty observation stream")
    if model.labels is not state.labels and model.labels != state.labels:
        raise ValueError("model and prior state disagree on the label space")
    state.labels = model.labels
    config = state.config
    if grid is not None and grid.cell_size_km != config.cell_size_km:
        raise ConfigError(f"the grid's cells are {grid.cell_size_km} km but the prior measures"
                          f" distance in {config.cell_size_km} km cells")
    if blocks is None:
        if len(stream) > 1:
            stream = [stream[i] for i in _stream_order(stream)]
        blocks = []
        for start in range(0, len(stream), BLOCK_ROWS):
            block = stream[start : start + BLOCK_ROWS]
            X = np.array([features_from(o, model.input_kind) for o in block])
            logits, temperatures = model.forward_rows(X)
            likelihood = tempered_softmax(logits, temperatures[:, None], out=np.empty(logits.shape))
            likelihood.setflags(write=False)
            blocks.append((block, likelihood, temperatures.tolist()))
        if isinstance(observations, tuple):
            object.__setattr__(model, "_scored", (observations, blocks))

    decaying, moving = config.kind != UNIFORM, config.kind in (MIGRATING_LOCATION, TIME_DECAY)
    predictions: list[Prediction] = []
    for block, likelihood, temperatures in blocks:
        locations = resolve_locations(block, config, background_model, grid)
        where = np.array([(loc.x, loc.y, o.timestamp) for loc, o in zip(locations, block)])
        prior, posterior = np.empty(likelihood.shape), np.empty(likelihood.shape)
        log_likelihood = np.log(likelihood)
        winners: list[int] = []
        if decaying:
            anchors, points, rate = decay_terms(state, where[:, :2], where[:, 2])
        else:
            prior.fill(1.0 / len(state.labels))
        while len(winners) < len(block):
            # A lone last row is indexed, not sliced: the kernels run faster on a (K,) row.
            done, drafted = len(winners), None
            rows = done if done + 1 == len(block) else slice(done, None)
            if decaying:
                offsets = decay_offsets(config, anchors, points[rows], out=prior[rows])
                if moving and offsets.ndim > 1:
                    drafted = _draft(offsets, log_likelihood[rows], points[rows], config, rate)
                decay(offsets, rate)
            lost = fuse_rows(likelihood[rows], log_likelihood[rows], prior[rows], posterior[rows])
            won = posterior[done:].argmax(axis=-1)
            misses = () if drafted is None else np.flatnonzero(won != drafted)
            kept = won[: misses[0] + 1].tolist() if len(misses) else won.tolist()
            if moving:
                for row, w in enumerate(kept, done):
                    anchors[w] = points[row]
            for _ in range(bisect_left(lost, len(kept))):
                logger.warning(_LOST_MASS)
            winners += kept
        predictions += [Prediction(o.obs_id, state.labels[w], post, l, p, loc, t, o.identity)
                        for o, w, l, p, post, loc, t in zip(
                            block, winners, likelihood, prior, posterior, locations, temperatures)]
    return predictions


# ---------------------------------------------------------------------------
# Prediction records on disk
# ---------------------------------------------------------------------------


def prediction_lines(predictions: Sequence[Prediction], labels: tuple[int, ...],
                     prior_kind: str) -> Iterator[str]:
    """Each prediction's record as the line json writes, as stored and as scored; likelihood_top5
    rides along so a scorer can compute calibration without rerunning inference. ValueError
    naming the obs_id and the field on a NaN or an infinity, which JSON cannot hold, after the
    lines of the chunks before it. The top 5 are ``min(K, 5)`` argmax rounds over a stacked copy,
    each pick then set to -inf: argmax takes the first maximum, so ties go to the lower label as
    a stable sort puts them, -0.0 included. A chunk's ``T_i`` and coordinates are one float64
    array, written in one call, so each is a JSON float whatever number type it was given as."""
    # json's separators, keys in sorted order.
    record = ('{"T_i": %s, "likelihood_top5": %s, "obs_id": %s, "posterior_top5": %s, '
              '"predicted": %d, "prior_kind": %s, "resolved_loc": [%s, %s], "true": %d}\n')
    label_of, quote = np.array(labels, dtype=object), json.encoder.encode_basestring_ascii
    kind = quote(prior_kind)
    for start in range(0, len(predictions), BLOCK_ROWS):
        chunk = predictions[start : start + BLOCK_ROWS]
        rows = np.array([p.posterior for p in chunk] + [p.likelihood for p in chunk], dtype=np.float64)
        try:
            numbers = np.array([(p.temperature_used, p.resolved_location.x, p.resolved_location.y)
                                for p in chunk], dtype=np.float64)
        except OverflowError:  # a Location holds floats, so only T_i can be a huge int
            for p in chunk:
                is_finite(p.temperature_used, f"prediction {p.obs_id!r}", "T_i")
            raise
        # A row per prediction: its posterior, its likelihood, T_i, x and y.
        finite = np.hstack([np.isfinite(rows).all(axis=1).reshape(2, -1).T, np.isfinite(numbers)])
        if not finite.all():
            i, column = divmod(int(finite.argmin()), 5)
            field = ("posterior", "likelihood", "T_i", "resolved_loc", "resolved_loc")[column]
            raise ValueError(f"prediction {chunk[i].obs_id!r}: {field} is not finite")
        every = np.arange(len(rows))
        order = np.empty((len(rows), min(rows.shape[1], 5)), dtype=np.intp)
        top = np.empty(order.shape)
        for j in range(order.shape[1]):
            picked = order[:, j] = rows.argmax(axis=1)
            top[:, j] = rows[every, picked]
            rows[every, picked] = -np.inf
        tops = json_rows(top, label_of[order])
        text = json_rows(numbers.reshape(1, -1))[0][1:-1].split(", ")
        for pred, posterior, likelihood, t_i, x, y in zip(chunk, tops, tops[len(chunk):], text[::3],
                                                          text[1::3], text[2::3]):
            yield record % (t_i, likelihood, quote(pred.obs_id), posterior, pred.predicted, kind,
                            x, y, pred.true_identity)


def write_predictions(predictions: Sequence[Prediction], directory: str | Path,
                      labels: tuple[int, ...], prior_kind: str, meta: dict | None = None) -> None:
    """Write one JSON line per prediction plus a metadata sidecar.

    Output is byte-stable: keys are sorted and floats use exact reprs, so the same inputs
    always produce the same file. A NaN or an infinity raises ValueError, before the sidecar.
    ``meta`` adds keys to the sidecar; a ``labels`` (a list) or ``prior_kind`` in it that
    differs from the arguments the records are formatted with raises ValueError, before any file.
    """
    meta, sidecar = meta or {}, {"labels": list(labels), "prior_kind": prior_kind}
    for key, value in sidecar.items():
        if key in meta and meta[key] != value:
            raise ValueError(f"meta {key!r} differs from the {key} the records are written with")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with (directory / PREDICTIONS_FILENAME).open("w", encoding="utf-8") as fh:
        fh.writelines(prediction_lines(predictions, labels, prior_kind))
    write_json(directory / PREDICTIONS_META_FILENAME, {**sidecar, **meta})


def read_predictions(directory: str | Path) -> tuple[list[dict], dict]:
    """Load prediction records and their sidecar as plain dictionaries; a line or a
    sidecar that is not a JSON object raises ParseError or SchemaError."""
    directory = Path(directory)
    records = [rec for _, rec in read_jsonl(directory / PREDICTIONS_FILENAME)]
    return records, read_json(directory / PREDICTIONS_META_FILENAME)
