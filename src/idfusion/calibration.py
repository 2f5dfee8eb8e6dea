"""Temperature-scaled softmax, the per-instance calibration loss, and ECE.

The loss couples a cross-entropy term on temperature-scaled logits with a
quadratic pull of the predicted temperature towards a per-class target, so
rare classes learn to run hotter (less confident) than common ones.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

TEMPERATURE_REGULARIZER = 0.1
# fit_global_temperature searches ln T over [ln T_MIN, ln T_MAX] to a width of T_TOL.
T_MIN, T_MAX, T_TOL = 0.05, 50.0, 1e-4


def softmax(scaled: np.ndarray, out: np.ndarray | None = None, pick: tuple | None = None):
    """Softmax over the last axis of already-scaled logits, written to ``out``
    when it is given (``scaled`` itself included).

    Each row is shifted by its max before ``exp`` so nothing overflows. For an
    (m, k) block, ``pick = (positions, picked, total)`` names a flat position
    in each row: its shifted entry, taken before ``exp``, goes to ``picked``
    (m,) and the row's sum of exponentials to the column ``total`` (m, 1), so
    its log-probability is ``picked - log(total)``. Every step works along the
    last axis alone, so a row has the same bits on its own as inside a block.
    The reductions are the ufuncs that ``ndarray.max`` and ``ndarray.sum`` wrap.
    """
    row_max = np.maximum.reduce(scaled, axis=-1, keepdims=True)
    p = np.subtract(scaled, row_max, out=out)
    if pick is not None:
        np.take(p, pick[0], out=pick[1])
    np.exp(p, out=p)
    p /= np.add.reduce(p, axis=-1, keepdims=True, out=None if pick is None else pick[2])
    return p


def tempered_softmax(
    logits: np.ndarray, temperature: float | np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Softmax of ``logits / temperature`` along the last axis.

    ``temperature`` is a scalar, or an ``(n, 1)`` column giving each row of
    an ``(n, K)`` block its own temperature; ``out`` receives the result.
    """
    t = np.asarray(temperature, dtype=np.float64)
    # ndarray.min, .max and .all without their Python wrappers: this runs once per block.
    if not (np.minimum.reduce(t, axis=None) > 0 and np.maximum.reduce(t, axis=None) < np.inf):
        bad = t.flat[np.argmin((t > 0) & (t < np.inf))]  # the first one; NaN fails both
        raise ValueError(f"temperature must be positive and finite, got {bad}")
    # Checking the quotient covers non-finite logits and overflow alike.
    scaled = np.divide(np.asarray(logits, dtype=np.float64), t, out=out)
    if not np.logical_and.reduce(np.isfinite(scaled), axis=None):
        raise ValueError("logits / temperature must be finite")
    return softmax(scaled, out=out)


def per_instance_softmax(output: tuple[np.ndarray, float]) -> np.ndarray:
    return tempered_softmax(*output)


def pits_objective(
    logits: np.ndarray,
    labels: np.ndarray,
    temperatures: np.ndarray | None = None,
    targets: np.ndarray | None = None,
    lam: float = TEMPERATURE_REGULARIZER,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Per-row loss, dL/dz and dL/dT of an (m, k) batch of logits.

    With p = softmax(z / T) in each row:
        loss    = -log p_y + lam * (T - target)^2
        dL/dz_j = (p_j - 1[j == y]) / T
        dL/dT   = (z_y - z . p) / T^2 + 2 lam (T - target)

    ``temperatures=None`` is plain cross-entropy: T is 1, there is no
    regularizer and dL/dT is None. Training runs this objective's two
    kernels, the gradients once per mini-batch and the losses once per
    epoch, so nothing is validated: ``labels`` must be (m,) integers in
    [0, k), and ``temperatures`` and ``targets`` (m,) positive finite values.
    """
    m, k = logits.shape
    picks = np.arange(0, m * k, k)  # flat position of each row's label
    picks += labels
    picked, total = np.empty(m), np.empty(m)
    gap = None if temperatures is None else temperatures - targets
    grad_z, grad_t = _gradients(logits, np.empty((m, k)), (picks, picked, total[:, None]),
                                temperatures, gap, lam)
    return _losses(picked, total, gap, lam), grad_z, grad_t


def _gradients(logits: np.ndarray, out: np.ndarray, pick: tuple, temperatures=None, gap=None,
               lam: float = 0.0) -> tuple[np.ndarray, np.ndarray | None]:
    """:func:`pits_objective`'s dL/dz, into the C-ordered ``out``, and dL/dT, given ``gap`` =
    T - target; ``pick`` is :func:`softmax`'s at the labels, keeping what :func:`_losses` needs."""
    if temperatures is None:
        p = softmax(logits, out, pick)
        np.subtract.at(p.reshape(-1), pick[0], 1.0)
        return p, None
    t_col = temperatures[:, None]
    p = softmax(np.divide(logits, t_col, out=out), out, pick)
    grad_t = logits.take(pick[0])
    grad_t -= np.einsum("ij,ij->i", logits, p)
    grad_t /= np.square(temperatures)
    grad_t += gap * (2.0 * lam)
    np.subtract.at(p.reshape(-1), pick[0], 1.0)
    p /= t_col
    return p, grad_t


def _losses(picked: np.ndarray, total: np.ndarray, gap=None, lam: float = 0.0) -> np.ndarray:
    """Each row's :func:`pits_objective` loss from the label's ``picked`` logit and the
    softmax ``total`` that :func:`softmax` kept: -log p_y, plus lam * gap^2 with a ``gap``."""
    log_p = picked - np.log(total)
    if gap is None:
        return np.negative(log_p, out=log_p)
    loss = np.square(gap)
    loss *= lam
    loss -= log_p
    return loss


def fit_global_temperature(logits: np.ndarray, labels: np.ndarray) -> float:
    """Single temperature minimizing mean cross-entropy on held-out logits.

    The loss is convex in beta = 1/T: its slope, mean(sum_j p_j z_j - z_y), never
    falls as beta grows, so ln beta is bisected on the slope's sign within
    [1/T_MAX, 1/T_MIN]. A zero slope (every p_j off the label has underflowed)
    counts as falling. All-constant logit rows give T = 1 with a warning.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2 or labels.shape != logits.shape[:1]:
        raise ValueError("logits must be (n, k) with one label per row")
    n, k = logits.shape
    if n == 0:
        raise ValueError("cannot fit a temperature to zero rows")
    if not ((labels >= 0) & (labels < k)).all():
        raise ValueError(f"labels must lie in [0, {k})")
    if not np.isfinite(logits).all():
        raise ValueError("logits must be finite")
    if (logits == logits[:, :1]).all():
        logger.warning("temperature objective is flat; falling back to T=1")
        return 1.0
    label_logits = logits[np.arange(n), labels]

    def rising(log_beta: float) -> bool:
        p = softmax(logits * math.exp(log_beta))
        return (np.einsum("ij,ij->i", p, logits) - label_logits).mean() > 0

    lo, hi = -math.log(T_MAX), -math.log(T_MIN)
    if rising(lo):
        return T_MAX
    if not rising(hi):
        return T_MIN
    while hi - lo > T_TOL:
        mid = (lo + hi) / 2.0
        lo, hi = (lo, mid) if rising(mid) else (mid, hi)
    return math.exp(-(lo + hi) / 2.0)


@dataclass(frozen=True)
class CalibrationReport:
    """Expected calibration error plus the per-bin breakdown behind it."""

    ece: float
    bin_confidences: tuple[float, ...]
    bin_accuracies: tuple[float, ...]
    bin_counts: tuple[int, ...]


def ece_from_top_predictions(
    confidences: np.ndarray, correct: np.ndarray, n_bins: int = 15
) -> CalibrationReport:
    """Top-label expected calibration error over equal-width confidence bins.

    Bins partition (0, 1]; a confidence c lands in bin ceil(c * n_bins) - 1.
    ECE is the count-weighted mean absolute gap between each bin's accuracy
    and its mean confidence.
    """
    conf = np.asarray(confidences, dtype=np.float64)
    corr = np.asarray(correct, dtype=np.float64)
    if conf.shape != corr.shape or conf.ndim != 1:
        raise ValueError("confidences and correctness flags must be equal-length vectors")
    if conf.shape[0] == 0:
        raise ValueError("cannot compute calibration over zero predictions")
    if not np.all((conf > 0) & (conf <= 1)):  # NaN fails both comparisons
        raise ValueError("confidences must lie in (0, 1]")
    if n_bins < 1:
        raise ValueError("need at least one bin")

    bins = np.clip(np.ceil(conf * n_bins).astype(np.int64) - 1, 0, n_bins - 1)
    bin_conf = np.zeros(n_bins)
    bin_acc = np.zeros(n_bins)
    bin_n = np.zeros(n_bins, dtype=np.int64)
    for b in range(n_bins):
        mask = bins == b
        bin_n[b] = int(mask.sum())
        if bin_n[b]:
            bin_conf[b] = conf[mask].mean()
            bin_acc[b] = corr[mask].mean()
    n = conf.shape[0]
    ece = float(np.sum(bin_n / n * np.abs(bin_acc - bin_conf)))
    return CalibrationReport(
        ece=ece,
        bin_confidences=tuple(float(v) for v in bin_conf),
        bin_accuracies=tuple(float(v) for v in bin_acc),
        bin_counts=tuple(int(v) for v in bin_n),
    )
