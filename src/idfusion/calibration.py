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


@dataclass(frozen=True)
class LogitsOutput:
    """Raw scores plus the scalar temperature predicted for one input."""

    logits: np.ndarray
    temperature: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "logits", np.asarray(self.logits, dtype=np.float64))
        if self.logits.ndim != 1:
            raise ValueError("logits must be a one-dimensional vector")
        if not self.temperature >= 1.0:
            raise ValueError(f"per-instance temperature must be >= 1, got {self.temperature}")


def softmax(scaled: np.ndarray, with_log: bool = False, out: np.ndarray | None = None):
    """Softmax over the last axis of already-scaled logits.

    Each row is shifted by its max before ``exp`` so nothing overflows. With
    ``with_log`` the log-probabilities come back too, as ``(p, log_p)``;
    callers that only need ``p`` never pay for them. The probabilities go to
    ``out`` when it is given. Every step works along the last axis alone, so a
    row comes out with the same bits on its own as inside a block of rows.
    The reductions are the ufuncs ``ndarray.max`` and ``ndarray.sum`` call,
    without their Python wrappers.
    """
    row_max = np.maximum.reduce(scaled, axis=-1, keepdims=True)
    shifted = np.subtract(scaled, row_max, out=None if with_log else out)
    p = np.exp(shifted, out=out if with_log else shifted)
    total = np.add.reduce(p, axis=-1, keepdims=True)
    p /= total
    if not with_log:
        return p
    return p, shifted - np.log(total)


def tempered_softmax(
    logits: np.ndarray, temperature: float | np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Softmax of ``logits / temperature`` along the last axis.

    ``temperature`` is a scalar, or an ``(n, 1)`` column giving each row of
    an ``(n, K)`` block its own temperature; ``out`` receives the result.
    """
    t = np.asarray(temperature, dtype=np.float64)
    if not (t.min() > 0 and t.max() < np.inf):
        raise ValueError(f"temperature must be positive and finite, got {temperature}")
    # Checking the quotient covers non-finite logits and overflow alike.
    scaled = np.divide(np.asarray(logits, dtype=np.float64), t, out=out)
    if not np.isfinite(scaled).all():
        raise ValueError("logits / temperature must be finite")
    return softmax(scaled, out=out)


def per_instance_softmax(output: LogitsOutput) -> np.ndarray:
    return tempered_softmax(output.logits, output.temperature)


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
    regularizer and dL/dT is None. Training calls this once per mini-batch,
    so nothing is validated: ``labels`` must be (m,) integers in [0, k), and
    ``temperatures`` and ``targets`` (m,) positive finite values.
    """
    m, k = logits.shape
    picks = np.arange(0, m * k, k)  # flat position of each row's label
    picks += labels
    if temperatures is None:
        p, log_p = softmax(logits, with_log=True)
        p.flat[picks] -= 1.0
        return np.negative(log_p.take(picks)), p, None
    t_col = temperatures[:, None]
    p, log_p = softmax(logits / t_col, with_log=True)
    gap = temperatures - targets
    loss = np.square(gap)
    loss *= lam
    loss -= log_p.take(picks)  # the same bits as -log_p_y + lam * gap**2
    grad_t = logits.take(picks)
    grad_t -= np.einsum("ij,ij->i", logits, p)
    grad_t /= np.square(temperatures)
    gap *= 2.0 * lam
    grad_t += gap
    p.flat[picks] -= 1.0
    p /= t_col
    return loss, p, grad_t


def _mean_nll(logits: np.ndarray, labels: np.ndarray, temperature: float) -> float:
    loss, _, _ = pits_objective(logits / temperature, labels)
    return float(loss.sum() / len(labels))


def fit_global_temperature(logits: np.ndarray, labels: np.ndarray) -> float:
    """Single temperature minimizing mean cross-entropy on held-out logits.

    The objective is unimodal in ln T for fixed logits, so a coarse grid scan
    followed by golden-section refinement is reliable. A flat objective (for
    example, all-identical logit rows) falls back to T = 1 with a warning.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2 or logits.shape[0] != labels.shape[0]:
        raise ValueError("logits must be (n, k) with one label per row")
    if logits.shape[0] == 0:
        raise ValueError("cannot fit a temperature to zero rows")

    lo, hi = math.log(T_MIN), math.log(T_MAX)
    grid = np.linspace(lo, hi, 161)
    values = [_mean_nll(logits, labels, math.exp(g)) for g in grid]
    if max(values) - min(values) < 1e-12:
        logger.warning("temperature objective is flat; falling back to T=1")
        return 1.0

    best = int(np.argmin(values))
    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, len(grid) - 1)]

    # Golden-section search on ln T over the bracketing interval.
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = _mean_nll(logits, labels, math.exp(c))
    fd = _mean_nll(logits, labels, math.exp(d))
    while abs(b - a) > T_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = _mean_nll(logits, labels, math.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = _mean_nll(logits, labels, math.exp(d))
    return float(math.exp((a + b) / 2.0))


@dataclass(frozen=True)
class CalibrationReport:
    """Expected calibration error plus the per-bin breakdown behind it."""

    ece: float
    bin_confidences: tuple[float, ...]
    bin_accuracies: tuple[float, ...]
    bin_counts: tuple[int, ...]
    n_samples: int


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
        n_samples=n,
    )


def expected_calibration_error(
    probabilities: np.ndarray, labels: np.ndarray, n_bins: int = 15
) -> CalibrationReport:
    """ECE of a batch of probability vectors against integer labels.

    Labels outside [0, k) (for example, identities absent from training,
    conventionally encoded as -1) count as incorrect predictions.
    """
    probs = np.asarray(probabilities, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if probs.ndim != 2 or probs.shape[0] != labels.shape[0]:
        raise ValueError("probabilities must be (n, k) with one label per row")
    row_sums = probs.sum(axis=1)
    if not np.allclose(row_sums, 1.0, atol=1e-6):
        raise ValueError("probability rows must sum to 1")
    predicted = probs.argmax(axis=1)
    confidences = probs[np.arange(probs.shape[0]), predicted]
    correct = (predicted == labels).astype(np.float64)
    return ece_from_top_predictions(confidences, correct, n_bins=n_bins)
