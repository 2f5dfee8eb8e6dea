"""Tempered softmax, the per-instance loss and its gradients, the global
temperature fit, and ECE."""

import logging
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from idfusion.calibration import (
    T_MAX,
    T_MIN,
    T_TOL,
    ece_from_top_predictions,
    fit_global_temperature,
    pits_objective,
    tempered_softmax,
)

from oracles import (brute_force_temperature, ece_ref, numeric_pits_grad, pits_loss_ref,
                     softmax_t)


def test_tempered_softmax_uniform_logits():
    p = tempered_softmax(np.array([1.0, 1.0, 1.0]), 1.0)
    assert np.allclose(p, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)


def test_tempered_softmax_two_class_halved():
    p = tempered_softmax(np.array([2.0, 0.0]), 2.0)
    assert p[0] == pytest.approx(0.73106, abs=1e-5)
    assert p[1] == pytest.approx(0.26894, abs=1e-5)


def test_tempered_softmax_huge_temperature_flattens():
    p = tempered_softmax(np.array([2.0, 0.0]), 1e6)
    assert np.all(np.abs(p - 0.5) < 1e-5)


def test_tempered_softmax_matches_reference():
    rng = np.random.default_rng(7)
    for _ in range(50):
        k = int(rng.integers(2, 12))
        z = rng.normal(size=k) * 3.0
        t = float(rng.uniform(0.5, 20.0))
        assert np.allclose(tempered_softmax(z, t), softmax_t(z, t), atol=1e-12)


def test_tempered_softmax_preserves_argmax():
    # Scaling by a positive scalar is monotone, so ranking never changes.
    rng = np.random.default_rng(11)
    for _ in range(200):
        z = rng.normal(size=int(rng.integers(2, 30))) * 5.0
        base = int(np.argmax(tempered_softmax(z, 1.0)))
        for t in (0.5, 2.0, 10.0, 50.0):
            assert int(np.argmax(tempered_softmax(z, t))) == base


def test_tempered_softmax_rejects_bad_inputs():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            tempered_softmax(np.array([1.0, bad]), 1.0)
    with pytest.raises(ValueError):
        tempered_softmax(np.array([1.0, 0.0]), 0.0)
    with pytest.raises(ValueError):
        tempered_softmax(np.array([1.0, 0.0]), math.inf)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_a_bad_temperature_column_quotes_its_first_bad_value(bad):
    # Weights past float range overflow T to inf; the message names the value, not the column.
    t = np.ones((40, 1))
    t[7, 0], t[30, 0] = bad, 0.0
    with pytest.raises(ValueError, match=f"^temperature must be positive and finite, got {bad}$"):
        tempered_softmax(np.zeros((40, 3)), t)


def test_tempered_softmax_rejects_an_overflowing_quotient():
    # Finite logits over a tiny finite temperature overflow to inf.
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        tempered_softmax(np.array([1e300, 0.0]), 1e-10)


def _one_row(z, t, y, target, lam=0.1):
    """pits_objective on a one-row batch: (loss, dL/dz, dL/dT) of that row."""
    loss, grad_z, grad_t = pits_objective(
        np.asarray(z, dtype=np.float64)[None, :], np.array([y]), np.array([t]),
        np.array([target]), lam,
    )
    return float(loss[0]), grad_z[0], float(grad_t[0])


def test_pits_loss_symmetric_two_class():
    assert _one_row([0.0, 0.0], 1.0, 0, 1.0)[0] == pytest.approx(math.log(2.0), abs=1e-12)


def test_pits_loss_matches_reference():
    rng = np.random.default_rng(23)
    for _ in range(100):
        k = int(rng.integers(2, 15))
        z = rng.normal(size=k) * 4.0
        t = float(1.0 + rng.uniform(0.0, 5.0))
        y = int(rng.integers(0, k))
        target = float(1.0 + rng.uniform(0.0, 3.0))
        got = _one_row(z, t, y, target)[0]
        want = pits_loss_ref(z, t, y, target, 0.1)
        assert got == pytest.approx(want, abs=1e-10)


def test_pits_loss_equals_cross_entropy_at_unit_temperature():
    # With T pinned to the unit target the quadratic term vanishes for any lam.
    rng = np.random.default_rng(3)
    for _ in range(50):
        z = rng.normal(size=8) * 3.0
        y = int(rng.integers(0, 8))
        ce = -math.log(tempered_softmax(z, 1.0)[y])
        assert _one_row(z, 1.0, y, 1.0)[0] == pytest.approx(ce, abs=1e-12)


def test_grad_symmetric_two_class():
    _, grad_z, grad_t = _one_row([0.0, 0.0], 1.0, 0, 1.0)
    assert np.allclose(grad_z, [-0.5, 0.5], atol=1e-12)
    assert grad_t == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("k", [2, 10, 100])
def test_grad_matches_finite_differences(k):
    rng = np.random.default_rng(100 + k)
    for _ in range(10):
        z = rng.normal(size=k) * 2.0
        t = float(1.0 + rng.uniform(0.0, 4.0))
        y = int(rng.integers(0, k))
        target = float(1.0 + rng.uniform(0.0, 2.0))
        _, grad_z, grad_t = _one_row(z, t, y, target)
        num_z, num_t = numeric_pits_grad(list(z), t, y, target, 0.1)
        for a, n in zip(list(grad_z) + [grad_t], num_z + [num_t]):
            if abs(a) < 1e-8:
                continue
            assert abs(a - n) / abs(a) < 1e-4


def test_fit_recovers_doubled_scale():
    rng = np.random.default_rng(42)
    z = rng.normal(size=(10_000, 5)) * 2.0
    probs = np.exp(z - z.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    labels = np.array([rng.choice(5, p=row) for row in probs])
    assert fit_global_temperature(2.0 * z, labels) == pytest.approx(2.0, abs=0.1)
    assert fit_global_temperature(z, labels) == pytest.approx(1.0, abs=0.1)


def test_fit_clamps_at_lower_bound():
    # One confidently-correct row: colder is always better. Past beta = 1/T
    # of about 3.7 p_1 underflows and the slope is exactly zero; a zero
    # slope counts as falling, so the fit runs on to the bottom of the range.
    assert fit_global_temperature(np.array([[10.0, 0.0]]), np.array([0])) == T_MIN


def test_fit_clamps_at_upper_bound():
    # One row whose label has the lower logit: hotter is always better.
    assert fit_global_temperature(np.array([[0.0, 1.0]]), np.array([0])) == T_MAX


def test_fit_flat_objective_warns_and_returns_unit(caplog):
    # With K = 3 and rows of 7.0, sum(p * z) rounds below z_y, so the slope
    # alone would read as falling everywhere: flat rows are found as such.
    for logits in (np.zeros((20, 4)), np.full((5, 3), 7.0)):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="idfusion.calibration"):
            t = fit_global_temperature(logits, np.zeros(len(logits), dtype=int))
        assert t == 1.0
        assert any("flat" in r.message for r in caplog.records)


def test_fit_validates_shapes():
    with pytest.raises(ValueError):
        fit_global_temperature(np.zeros((0, 3)), np.zeros(0, dtype=int))
    with pytest.raises(ValueError):
        fit_global_temperature(np.zeros((4, 3)), np.zeros(5, dtype=int))


@pytest.mark.parametrize("edit, words", [
    (lambda z, y: y.__setitem__(0, -1), "labels must lie in"),
    (lambda z, y: y.__setitem__(0, 4), "labels must lie in"),
    (lambda z, y: z.__setitem__((0, 1), np.nan), "must be finite"),
    (lambda z, y: z.__setitem__((0, 1), np.inf), "must be finite"),
], ids=["label-negative", "label-k", "nan-logit", "inf-logit"])
def test_fit_rejects_bad_input(edit, words):
    # Unchecked, a label of -1 indexes the last class and a NaN logit still
    # yields a temperature, so both are rejected before the fit.
    rng = np.random.default_rng(9)
    z, y = rng.normal(size=(50, 4)), rng.integers(0, 4, size=50)
    edit(z, y)
    with pytest.raises(ValueError, match=words):
        fit_global_temperature(z, y)


@st.composite
def _fit_problems(draw):
    """Logits on a 1/8 lattice in [-8, 8], so every row that is not constant
    has a spread the value-based oracle can resolve."""
    n, k = draw(st.integers(1, 12)), draw(st.integers(2, 6))
    ticks = draw(hnp.arrays(np.int64, (n, k), elements=st.integers(-64, 64), fill=st.nothing()))
    logits = ticks / 8.0
    labels = draw(hnp.arrays(np.int64, n, elements=st.integers(0, k - 1), fill=st.nothing()))
    assume(not (logits == logits[:, :1]).all())  # flat rows are the flat test's case
    return logits, labels


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@example((np.array([[10.0, 0.0]]), np.array([0])))  # the underflow plateau: T_MIN
@example((np.array([[0.0, 1.0]]), np.array([0])))  # T_MAX
@example((np.array([[2.0, 0.0], [2.0, 0.0], [0.0, 2.0]]), np.array([0, 0, 0])))  # interior
@given(_fit_problems())
def test_fit_agrees_with_brute_force(problem):
    logits, labels = problem
    got = fit_global_temperature(logits, labels)
    want = brute_force_temperature(logits.tolist(), labels.tolist(), T_MIN, T_MAX)
    assert abs(math.log(got) - math.log(want)) <= T_TOL


def test_ece_refuses_confidences_and_flags_of_unequal_lengths():
    with pytest.raises(ValueError, match="^confidences and correctness flags must be equal-length"):
        ece_from_top_predictions(np.ones(3), np.ones(2))


def test_ece_perfectly_calibrated_certainty():
    report = ece_from_top_predictions(np.ones(3), np.ones(3), n_bins=10)
    assert report.ece == 0.0


def test_ece_overconfident_coin_flip():
    report = ece_from_top_predictions(np.ones(4), np.array([1.0, 0.0, 1.0, 0.0]), n_bins=10)
    assert report.ece == pytest.approx(0.5, abs=1e-12)


def test_ece_two_bin_fixture():
    conf = np.array([0.6, 0.6, 0.9, 0.9])
    correct = np.array([1.0, 0.0, 1.0, 1.0])
    report = ece_from_top_predictions(conf, correct, n_bins=10)
    assert report.ece == pytest.approx(0.10, abs=1e-12)
    assert report.bin_counts[5] == 2 and report.bin_counts[8] == 2


def test_ece_matches_reference():
    rng = np.random.default_rng(55)
    for _ in range(30):
        n = int(rng.integers(5, 200))
        conf = rng.uniform(1e-6, 1.0, size=n)
        correct = (rng.uniform(size=n) < conf).astype(float)
        got = ece_from_top_predictions(conf, correct, n_bins=15)
        assert got.ece == pytest.approx(ece_ref(list(conf), list(correct), 15), abs=1e-12)
        assert sum(got.bin_counts) == n


def test_ece_input_validation():
    with pytest.raises(ValueError):
        ece_from_top_predictions(np.array([0.0, 0.5]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        ece_from_top_predictions(np.array([1.1]), np.array([1.0]))
    with pytest.raises(ValueError):
        ece_from_top_predictions(np.array([]), np.array([]))
    with pytest.raises(ValueError):
        ece_from_top_predictions(np.array([0.5]), np.array([1.0]), n_bins=0)
