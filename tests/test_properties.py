"""Property tests: the softmax kernel, the PITS objective, every prior, and
fusion hold their invariants over generated inputs, extreme decay constants
and distances included. Runs are derandomized so the suite gives the same verdict on
every machine."""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from idfusion.calibration import pits_objective, softmax, tempered_softmax
from idfusion.classifier import PitsModel
from idfusion.data import Location
from idfusion.fusion import LOG_SPACE_THRESHOLD, fuse, sequential_infer
from idfusion.priors import (
    UNIFORM,
    PriorConfig,
    PriorState,
    home_location_prior,
    migrating_location_prior,
    time_decay_prior,
    uniform_prior,
)

from conftest import make_obs
from oracles import numeric_pits_grad

settings.register_profile("properties", deadline=None, derandomize=True, database=None)
settings.load_profile("properties")

finite = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False)
huge = st.floats(min_value=0.0, max_value=1e300, allow_nan=False, allow_infinity=False)
coordinate = st.floats(min_value=-1e150, max_value=1e150, allow_nan=False, allow_infinity=False)


def _assert_distribution(p):
    assert np.all(np.isfinite(p)) and np.all(p >= 0.0)
    assert abs(p.sum() - 1.0) <= 1e-12


@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=40),
                  elements=finite))
def test_kernel_rows_are_distributions_with_matching_logs(scaled):
    p, log_p = softmax(scaled, with_log=True)
    assert np.all(p >= 0.0)
    assert np.all(np.abs(p.sum(axis=1) - 1.0) <= 1e-12)
    assert np.allclose(np.exp(log_p), p, rtol=1e-12, atol=1e-15)
    assert np.array_equal(softmax(scaled), p)


@given(
    st.lists(st.integers(-512, 512), min_size=1, max_size=40, unique=True),
    st.floats(min_value=1e-2, max_value=1e2),
)
def test_temperature_never_moves_the_argmax(ticks, temperature):
    # Logits on a 1/8 lattice stay distinct after division, so the argmax is unique.
    z = np.array(ticks, dtype=np.float64) / 8.0
    assert int(np.argmax(tempered_softmax(z, temperature))) == int(np.argmax(z))


@st.composite
def _batches(draw):
    m, k = draw(st.integers(1, 6)), draw(st.integers(2, 12))
    logits = draw(hnp.arrays(np.float64, (m, k), elements=st.floats(-8.0, 8.0)))
    labels = draw(hnp.arrays(np.int64, m, elements=st.integers(0, k - 1)))
    temperatures = draw(hnp.arrays(np.float64, m, elements=st.floats(1.0, 5.0)))
    targets = draw(hnp.arrays(np.float64, m, elements=st.floats(1.0, 3.0)))
    return logits, labels, temperatures, targets


@given(_batches())
def test_objective_rows_match_finite_differences(batch):
    logits, labels, temperatures, targets = batch
    _, grad_z, grad_t = pits_objective(logits, labels, temperatures, targets, lam=0.1)
    for i in range(logits.shape[0]):
        num_z, num_t = numeric_pits_grad(list(logits[i]), float(temperatures[i]),
                                         int(labels[i]), float(targets[i]), 0.1)
        analytic = np.append(grad_z[i], grad_t[i])
        numeric = np.append(num_z, num_t)
        # Rounding leaves central differences at h = 1e-5 about 1e-10 off, too
        # coarse to check entries far below 1e-5 to a relative 1e-4.
        keep = np.abs(analytic) >= 1e-5
        assert np.all(np.abs(analytic[keep] - numeric[keep]) < 1e-4 * np.abs(analytic[keep]))


@given(_batches())
def test_cross_entropy_is_the_unit_temperature_objective(batch):
    logits, labels, _, _ = batch
    ones = np.ones(logits.shape[0])
    loss, grad_z, grad_t = pits_objective(logits, labels)
    unit_loss, unit_grad_z, _ = pits_objective(logits, labels, ones, ones, lam=0.1)
    assert grad_t is None
    assert np.array_equal(loss, unit_loss) and np.array_equal(grad_z, unit_grad_z)


@st.composite
def _states(draw):
    k = draw(st.integers(1, 30))
    homes = draw(hnp.arrays(np.float64, (k, 2), elements=coordinate))
    anchors = draw(hnp.arrays(np.float64, (k, 2), elements=coordinate))
    last_seen = draw(hnp.arrays(np.float64, k, elements=coordinate))
    config = PriorConfig(alpha=draw(huge), beta=draw(huge),
                         distance_unit=draw(st.sampled_from(("cells", "km"))))
    return PriorState(labels=tuple(range(k)), home_xy=homes, last_loc_xy=anchors,
                      last_seen=last_seen, config=config)


@given(_states(), coordinate, coordinate, coordinate)
def test_every_prior_is_a_distribution(state, x, y, t):
    loc = Location(x, y)
    # A decay constant near 1e300 times a large distance must not overflow:
    # a legal config raises no numpy warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        priors = (uniform_prior(state), home_location_prior(state, loc),
                  migrating_location_prior(state, loc), time_decay_prior(state, t))
    for p in priors:
        _assert_distribution(p)


@given(st.integers(1, 2 * LOG_SPACE_THRESHOLD).flatmap(
    lambda k: st.tuples(hnp.arrays(np.float64, k, elements=finite),
                        hnp.arrays(np.float64, k, elements=finite))))
def test_fuse_is_a_distribution(logs):
    # softmax over a wide range leaves exact zeros, so products can vanish.
    likelihood, prior = softmax(logs[0]), softmax(logs[1])
    _assert_distribution(fuse(likelihood, prior))


@given(st.integers(1, 2 * LOG_SPACE_THRESHOLD).flatmap(
    lambda k: hnp.arrays(np.float64, k, elements=finite)))
def test_uniform_prior_keeps_the_likelihood_argmax(logits):
    likelihood = softmax(logits)
    k = likelihood.shape[0]
    posterior = fuse(likelihood, np.full(k, 1.0 / k))
    assert np.array_equal(posterior, likelihood / likelihood.sum())
    assert int(np.argmax(posterior)) == int(np.argmax(likelihood))


@given(st.integers(2, 8).flatmap(lambda k: st.tuples(
    hnp.arrays(np.float64, (k, 3), elements=st.floats(-5.0, 5.0)),
    hnp.arrays(np.float64, (6, 3), elements=st.floats(-5.0, 5.0)),
)))
def test_uniform_stream_predicts_the_likelihood_argmax(arrays):
    W, X = arrays
    k = W.shape[0]
    model = PitsModel(W=W, b=np.zeros(k), w_T=np.ones(3), b_T=0.0, labels=tuple(range(k)),
                      input_kind="foreground", temperature_head_active=True)
    state = PriorState(labels=model.labels, home_xy=np.zeros((k, 2)),
                       last_loc_xy=np.zeros((k, 2)), last_seen=np.zeros(k),
                       config=PriorConfig(kind=UNIFORM))
    obs = [make_obs(f"o{i}", 0, 1.0 + i, Location(0.0, 0.0), fg=x) for i, x in enumerate(X)]
    for pred in sequential_infer(model, state, obs):
        assert pred.predicted == model.labels[int(np.argmax(pred.likelihood))]
        assert np.array_equal(pred.posterior, pred.likelihood / pred.likelihood.sum())
