"""Property tests: the softmax kernel, the PITS objective, every prior, and
fusion hold their invariants over generated inputs, extreme decay constants
and distances included; sequential inference gives the same bits however a
stream reaches it; and every file kind round-trips byte for byte. Runs are
derandomized so the suite gives the same verdict on every machine."""

import json
import logging
import tempfile
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from idfusion.calibration import pits_objective, softmax, tempered_softmax
from idfusion.classifier import (
    INPUT_KINDS,
    LOSS_KINDS,
    PitsModel,
    TrainConfig,
    load_model,
    save_model,
    train,
    train_background_model,
)
from idfusion.data import (
    TEST,
    TRAIN,
    Dataset,
    GridSpec,
    Location,
    build_catalog,
    from_fields,
    json_rows,
    load_dataset,
    location_xy,
    read_json,
    read_jsonl,
    save_dataset,
    write_json,
)
from idfusion.evaluation import ExperimentReport, load_report, save_report
from idfusion import fusion
from idfusion.fusion import (
    BLOCK_ROWS,
    LOG_SPACE_THRESHOLD,
    Prediction,
    fuse,
    prediction_lines,
    read_predictions,
    sequential_infer,
    write_predictions,
)
from idfusion.priors import (
    HOME_LOCATION,
    LOCATION_SOURCES,
    MIGRATING_LOCATION,
    PRIOR_KINDS,
    TIME_DECAY,
    UNIFORM,
    PriorConfig,
    prior_rows,
)
from idfusion.errors import SimulationError, SplitError
from idfusion.simulate import SimConfig, generate

from conftest import draft_spy, make_obs, make_state
from oracles import (cell_center_ref, cell_index_ref, descend_ref, json_text_ref, jsonl_ref,
                     numeric_pits_grad, prediction_records_ref, reference_generate, top_entries)

settings.register_profile("properties", deadline=None, derandomize=True, database=None)
settings.load_profile("properties")

finite = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False)
huge = st.floats(min_value=0.0, max_value=1e300, allow_nan=False, allow_infinity=False)
coordinate = st.floats(min_value=-1e150, max_value=1e150, allow_nan=False, allow_infinity=False)


def _arrays(dtype, shape, elements):
    """Arrays with every entry drawn from ``elements``. hnp.arrays' default
    fill repeats one value over most entries, so rows would rarely vary."""
    return hnp.arrays(dtype, shape, elements=elements, fill=st.nothing())


def _assert_distribution(p):
    assert np.all(np.isfinite(p)) and np.all(p >= 0.0)
    assert abs(p.sum() - 1.0) <= 1e-12


@given(_arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=40),
               elements=finite))
def test_kernel_rows_are_distributions_with_matching_logs(scaled):
    p = softmax(scaled)
    assert np.all(p >= 0.0)
    assert np.all(np.abs(p.sum(axis=1) - 1.0) <= 1e-12)
    m, k = scaled.shape
    picked, total = np.empty(m), np.empty((m, 1))
    for j in range(k):  # each column in turn is every row's pick
        positions = np.arange(j, m * k, k)
        assert np.array_equal(softmax(scaled, pick=(positions, picked, total)), p)
        log_p = picked - np.log(total[:, 0])
        assert np.allclose(np.exp(log_p), p[:, j], rtol=1e-12, atol=1e-15)


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
    logits = draw(_arrays(np.float64, (m, k), elements=st.floats(-8.0, 8.0)))
    labels = draw(_arrays(np.int64, m, elements=st.integers(0, k - 1)))
    temperatures = draw(_arrays(np.float64, m, elements=st.floats(1.0, 5.0)))
    targets = draw(_arrays(np.float64, m, elements=st.floats(1.0, 3.0)))
    return logits, labels, temperatures, targets


# Central differences at h = 1e-5 miss this row's 1.8e-7 entry by 2.6e-4
# relative; complex-step derivatives are exact to rounding.
@example((np.array([[7.1, -2.4, 7.8, -7.3, 1.6]]), np.array([1]), np.array([1.0]),
          np.array([2.7])))
@given(_batches())
def test_objective_rows_match_finite_differences(batch):
    logits, labels, temperatures, targets = batch
    _, grad_z, grad_t = pits_objective(logits, labels, temperatures, targets, lam=0.1)
    for i in range(logits.shape[0]):
        num_z, num_t = numeric_pits_grad(list(logits[i]), float(temperatures[i]),
                                         int(labels[i]), float(targets[i]), 0.1)
        analytic = np.append(grad_z[i], grad_t[i])
        numeric = np.append(num_z, num_t)
        # test_01's floor: complex-step derivatives are exact to rounding.
        keep = np.abs(analytic) >= 1e-8
        assert np.all(np.abs(analytic[keep] - numeric[keep]) < 1e-4 * np.abs(analytic[keep]))


@given(_batches())
def test_cross_entropy_is_the_unit_temperature_objective(batch):
    logits, labels, _, _ = batch
    ones = np.ones(logits.shape[0])
    loss, grad_z, grad_t = pits_objective(logits, labels)
    unit_loss, unit_grad_z, _ = pits_objective(logits, labels, ones, ones, lam=0.1)
    assert grad_t is None
    assert np.array_equal(loss, unit_loss) and np.array_equal(grad_z, unit_grad_z)


@given(_batches(), st.booleans())
def test_objective_leaves_its_inputs_alone(batch, with_temperature):
    inputs = batch if with_temperature else batch[:2]
    before = [a.tobytes() for a in inputs]
    outputs = [out for out in pits_objective(*inputs, lam=0.1) if out is not None]
    assert [a.tobytes() for a in inputs] == before
    assert len(outputs) == (3 if with_temperature else 2)
    assert not any(np.shares_memory(out, a) for out in outputs for a in inputs)


@st.composite
def _training_runs(draw):
    """A small dataset on a 1 x K grid with identities 0 .. K-1 (fewer when n < K)
    and a config: batches of 1, of a size that does not divide n, of n and of
    more than n."""
    n, k, d = draw(st.integers(1, 40)), draw(st.integers(2, 6)), draw(st.integers(1, 4))
    k_ids = min(k, n)
    identities = list(range(k_ids)) + draw(st.lists(st.integers(0, k_ids - 1),
                                                    min_size=n - k_ids, max_size=n - k_ids))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fg, bg = rng.normal(size=(n, d)), rng.normal(size=(n, d))
    cells = rng.integers(0, k, size=n)
    grid = GridSpec(origin=Location(0.0, 0.0), cell_size_km=1.0, n_cells_x=k, n_cells_y=1)
    dataset = Dataset.from_observations(
        [make_obs(f"o{i}", identity, float(i + 1), Location(cells[i] + 0.5, 0.5), fg=fg[i], bg=bg[i],
                  split=TRAIN) for i, identity in enumerate(identities)], grid)
    batch = draw(st.sampled_from([1, n, n + 3, *(b for b in range(2, n) if n % b)]))
    config = TrainConfig(loss_kind=draw(st.sampled_from(LOSS_KINDS)), epochs=draw(st.integers(1, 3)),
                         learning_rate=draw(st.floats(1e-3, 1.0)), batch_size=batch,
                         lam=draw(st.floats(0.0, 1.0)), seed=draw(st.integers(0, 2**16)))
    return dataset, config


def _bits(*values):
    return [np.asarray(v, dtype=np.float64).tobytes() for v in values]


@given(_training_runs())
def test_training_is_the_plain_step_bit_for_bit(run):
    dataset, config = run
    catalog = build_catalog(dataset)
    X = np.stack([o.fg_features for o in dataset.train])
    y = np.array([catalog.identities.index(o.identity) for o in dataset.train])
    targets = np.array([catalog.target_temperatures[o.identity] for o in dataset.train])
    rng = np.random.default_rng(config.seed)
    bound = 1.0 / np.sqrt(X.shape[1])
    W = rng.uniform(-bound, bound, size=(len(catalog.identities), X.shape[1]))
    w_t = rng.uniform(-bound, bound, size=X.shape[1])
    want = descend_ref(X, y, targets if config.loss_kind == "pits" else None, W,
                       np.zeros(W.shape[0]), w_t, 0.0, config.epochs, config.learning_rate,
                       config.batch_size, config.lam, rng)
    model = train(dataset, catalog, config)
    assert _bits(model.W, model.b, model.w_T, model.b_T, model.loss_history) == _bits(*want)

    grid, rng = dataset.grid, np.random.default_rng(config.seed)
    X = np.stack([o.bg_features for o in dataset.train])
    W = rng.uniform(-bound, bound, size=(grid.n_cells, X.shape[1]))
    y = grid.cell_indices(location_xy(dataset.train))
    W, b, _, _, history = descend_ref(X, y, None, W, np.zeros(grid.n_cells), None, 0.0,
                                      config.epochs, config.learning_rate, config.batch_size,
                                      config.lam, rng)
    model = train_background_model(dataset, grid, config)
    assert _bits(model.W, model.b, model.loss_history) == _bits(W, b, history)


@st.composite
def _states(draw):
    k = draw(st.integers(1, 30))
    homes = draw(_arrays(np.float64, (k, 2), elements=coordinate))
    anchors = draw(_arrays(np.float64, (k, 2), elements=coordinate))
    last_seen = draw(_arrays(np.float64, k, elements=coordinate))
    config = PriorConfig(alpha=draw(huge), beta=draw(huge))
    # One state per prior kind, over the same labels and decay constants.
    return [make_state(tuple(range(k)), replace(config, kind=kind),
                       anchors if kind == MIGRATING_LOCATION else homes, last_seen)
            for kind in PRIOR_KINDS]


@given(_states(), coordinate, coordinate, coordinate)
def test_every_prior_is_a_distribution(states, x, y, t):
    loc = Location(x, y)
    # A decay constant near 1e300 times a large distance must not overflow:
    # a legal config raises no numpy warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        priors = [prior_rows(state, np.array([loc.x, loc.y]), t) for state in states]
    for p in priors:
        _assert_distribution(p)


@given(st.integers(1, 2 * LOG_SPACE_THRESHOLD).flatmap(
    lambda k: st.tuples(_arrays(np.float64, k, elements=finite),
                        _arrays(np.float64, k, elements=finite))))
def test_fuse_is_a_distribution(logs):
    # softmax over a wide range leaves exact zeros, so products can vanish.
    likelihood, prior = softmax(logs[0]), softmax(logs[1])
    _assert_distribution(fuse(likelihood, prior))


@given(st.integers(1, 2 * LOG_SPACE_THRESHOLD).flatmap(
    lambda k: _arrays(np.float64, k, elements=finite)))
def test_uniform_prior_keeps_the_likelihood_argmax(logits):
    likelihood = softmax(logits)
    k = likelihood.shape[0]
    posterior = fuse(likelihood, np.full(k, 1.0 / k))
    assert np.array_equal(posterior, likelihood / likelihood.sum())
    assert int(np.argmax(posterior)) == int(np.argmax(likelihood))


@given(st.integers(2, 8).flatmap(lambda k: st.tuples(
    _arrays(np.float64, (k, 3), elements=st.floats(-5.0, 5.0)),
    _arrays(np.float64, (6, 3), elements=st.floats(-5.0, 5.0)),
)))
def test_uniform_stream_predicts_the_likelihood_argmax(arrays):
    W, X = arrays
    k = W.shape[0]
    model = PitsModel(W=W, b=np.zeros(k), w_T=np.ones(3), b_T=0.0, labels=tuple(range(k)),
                      input_kind="foreground", temperature_head_active=True)
    state = make_state(model.labels, PriorConfig(kind=UNIFORM))
    obs = [make_obs(f"o{i}", 0, 1.0 + i, Location(0.0, 0.0), fg=x) for i, x in enumerate(X)]
    for pred in sequential_infer(model, state, obs):
        assert pred.predicted == model.labels[int(np.argmax(pred.likelihood))]
        assert np.array_equal(pred.posterior, pred.likelihood / pred.likelihood.sum())


# ---------------------------------------------------------------------------
# Grid geometry: the array forms give the scalar rule's cells and centres.
# ---------------------------------------------------------------------------

_grids = st.builds(GridSpec, origin=st.builds(Location, finite, finite),
                   cell_size_km=st.floats(min_value=1e-2, max_value=1e3),
                   n_cells_x=st.integers(1, 8), n_cells_y=st.integers(1, 8))


@st.composite
def _grid_points(draw):
    """A grid and points on its cell edges (the far boundary included), beyond
    either end, anywhere within 1e4 and at +-1e300, drawn per axis."""
    grid = draw(_grids)

    def axis(origin, n):
        return st.one_of(st.integers(-3, n + 3).map(lambda i: origin + i * grid.cell_size_km),
                         finite, st.sampled_from([1e300, -1e300]))

    points = st.tuples(axis(grid.origin.x, grid.n_cells_x), axis(grid.origin.y, grid.n_cells_y))
    return grid, draw(st.lists(points, min_size=1, max_size=20))


@given(_grid_points())
@example((GridSpec(Location(0.0, 0.0), 5.0, 2, 3),
          [(5.0, 10.0), (10.0, 15.0), (-0.0, 0.0), (-5.0, 20.0), (1e300, -1e300), (-1e300, 1e300)]))
def test_cell_indices_follow_the_scalar_rule(grid_and_points):
    grid, points = grid_and_points
    cells = grid.cell_indices(np.array(points)).tolist()
    assert cells == [cell_index_ref(grid, x, y) for x, y in points]
    assert grid.cell_indices([grid.far_corner]).tolist() == [grid.n_cells - 1]
    refs = [cell_center_ref(grid, i) for i in range(grid.n_cells)]
    assert grid.cell_centers(range(grid.n_cells)).tolist() == [[c.x, c.y] for c in refs]


# ---------------------------------------------------------------------------
# The inference loop's block and row steps: a sighting's result has the
# same bits however the stream reaches it.
# ---------------------------------------------------------------------------

class _Fallbacks(logging.Handler):
    """Counts fusion's fall-back-to-likelihood warnings."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += "falling back" in record.getMessage()


@st.composite
def _streams(draw, kind, k):
    """A model, a starting state and a stream of up to three blocks of the
    inference loop. Sharp draws (large weights and decay constants) make
    likelihood-times-prior products vanish, so fallbacks happen; a collapsed
    start makes priors constant. The arrays come from a drawn seed, so every
    entry varies, as in real data. The start also holds the rows of each
    block whose draft is forced wrong; one lies before the first block's last
    row, so every whole stream of two or more sightings drafts again."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sharp = draw(st.booleans())
    d, n = 3, draw(st.integers(1, 2 * BLOCK_ROWS + 5))
    model = PitsModel(
        W=rng.uniform(-1.0, 1.0, (k, d)) * (3000.0 if sharp else 3.0),
        b=rng.uniform(-1.0, 1.0, k), w_T=rng.uniform(-1.0, 1.0, d), b_T=rng.uniform(-1.0, 1.0),
        labels=tuple(range(k)), input_kind="foreground", temperature_head_active=True,
    )
    rate = 3000.0 if sharp else 2.5
    homes, last_seen = rng.uniform(0.0, 20.0, (k, 2)), rng.uniform(0.0, 50.0, k)
    if draw(st.booleans()):
        # Every label at one point, last seen at one time: each prior is
        # constant until a win moves an entry, so fuse short-circuits.
        homes[:], last_seen[:] = homes[0], last_seen[0]
    forced_rows = draw(st.sets(st.integers(0, max(0, min(n, BLOCK_ROWS) - 2)), min_size=1,
                               max_size=3))
    start = (homes, last_seen, PriorConfig(kind=kind, alpha=rate, beta=rate), forced_rows)
    # Whole days from day 51 on, so simultaneous sightings occur too.
    days = rng.integers(51, 81, n)
    obs = [make_obs(f"o{i:03d}", 0, float(t), Location(x, y), fg=f)
           for i, (f, (x, y), t) in enumerate(zip(rng.uniform(-1.0, 1.0, (n, d)),
                                                  rng.uniform(0.0, 20.0, (n, 2)), days))]
    return model, start, obs


def _fresh(model, start):
    homes, last_seen, config, _ = start
    return make_state(model.labels, config, homes, last_seen)


def _infer_counting(model, start, calls, *where):
    """Runs ``calls`` (lists of observations) in turn through one fresh state,
    with ``where`` the grid and the background model, if any, and the drafts
    forced wrong at the start's rows; returns the predictions, the final state
    and the fallback warnings."""
    state, counter = _fresh(model, start), _Fallbacks()
    log = logging.getLogger("idfusion.fusion")
    log.addHandler(counter)
    try:
        with draft_spy(start[3]) as seen:
            preds = [p for call in calls for p in sequential_infer(model, state, call, *where)]
    finally:
        log.removeHandler(counter)
    if start[2].kind in (MIGRATING_LOCATION, TIME_DECAY) and len(calls) == 1 and len(calls[0]) > 1:
        assert seen["forced"] > 0, seen
    return preds, state, counter.count


def _assert_same_bits(a, b):
    preds_a, state_a, fallbacks_a = a
    preds_b, state_b, fallbacks_b = b
    assert [p.obs_id for p in preds_a] == [p.obs_id for p in preds_b]
    for x, y in zip(preds_a, preds_b):
        assert x.predicted == y.predicted and x.temperature_used == y.temperature_used
        for field in ("posterior", "likelihood", "prior"):
            assert np.array_equal(getattr(x, field), getattr(y, field)), field
    assert np.array_equal(state_a.anchors, state_b.anchors)
    assert fallbacks_a == fallbacks_b


def _lost_mass(pred):
    # The underflow fuse falls back on: no entry where both factors are
    # non-zero (log space), or a product that sums to zero (direct).
    l, p = pred.likelihood, pred.prior
    if np.all(p == p[0]):
        return False
    if l.shape[0] > LOG_SPACE_THRESHOLD:
        return bool(np.all((l == 0) | (p == 0)))
    return bool((l * p).sum() <= 0)


def _fallback_rows(predictions):
    """How many rows took each of fuse's two ways back to the likelihood: the
    constant-prior short-circuit and the lost-mass fallback."""
    return Counter(constant_prior=sum(bool(np.all(p.prior == p.prior[0])) for p in predictions),
                   lost_mass=sum(map(_lost_mass, predictions)))


def _assert_both_fallbacks_reached(reached, kind):
    # A uniform prior is constant on every row, so it never loses its mass.
    assert reached["constant_prior"] > 0, reached
    assert kind == UNIFORM or reached["lost_mass"] > 0, reached


# Every prior kind, on each side of LOG_SPACE_THRESHOLD.
layer_cases = pytest.mark.parametrize("kind, k", [(kind, k) for kind in PRIOR_KINDS for k in (5, 80)])


# The three bit-identity properties run their hypothesis examples inside the
# test, so the fallback rows of all of them are counted and checked at the end.
@layer_cases
def test_caller_order_never_matters(kind, k):
    reached = Counter()

    @settings(max_examples=20)
    @given(data=st.data())
    def check(data):
        model, start, obs = data.draw(_streams(kind, k))
        rng = data.draw(st.randoms(use_true_random=False))
        shuffled = list(obs)
        rng.shuffle(shuffled)
        whole = _infer_counting(model, start, [obs])
        _assert_same_bits(whole, _infer_counting(model, start, [shuffled]))
        # A tuple's likelihood blocks are kept by the model that scored it, for
        # its next call; interleaved with another tuple's, every call keeps the
        # bits of a fresh model.
        other = tuple(replace(o, fg_features=o.fg_features[::-1]) for o in obs)
        for call in (tuple(shuffled), tuple(shuffled), other, tuple(shuffled)):
            ran = _infer_counting(model, start, [call])
            _assert_same_bits(ran, _infer_counting(replace(model), start, [call]))
        _assert_same_bits(whole, ran)
        reached.update(_fallback_rows(whole[0]))

    check()
    _assert_both_fallbacks_reached(reached, kind)


@layer_cases
def test_whole_stream_per_sighting_and_chunks_agree(kind, k):
    reached = Counter()

    @settings(max_examples=20)
    @given(data=st.data())
    def check(data):
        model, start, obs = data.draw(_streams(kind, k))
        cuts = data.draw(st.lists(st.integers(1, 2 * BLOCK_ROWS + 4), unique=True))
        order = sorted(obs, key=lambda o: (o.timestamp, o.obs_id))
        whole = _infer_counting(model, start, [obs])
        bounds = [0, *sorted(c for c in cuts if c < len(order)), len(order)]
        chunks = [order[a:b] for a, b in zip(bounds, bounds[1:])]
        _assert_same_bits(whole, _infer_counting(model, start, [[o] for o in order]))
        _assert_same_bits(whole, _infer_counting(model, start, chunks))
        # One warning per sighting whose fused product lost all its mass.
        assert whole[2] == sum(_lost_mass(p) for p in whole[0])
        reached.update(_fallback_rows(whole[0]))

    check()
    _assert_both_fallbacks_reached(reached, kind)


@layer_cases
def test_relabeling_in_order_moves_no_bit(kind, k):
    # Label values only name the rows: an increasing remap of the model's and
    # the state's labels keeps every bit, and each winner maps through it.
    reached = Counter()

    @settings(max_examples=20)
    @given(data=st.data())
    def check(data):
        model, start, obs = data.draw(_streams(kind, k))
        remap = {label: 3 * label + 7 for label in model.labels}
        relabeled = replace(model, labels=tuple(remap[label] for label in model.labels))
        preds, state, fallbacks = _infer_counting(model, start, [obs])
        _assert_same_bits(
            ([replace(p, predicted=remap[p.predicted]) for p in preds], state, fallbacks),
            _infer_counting(relabeled, start, [obs]))
        reached.update(_fallback_rows(preds))

    check()
    _assert_both_fallbacks_reached(reached, kind)


@layer_cases
@settings(max_examples=20)
@given(data=st.data())
def test_permuting_the_label_order_keeps_winners_and_posteriors(kind, k, data):
    # The order of the labels is arbitrary: permuting the model's rows and
    # the state's entries together gives the same winners, and each label's
    # posterior to 1e-12. Sums then run in another order and may move bits,
    # so a near-tie may pick another label and move the state: compare up to
    # the first sighting whose top two fused entries are within 1e-9.
    model, (homes, last_seen, config, forced_rows), obs = data.draw(_streams(kind, k))
    perm = np.array(data.draw(st.permutations(range(k))))
    permuted = replace(model, W=model.W[perm], b=model.b[perm],
                       labels=tuple(model.labels[i] for i in perm))
    preds, _, _ = _infer_counting(model, (homes, last_seen, config, forced_rows), [obs])
    again, _, _ = _infer_counting(permuted, (homes[perm], last_seen[perm], config, forced_rows),
                                  [obs])
    for p, q in zip(preds, again):
        top = np.sort(p.posterior)[-2:]
        if top[1] - top[0] <= 1e-9:
            break
        assert p.predicted == q.predicted
        assert np.max(np.abs(q.posterior - p.posterior[perm])) <= 1e-12


def _moved(start, obs, move):
    """The start and the stream with ``move`` applied to every home, anchor and capture."""
    homes, last_seen, config, forced_rows = start
    moved = [replace(o, location=Location(*move(np.array([o.location.x, o.location.y])).tolist()))
             for o in obs]
    return (move(homes), last_seen, config, forced_rows), moved


def _swap_axes(xy):
    return xy[..., ::-1].copy()


@pytest.mark.parametrize("kind, k", [(kind, k) for kind in (HOME_LOCATION, MIGRATING_LOCATION)
                                     for k in (5, 80)])
@settings(max_examples=25)
@given(data=st.data())
def test_swapping_the_axes_or_shifting_by_a_power_of_two_moves_no_bit(kind, k, data):
    # The spatial priors read only distances. Swapping x and y keeps each one,
    # since hypot is symmetric; so does adding a power of two to every
    # coordinate when all are multiples of 2**-6, since each sum and each
    # difference is then exact. The anchors a run leaves move by the same map.
    model, start, obs = data.draw(_streams(kind, k))
    start, obs = _moved(start, obs, lambda xy: np.round(xy * 64.0) / 64.0)
    shift = data.draw(st.sampled_from([-1.0, 1.0])) * 2.0 ** data.draw(st.integers(-6, 30))
    whole = _infer_counting(model, start, [obs])
    for move, back in ((_swap_axes, _swap_axes), (lambda xy: xy + shift, lambda xy: xy - shift)):
        moved_start, moved_obs = _moved(start, obs, move)
        preds, state, fallbacks = _infer_counting(model, moved_start, [moved_obs])
        state.anchors = back(state.anchors)
        _assert_same_bits(whole, (preds, state, fallbacks))


@pytest.mark.parametrize("kind, k", [(kind, k) for kind in (HOME_LOCATION, MIGRATING_LOCATION)
                                     for k in (5, 80)])
@settings(max_examples=25)
@given(data=st.data())
def test_swapping_the_axes_with_background_model_locations_moves_no_bit(kind, k, data):
    # A capture is the centre of the cell the background model scores highest.
    # On a square grid whose origin has x equal to y, swapping the axes maps
    # cell (row, col) to cell (col, row) and its centre to the swapped centre.
    # So a model whose rows are permuted by that transpose resolves each
    # sighting to the swapped capture, and the run is the swapped run. Its
    # argmax takes the first of tied logits, which no permutation keeps, so
    # ties are assumed away.
    model, (homes, last_seen, config, forced_rows), obs = data.draw(_streams(kind, k))
    n, d_bg = data.draw(st.integers(1, 4)), 3
    corner = data.draw(st.floats(-20.0, 20.0))
    grid = GridSpec(Location(corner, corner), data.draw(st.sampled_from([0.5, 2.5, 5.0])), n, n)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    cells = PitsModel(W=rng.uniform(-1.0, 1.0, (n * n, d_bg)), b=rng.uniform(-1.0, 1.0, n * n),
                      w_T=np.zeros(d_bg), b_T=0.0, labels=tuple(range(n * n)),
                      input_kind="background", temperature_head_active=False)
    obs = [replace(o, bg_features=f) for o, f in zip(obs, rng.uniform(-1.0, 1.0, (len(obs), d_bg)))]
    logits, _ = cells.forward_rows(np.array([o.bg_features for o in obs]))
    top_two = np.sort(logits, axis=1)[:, -2:]
    assume(n == 1 or (top_two[:, 1] > top_two[:, 0]).all())
    transpose = np.arange(n * n).reshape(n, n).T.ravel()
    transposed = replace(cells, W=cells.W[transpose], b=cells.b[transpose])
    # Distances are in the grid's cells, as sequential_infer requires.
    config = replace(config, location_source="background_model", cell_size_km=grid.cell_size_km)
    start = (homes, last_seen, config, forced_rows)
    whole = _infer_counting(model, start, [obs], grid, cells)
    moved_start, moved_obs = _moved(start, obs, _swap_axes)
    preds, state, fallbacks = _infer_counting(model, moved_start, [moved_obs], grid, transposed)
    assert [p.resolved_location for p in preds] == \
        [Location(p.resolved_location.y, p.resolved_location.x) for p in whole[0]]
    state.anchors = _swap_axes(state.anchors)
    _assert_same_bits(whole, (preds, state, fallbacks))


# ---------------------------------------------------------------------------
# Byte-stable JSON round trips: write, read, write again, same bytes.
# ---------------------------------------------------------------------------

# Any finite float, signed zeros and subnormals included.
any_float = st.floats(allow_nan=False, allow_infinity=False)
non_negative = st.floats(min_value=0.0, max_value=1e300)
positive = st.floats(min_value=0.0, max_value=1e300, exclude_min=True)
seeds = st.integers(0, 2**63)


def _vectors(n):
    return _arrays(np.float64, n, elements=any_float)


def _rewrite_is_stable(write, read_and_rewrite):
    """write(dir) makes the first copy; read_and_rewrite(dir, dir2) reads it
    and writes the second. Every file must come out byte-identical."""
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first"), Path(tmp, "second")
        first.mkdir()
        second.mkdir()
        write(first)
        read_and_rewrite(first, second)
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name


grids = st.builds(
    GridSpec,
    origin=st.builds(Location, st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
    cell_size_km=st.floats(1e-3, 1e3),
    n_cells_x=st.integers(1, 50),
    n_cells_y=st.integers(1, 50),
)
train_configs = st.builds(
    TrainConfig,
    loss_kind=st.sampled_from(LOSS_KINDS),
    input_kind=st.sampled_from(INPUT_KINDS),
    lam=non_negative,
    epochs=st.integers(1, 10**6),
    learning_rate=positive,
    batch_size=st.integers(1, 10**6),
    seed=seeds,
)


prior_configs = st.builds(
    PriorConfig,
    kind=st.sampled_from(PRIOR_KINDS),
    location_source=st.sampled_from(LOCATION_SOURCES),
    alpha=non_negative,
    beta=non_negative,
    time_unit_days=positive,
    cell_size_km=positive,
)


unit = st.floats(0.0, 1.0)
open_unit = st.floats(0.0, 1.0, exclude_min=True)
sim_configs = st.builds(
    SimConfig,
    n_identities=st.integers(2, 10**4),
    feature_dim=st.integers(1, 512),
    bg_feature_dim=st.integers(1, 512),
    grid=grids,
    longtail_exponent=non_negative,
    home_range_cells=non_negative,
    migration_prob=unit,
    fg_noise=non_negative,
    bg_cell_signal=unit,
    # At least one sighting per identity: round(obs_rate * n_identities) >= n_identities.
    obs_rate=st.floats(1.0, 1e300),
    duration_days=positive,
    cutoff_quantile=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    seasonal_bursts=st.integers(0, 100),
    season_duty=open_unit,
    season_attendance=open_unit,
    seed=seeds,
)


@given(st.one_of(
    train_configs.map(lambda c: (c, lambda d: from_fields(TrainConfig, d, "train"))),
    prior_configs.map(lambda c: (c, lambda d: from_fields(PriorConfig, d, "prior"))),
    sim_configs.map(lambda c: (c, SimConfig.from_dict)),
    grids.map(lambda c: (c, GridSpec.from_dict)),
))
def test_config_dicts_round_trip(config_and_reader):
    config, from_dict = config_and_reader
    assert from_dict(config.to_dict()) == config

    def rewrite(first, second):
        write_json(second / "config.json", from_dict(read_json(first / "config.json")).to_dict())

    _rewrite_is_stable(lambda d: write_json(d / "config.json", config.to_dict()), rewrite)


# Every finite double, drawn as a bit pattern (subnormals and -0.0 included) or by
# hypothesis' float strategy, which favours edge values.
_any_finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(0, 2**64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64)))
    .filter(np.isfinite),
)
_json_values = st.recursive(
    st.one_of(_any_finite, st.integers(-2**63, 2**64 - 1), st.text(), st.booleans(), st.none()),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=24,
)
_json_objects = st.dictionaries(st.text(max_size=6), _json_values, max_size=4)


def _assert_same_json(got, expected):
    """Same types all the way down, floats with the same bits, keys in the same order."""
    assert type(got) is type(expected), (got, expected)
    if type(got) is float:
        assert np.float64(got).view(np.uint64) == np.float64(expected).view(np.uint64)
    elif type(got) is dict:
        assert list(got) == list(expected)
        for key in got:
            _assert_same_json(got[key], expected[key])
    elif type(got) is list:
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            _assert_same_json(g, e)
    else:
        assert got == expected


@given(_json_objects, st.lists(_json_objects, max_size=4))
def test_readers_decode_what_the_writers_wrote_as_json_does(obj, records):
    # orjson decodes every file; json takes over only for what orjson refuses.
    # On what the writers write, json's text (the JSONL writers' bytes are checked
    # against jsonl_ref), the two agree bit for bit and key for key.
    with tempfile.TemporaryDirectory() as tmp:
        whole, lines = Path(tmp, "x.json"), Path(tmp, "x.jsonl")
        write_json(whole, obj)
        lines.write_text(jsonl_ref(records), encoding="utf-8")
        _assert_same_json(read_json(whole), json.loads(whole.read_text(encoding="utf-8")))
        expected = [json.loads(line) for line in lines.read_text(encoding="utf-8").splitlines()]
        got = list(read_jsonl(lines))
        assert [n for n, _ in got] == list(range(1, len(records) + 1))
        _assert_same_json([rec for _, rec in got], expected)


def _float_of(bits):
    return float(np.uint64(bits).view(np.float64))


_bits_of = {v: int(np.float64(v).view(np.uint64)) for v in (1e-4, 1e16)}
# The edges of the magnitudes [1e-4, 1e16) where orjson writes repr's digits, the
# smallest subnormal and normal doubles, and both zeros.
_EDGE_FLOATS = (1e-4, _float_of(_bits_of[1e-4] - 1), 1e16, _float_of(_bits_of[1e16] - 1),
                5e-324, 2.2250738585072014e-308, -0.0, 0.0)
# Doubles of that range drawn by bit pattern, of either sign, and zeros: rows of
# these go through orjson.
_plain_floats = st.one_of(
    st.builds(lambda bits, sign: sign * _float_of(bits),
              st.integers(_bits_of[1e-4], _bits_of[1e16] - 1), st.sampled_from([1.0, -1.0])),
    st.sampled_from([0.0, -0.0]),
)
_row_floats = st.one_of(
    _any_finite, _plain_floats, st.sampled_from(_EDGE_FLOATS),
    st.sampled_from(_EDGE_FLOATS).map(lambda v: -v),
    st.integers(-10**17, 10**17).map(float),  # integer-valued, on both sides of 1e16
)


@st.composite
def _json_row_cases(draw):
    n, m = draw(st.one_of(st.tuples(st.just(1), st.integers(1, 40)),
                          st.tuples(st.integers(1, 40), st.just(1)),
                          st.tuples(st.integers(1, 8), st.integers(1, 8))))
    # Each row all orjson's, or drawn from every finite double.
    rows = [draw(st.lists(draw(st.sampled_from([_plain_floats, _row_floats])), min_size=m, max_size=m))
            for _ in range(n)]
    # Ints orjson writes, or, in some cases, also ones outside [-2**63, 2**64) that it refuses.
    ints = st.integers(-2**63, 2**64 - 1)
    ints = draw(st.sampled_from([ints, ints | st.sampled_from([2**64, -2**63 - 1, 10**30])]))
    labels = draw(st.none() | st.lists(st.lists(ints, min_size=m, max_size=m), min_size=n, max_size=n))
    return rows, labels


@example(([list(_EDGE_FLOATS) + [-v for v in _EDGE_FLOATS]], None))
@example(([[v] for v in _EDGE_FLOATS + tuple(-v for v in _EDGE_FLOATS)], None))
@example(([[1.5, 1e-05]], [[2**64, 3]]))
@given(_json_row_cases())
def test_json_rows_are_json_text(case):
    rows, labels = case
    values = np.array(rows, dtype=np.float64)
    if labels is None:
        expected = [json_text_ref(row) for row in rows]
        assert json_rows(values) == expected
    else:
        expected = [json_text_ref([[k, v] for k, v in zip(*pair)]) for pair in zip(labels, rows)]
        assert json_rows(values, np.array(labels, dtype=object)) == expected


@st.composite
def _datasets(draw):
    grid = draw(grids)
    n_ids = draw(st.integers(1, 4))
    d, d_bg = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    width = grid.cell_size_km * grid.n_cells_x
    height = grid.cell_size_km * grid.n_cells_y
    observations = []
    for i in range(draw(st.integers(n_ids, 8))):
        observations.append(make_obs(
            f"o{i}", i % n_ids, draw(positive),
            Location(grid.origin.x + draw(unit) * width, grid.origin.y + draw(unit) * height),
            fg=draw(_vectors(d)), bg=draw(_vectors(d_bg)),
            split=draw(st.sampled_from((TRAIN, TEST))),
        ))
    return Dataset.from_observations(observations, grid)


@given(_datasets())
def test_dataset_directory_rewrites_byte_identically(dataset):
    def rewrite(first, second):
        again = load_dataset(first)
        assert again.grid == dataset.grid
        assert list(again.observations) == list(dataset.observations)
        save_dataset(again, second)

    _rewrite_is_stable(lambda d: save_dataset(dataset, d), rewrite)


@st.composite
def _pits_models(draw):
    k, d = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    return PitsModel(
        W=draw(_arrays(np.float64, (k, d), elements=any_float)), b=draw(_vectors(k)),
        w_T=draw(_vectors(d)), b_T=draw(any_float),
        labels=tuple(draw(st.lists(st.integers(0, 10**6), min_size=k, max_size=k, unique=True))),
        input_kind=draw(st.sampled_from(INPUT_KINDS)),
        temperature_head_active=draw(st.booleans()),
        loss_history=tuple(draw(st.lists(any_float, max_size=5))),
    )


@st.composite
def _background_models(draw):
    # What train_background_model returns: cell labels, an inactive head.
    c, d = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    return PitsModel(W=draw(_arrays(np.float64, (c, d), elements=any_float)), b=draw(_vectors(c)),
                     w_T=np.zeros(d), b_T=0.0, labels=tuple(range(c)), input_kind="background",
                     temperature_head_active=False,
                     loss_history=tuple(draw(st.lists(any_float, max_size=5))))


@given(st.one_of(_pits_models(), _background_models()), train_configs)
def test_checkpoints_rewrite_byte_identically(model, config):
    def rewrite(first, second):
        stored = read_json(first / "model.json")["train_config"]
        again = from_fields(TrainConfig, stored, "train_config")
        loaded = load_model(first / "model.json")
        for name in ("W", "b", "w_T"):
            assert np.array_equal(getattr(loaded, name), getattr(model, name)), name
        for name in ("labels", "input_kind", "temperature_head_active", "loss_history"):
            assert getattr(loaded, name) == getattr(model, name), name
        save_model(loaded, second / "model.json", config=again)

    _rewrite_is_stable(lambda d: save_model(model, d / "model.json", config=config), rewrite)


@st.composite
def _predictions(draw):
    k = draw(st.integers(1, 7))
    labels = tuple(draw(st.lists(st.integers(0, 10**6), min_size=k, max_size=k, unique=True)))
    predictions = [
        Prediction(
            obs_id=f"o{i}", predicted=draw(st.sampled_from(labels)),
            posterior=draw(_vectors(k)), likelihood=draw(_vectors(k)), prior=draw(_vectors(k)),
            resolved_location=draw(st.builds(Location, any_float, any_float)),
            temperature_used=draw(any_float),
            true_identity=draw(st.integers(0, 10**6)),
        )
        for i in range(draw(st.integers(0, 5)))
    ]
    return predictions, labels


# Floats on both sides of repr's switches to exponent form (below 1e-4 and
# from 1e16 on), subnormals, and any other finite float.
_repr_floats = st.one_of(
    st.floats(1e-5, 1e-4), st.floats(-1e-4, -1e-5),
    st.floats(min_value=1e16, allow_infinity=False), st.floats(max_value=-1e16, allow_infinity=False),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308), any_float,
)


@st.composite
def _top5_blocks(draw):
    # Small K with few distinct values puts ties at the 5th/6th rank, K <= 5
    # and K = 6 on each side of the partition; 1-40 predictions span up to
    # two blocks of BLOCK_ROWS.
    k = draw(st.integers(1, 12))
    labels = tuple(draw(st.lists(st.integers(0, 10**6), min_size=k, max_size=k, unique=True)))
    levels = st.sampled_from(draw(st.lists(_repr_floats, min_size=3, max_size=3)))
    rows = st.one_of(
        _arrays(np.float64, k, elements=levels),
        _repr_floats.map(lambda v: np.full(k, v)),
        st.just(np.zeros(k)),
        _arrays(np.float64, k, elements=st.sampled_from([-0.0, 0.0])),
        _arrays(np.float64, k, elements=_repr_floats),
    )
    n = draw(st.integers(1, 40) | st.integers(BLOCK_ROWS - 1, BLOCK_ROWS + 2))
    return draw(st.lists(rows, min_size=2 * n, max_size=2 * n)), labels


# Entry 7 equals entry 495, the 5th largest, so ranks 5 and 6 tie and the
# stable order puts 7 first; reversed, entries 4 and 492 tie the same way.
_TIED_AT_THE_CUT = np.arange(500.0)
_TIED_AT_THE_CUT[7] = _TIED_AT_THE_CUT[495]


@example(([_TIED_AT_THE_CUT, _TIED_AT_THE_CUT[::-1].copy()], tuple(range(500))))
@given(_top5_blocks())
def test_block_top5_is_a_stable_sort(block):
    rows, labels = block
    predictions = [
        Prediction(obs_id=f"o{i}", predicted=labels[0], posterior=posterior, likelihood=likelihood,
                   prior=posterior, resolved_location=Location(0.0, 0.0), temperature_used=1.0,
                   true_identity=labels[0])
        for i, (posterior, likelihood) in enumerate(zip(rows[::2], rows[1::2]))
    ]
    records = [json.loads(line) for line in prediction_lines(predictions, labels, UNIFORM)]
    assert len(records) == len(predictions)
    for pred, record in zip(predictions, records):
        # repr tells -0.0 from 0.0, which == does not.
        assert repr(record["posterior_top5"]) == repr(top_entries(pred.posterior, labels, 5))
        assert repr(record["likelihood_top5"]) == repr(top_entries(pred.likelihood, labels, 5))


# A coordinate or a temperature may be given as an int or a np.float64; the
# record holds it as a JSON float either way.
_numbers = st.one_of(_repr_floats, _repr_floats.map(np.float64), st.integers(-10**20, 10**20))
_not_floats = st.one_of(_repr_floats.map(np.float64), st.integers(-10**20, 10**20))


@st.composite
def _prediction_sets(draw):
    """Predictions with any obs_id and any numbers. Numbers drawn one by one are
    rarely all floats across a chunk, so some draws make every number a float
    (exponent forms included or not), and others then break that rule in one
    record with an int or a np.float64."""
    rows, labels = draw(_top5_blocks())
    n = len(rows) // 2
    shape = draw(st.sampled_from(["any", "floats", "one breaks"]))
    odd = draw(st.integers(0, n - 1)) if shape == "one breaks" else None
    # Floats that orjson writes as repr does, alone or mixed with exponent forms.
    plain = st.floats(1e-4, 1e16, exclude_max=True) | st.floats(-1e16, -1e-4, exclude_min=True)
    some_floats = draw(st.sampled_from([plain, plain | _repr_floats]))
    floats = st.builds(Location, some_floats, some_floats)
    breaking = st.sampled_from(["T_i", "x", "y"])
    # Quotes, backslashes, control characters, non-ASCII and lone surrogates.
    obs_ids = st.text(st.characters(exclude_categories=()))
    predictions = []
    for i, (posterior, likelihood) in enumerate(zip(rows[::2], rows[1::2])):
        if shape == "any":
            location = draw(st.builds(Location, _numbers, _numbers))
            temperature = draw(_numbers)
        else:
            location, temperature = draw(floats), draw(some_floats)
        if i == odd:
            part = draw(breaking)
            if part == "T_i":
                temperature = draw(_not_floats)
            else:
                location = replace(location, **{part: draw(_not_floats)})
        predictions.append(
            Prediction(obs_id=draw(obs_ids), predicted=draw(st.sampled_from(labels)),
                       posterior=posterior, likelihood=likelihood, prior=posterior,
                       resolved_location=location, temperature_used=temperature,
                       true_identity=draw(st.integers(0, 10**6))))
    return predictions, labels, draw(st.sampled_from(PRIOR_KINDS) | st.text())


def test_prediction_lines_are_the_json_text_of_the_reference_records(monkeypatch):
    # Also counts the chunks whose numbers took their one json_rows call, by
    # whether they held a float that repr writes in exponent form.
    kernel, reached = fusion.json_rows, Counter()

    def counting(values, labels=None):
        if labels is None:
            magnitude = np.abs(values)
            exponent = ((magnitude < 1e-4) & (magnitude > 0) | (magnitude >= 1e16)).any()
            reached["exponent form" if exponent else "plain"] += 1
        return kernel(values, labels)

    monkeypatch.setattr(fusion, "json_rows", counting)

    @given(_prediction_sets())
    def check(case):
        predictions, labels, kind = case
        before = [(p.posterior.tobytes(), p.likelihood.tobytes()) for p in predictions]
        expected = [json_text_ref(rec) + "\n" for rec in prediction_records_ref(predictions, labels, kind)]
        calls = sum(reached.values())
        assert list(prediction_lines(predictions, labels, kind)) == expected
        assert sum(reached.values()) - calls == -(-len(predictions) // BLOCK_ROWS)
        # The top-5 rounds mask a stacked copy, never a prediction's own rows.
        assert [(p.posterior.tobytes(), p.likelihood.tobytes()) for p in predictions] == before

    check()
    assert reached["plain"] > 0 and reached["exponent form"] > 0, reached


@given(_predictions(), prior_configs, train_configs)
def test_prediction_directory_rewrites_byte_identically(predictions_and_labels, pc, tc):
    predictions, labels = predictions_and_labels
    meta = {"prior_config": pc.to_dict(), "train_config": tc.to_dict(), "seed": tc.seed}

    def rewrite(first, second):
        records, read_meta = read_predictions(first)
        assert records == [json.loads(line) for line in prediction_lines(predictions, labels, pc.kind)]
        (second / "predictions.jsonl").write_text(jsonl_ref(records), encoding="utf-8")
        write_json(second / "predictions_meta.json", read_meta)

    _rewrite_is_stable(lambda d: write_predictions(predictions, d, labels, pc.kind, meta), rewrite)


@given(
    st.builds(
        ExperimentReport,
        overall_accuracy=any_float,
        new_location_accuracy=st.none() | any_float,
        ece_fused=any_float,
        ece_likelihood=any_float,
        n_test=st.integers(0, 10**9),
        n_new_location=st.integers(0, 10**9),
        n_unknown_identity=st.integers(0, 10**9),
        seed=seeds,
        train_config=train_configs.map(TrainConfig.to_dict),
        prior_config=prior_configs.map(PriorConfig.to_dict),
        # Keys like 2 and 10 sort differently as numbers and as strings.
        per_identity=st.dictionaries(st.integers(0, 10**6), any_float, max_size=12),
    )
)
def test_report_rewrites_byte_identically(report):
    def rewrite(first, second):
        again = load_report(first / "report.json")
        assert again == report
        save_report(again, second / "report.json")

    _rewrite_is_stable(lambda d: save_report(report, d / "report.json"), rewrite)


@st.composite
def _small_sim_configs(draw):
    seasonal = draw(st.booleans())
    return SimConfig(
        n_identities=draw(st.integers(2, 12)),
        feature_dim=draw(st.integers(1, 8)),
        bg_feature_dim=draw(st.integers(1, 8)),
        grid=GridSpec(
            origin=Location(draw(st.sampled_from((0.0, -0.0, -7.5, 3.25))),
                            draw(st.sampled_from((0.0, -0.0, -2.0, 11.5)))),
            cell_size_km=draw(st.sampled_from((0.7, 1.0, 5.0))),
            n_cells_x=draw(st.integers(1, 4)),
            n_cells_y=draw(st.integers(1, 4)),
        ),
        longtail_exponent=draw(st.sampled_from((0.0, 1.0, 2.0))),
        home_range_cells=draw(st.sampled_from((0.0, 0.35, 2.0))),
        migration_prob=draw(st.sampled_from((0.0, 0.3, 1.0))),
        fg_noise=draw(st.sampled_from((0.0, 1.0, 2.8))),
        bg_cell_signal=draw(st.sampled_from((0.0, 0.5, 1.0))),
        obs_rate=draw(st.floats(1.0, 12.0)),
        duration_days=draw(st.sampled_from((30.0, 365.0))),
        cutoff_quantile=draw(st.sampled_from((0.3, 0.7, 0.93))),
        seasonal_bursts=draw(st.integers(1, 4)) if seasonal else 0,
        season_duty=draw(st.sampled_from((0.3, 1.0))),
        season_attendance=draw(st.sampled_from((0.45, 1.0))),
        seed=draw(seeds),
    )


def _observation_fields(o):
    # Feature bytes and float hex so that signed zeros count; the type of the
    # scalars may differ (the loop kept numpy scalars in some locations).
    return (
        o.obs_id, o.identity, o.split, float(o.timestamp).hex(),
        float(o.location.x).hex(), float(o.location.y).hex(),
        o.fg_features.dtype, o.fg_features.shape, o.fg_features.tobytes(),
        o.bg_features.dtype, o.bg_features.shape, o.bg_features.tobytes(),
    )


@settings(max_examples=60)
@given(_small_sim_configs())
# Times clamped to 1e-6 tie within and across identities 0 and 1.
@example(SimConfig(
    n_identities=6, feature_dim=2, bg_feature_dim=2, grid=GridSpec(Location(0.0, 0.0), 1.0, 2, 2),
    obs_rate=8.0, duration_days=1e-5, seasonal_bursts=1, season_duty=1.0, seed=0,
))
# One sighting per identity: the redraws leave no test split.
@example(SimConfig(n_identities=10, feature_dim=2, bg_feature_dim=2, obs_rate=1.0, seed=0))
def test_generate_matches_the_per_sighting_reference(config):
    try:
        expected = reference_generate(config)
    except SplitError:
        with pytest.raises(SimulationError, match=r"^no observations at or after cutoff \S+: \d+"
                                                  r" sightings .* too few to split .*; raise obs_rate$"):
            generate(config)
        return
    dataset = generate(config)
    assert (dataset.grid, dataset.n_identities) == (expected.grid, expected.n_identities)
    assert list(map(_observation_fields, dataset.observations)) == list(
        map(_observation_fields, expected.observations))
    with tempfile.TemporaryDirectory() as tmp:
        for name, ds in (("change", dataset), ("reference", expected)):
            save_dataset(ds, Path(tmp) / name)
        for name in ("observations.jsonl", "dataset.json"):
            assert (Path(tmp) / "change" / name).read_bytes() == (
                Path(tmp) / "reference" / name).read_bytes()
