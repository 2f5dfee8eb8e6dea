"""Property tests: the softmax kernel, the PITS objective, every prior, and
fusion hold their invariants over generated inputs, extreme decay constants
and distances included; sequential inference gives the same bits however a
stream reaches it; and every file kind round-trips byte for byte. Runs are
derandomized so the suite gives the same verdict on every machine."""

import logging
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from idfusion.calibration import pits_objective, softmax, tempered_softmax
from idfusion.classifier import (
    INPUT_KINDS,
    LOSS_KINDS,
    BackgroundLocationModel,
    PitsModel,
    TrainConfig,
    load_background_model,
    load_model,
    save_background_model,
    save_model,
)
from idfusion.data import (
    TEST,
    TRAIN,
    Dataset,
    GridSpec,
    Location,
    from_fields,
    load_dataset,
    read_json,
    save_dataset,
    write_json,
    write_jsonl,
)
from idfusion.evaluation import ExperimentReport, load_report, save_report
from idfusion.fusion import (
    BLOCK_ROWS,
    LOG_SPACE_THRESHOLD,
    Prediction,
    fuse,
    prediction_records,
    read_predictions,
    sequential_infer,
    write_predictions,
)
from idfusion.priors import (
    LOCATION_SOURCES,
    PRIOR_KINDS,
    UNIFORM,
    PriorConfig,
    PriorState,
    prior_rows,
)
from idfusion.errors import SimulationError, SplitError
from idfusion.simulate import SimConfig, generate

from conftest import make_obs
from oracles import numeric_pits_grad, reference_generate, top_entries

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
def _states(draw):
    k = draw(st.integers(1, 30))
    homes = draw(_arrays(np.float64, (k, 2), elements=coordinate))
    anchors = draw(_arrays(np.float64, (k, 2), elements=coordinate))
    last_seen = draw(_arrays(np.float64, k, elements=coordinate))
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
        priors = [prior_rows(replace(state, config=replace(state.config, kind=kind)),
                             np.array([loc.x, loc.y]), t) for kind in PRIOR_KINDS]
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
    state = PriorState(labels=model.labels, home_xy=np.zeros((k, 2)),
                       last_loc_xy=np.zeros((k, 2)), last_seen=np.zeros(k),
                       config=PriorConfig(kind=UNIFORM))
    obs = [make_obs(f"o{i}", 0, 1.0 + i, Location(0.0, 0.0), fg=x) for i, x in enumerate(X)]
    for pred in sequential_infer(model, state, obs):
        assert pred.predicted == model.labels[int(np.argmax(pred.likelihood))]
        assert np.array_equal(pred.posterior, pred.likelihood / pred.likelihood.sum())


# ---------------------------------------------------------------------------
# The batched and the sequential layer of sequential_infer: a sighting's
# result has the same bits however the stream reaches it.
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
    batched layer. Sharp draws (large weights and decay constants) make
    likelihood-times-prior products vanish, so fallbacks happen. The arrays
    come from a drawn seed, so every entry varies, as in real data."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sharp = draw(st.booleans())
    d, n = 3, draw(st.integers(1, 2 * BLOCK_ROWS + 5))
    model = PitsModel(
        W=rng.uniform(-1.0, 1.0, (k, d)) * (3000.0 if sharp else 3.0),
        b=rng.uniform(-1.0, 1.0, k), w_T=rng.uniform(-1.0, 1.0, d), b_T=rng.uniform(-1.0, 1.0),
        labels=tuple(range(k)), input_kind="foreground", temperature_head_active=True,
    )
    rate = 3000.0 if sharp else 2.5
    start = (rng.uniform(0.0, 20.0, (k, 2)), rng.uniform(0.0, 50.0, k),
             PriorConfig(kind=kind, alpha=rate, beta=rate))
    # Whole days from day 51 on, so simultaneous sightings occur too.
    days = rng.integers(51, 81, n)
    obs = [make_obs(f"o{i:03d}", 0, float(t), Location(x, y), fg=f)
           for i, (f, (x, y), t) in enumerate(zip(rng.uniform(-1.0, 1.0, (n, d)),
                                                  rng.uniform(0.0, 20.0, (n, 2)), days))]
    return model, start, obs


def _fresh(model, start):
    homes, last_seen, config = start
    return PriorState(labels=model.labels, home_xy=homes, last_loc_xy=homes.copy(),
                      last_seen=last_seen.copy(), config=config)


def _infer_counting(model, start, calls):
    """Runs ``calls`` (lists of observations) in turn through one fresh state;
    returns the predictions, the final state and the fallback warnings."""
    state, counter = _fresh(model, start), _Fallbacks()
    log = logging.getLogger("idfusion.fusion")
    log.addHandler(counter)
    try:
        preds = [p for call in calls for p in sequential_infer(model, state, call)]
    finally:
        log.removeHandler(counter)
    return preds, state, counter.count


def _assert_same_bits(a, b):
    preds_a, state_a, fallbacks_a = a
    preds_b, state_b, fallbacks_b = b
    assert [p.obs_id for p in preds_a] == [p.obs_id for p in preds_b]
    for x, y in zip(preds_a, preds_b):
        assert x.predicted == y.predicted and x.temperature_used == y.temperature_used
        for field in ("posterior", "likelihood", "prior"):
            assert np.array_equal(getattr(x, field), getattr(y, field)), field
    assert np.array_equal(state_a.last_loc_xy, state_b.last_loc_xy)
    assert np.array_equal(state_a.last_seen, state_b.last_seen)
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


# Every prior kind, on each side of LOG_SPACE_THRESHOLD.
layer_cases = pytest.mark.parametrize("kind, k", [(kind, k) for kind in PRIOR_KINDS for k in (5, 80)])


@layer_cases
@settings(max_examples=20)
@given(data=st.data())
def test_caller_order_never_matters(kind, k, data):
    model, start, obs = data.draw(_streams(kind, k))
    rng = data.draw(st.randoms(use_true_random=False))
    shuffled = list(obs)
    rng.shuffle(shuffled)
    _assert_same_bits(_infer_counting(model, start, [obs]),
                      _infer_counting(model, start, [shuffled]))


@layer_cases
@settings(max_examples=20)
@given(data=st.data())
def test_whole_stream_per_sighting_and_chunks_agree(kind, k, data):
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


@layer_cases
@settings(max_examples=20)
@given(data=st.data())
def test_relabeling_in_order_moves_no_bit(kind, k, data):
    # Label values only name the rows: an increasing remap of the model's and
    # the state's labels keeps every bit, and each winner maps through it.
    model, start, obs = data.draw(_streams(kind, k))
    remap = {label: 3 * label + 7 for label in model.labels}
    relabeled = replace(model, labels=tuple(remap[label] for label in model.labels))
    preds, state, fallbacks = _infer_counting(model, start, [obs])
    _assert_same_bits(([replace(p, predicted=remap[p.predicted]) for p in preds], state, fallbacks),
                      _infer_counting(relabeled, start, [obs]))


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


@st.composite
def _prior_configs(draw):
    kind = draw(st.sampled_from(PRIOR_KINDS))
    extras = [k for k in PRIOR_KINDS if k not in (UNIFORM, kind)]
    return PriorConfig(
        kind=kind,
        location_source=draw(st.sampled_from(LOCATION_SOURCES)),
        alpha=draw(non_negative),
        beta=draw(non_negative),
        time_unit_days=draw(positive),
        cell_size_km=draw(positive),
        distance_unit=draw(st.sampled_from(("cells", "km"))),
        combine_with=draw(st.lists(st.sampled_from(extras), unique=True)),
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
    _prior_configs().map(lambda c: (c, lambda d: from_fields(PriorConfig, d, "prior"))),
    sim_configs.map(lambda c: (c, SimConfig.from_dict)),
    grids.map(lambda c: (c, GridSpec.from_dict)),
))
def test_config_dicts_round_trip(config_and_reader):
    config, from_dict = config_and_reader
    assert from_dict(config.to_dict()) == config

    def rewrite(first, second):
        write_json(second / "config.json", from_dict(read_json(first / "config.json")).to_dict())

    _rewrite_is_stable(lambda d: write_json(d / "config.json", config.to_dict()), rewrite)


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
    c, d = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    return BackgroundLocationModel(W=draw(_arrays(np.float64, (c, d), elements=any_float)),
                                   b=draw(_vectors(c)))


@given(st.one_of(
    _pits_models().map(lambda m: (m, save_model, load_model)),
    _background_models().map(lambda m: (m, save_background_model, load_background_model)),
), train_configs)
def test_checkpoints_rewrite_byte_identically(model_io, config):
    model, save, load = model_io

    def rewrite(first, second):
        stored = read_json(first / "model.json")["train_config"]
        again = from_fields(TrainConfig, stored, "train_config")
        loaded = load(first / "model.json")
        assert np.array_equal(loaded.W, model.W) and np.array_equal(loaded.b, model.b)
        save(loaded, second / "model.json", config=again)

    _rewrite_is_stable(lambda d: save(model, d / "model.json", config=config), rewrite)


@st.composite
def _predictions(draw):
    k = draw(st.integers(1, 7))
    labels = tuple(draw(st.lists(st.integers(0, 10**6), min_size=k, max_size=k, unique=True)))
    predictions = [
        Prediction(
            obs_id=f"o{i}", predicted=draw(st.sampled_from(labels)),
            posterior=draw(_vectors(k)), likelihood=draw(_vectors(k)), prior=draw(_vectors(k)),
            resolved_location=draw(st.none() | st.builds(Location, any_float, any_float)),
            temperature_used=draw(any_float),
            true_identity=draw(st.none() | st.integers(0, 10**6)),
        )
        for i in range(draw(st.integers(0, 5)))
    ]
    return predictions, labels


@st.composite
def _top5_blocks(draw):
    # Small K with few distinct values puts ties at the 5th/6th rank, K <= 5
    # and K = 6 on each side of the partition; 1-40 predictions span up to
    # two blocks of BLOCK_ROWS.
    k = draw(st.integers(1, 12))
    labels = tuple(draw(st.lists(st.integers(0, 10**6), min_size=k, max_size=k, unique=True)))
    levels = st.sampled_from(draw(st.lists(any_float, min_size=3, max_size=3)))
    rows = st.one_of(
        _arrays(np.float64, k, elements=levels),
        any_float.map(lambda v: np.full(k, v)),
        st.just(np.zeros(k)),
        _arrays(np.float64, k, elements=st.sampled_from([-0.0, 0.0])),
        _vectors(k),
    )
    n = draw(st.integers(1, 40))
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
                   prior=posterior, resolved_location=None, temperature_used=1.0)
        for i, (posterior, likelihood) in enumerate(zip(rows[::2], rows[1::2]))
    ]
    records = list(prediction_records(predictions, labels, UNIFORM))
    assert len(records) == len(predictions)
    for pred, record in zip(predictions, records):
        # repr tells -0.0 from 0.0, which == does not.
        assert repr(record["posterior_top5"]) == repr(top_entries(pred.posterior, labels, 5))
        assert repr(record["likelihood_top5"]) == repr(top_entries(pred.likelihood, labels, 5))


@given(_predictions(), _prior_configs(), train_configs)
def test_prediction_directory_rewrites_byte_identically(predictions_and_labels, pc, tc):
    predictions, labels = predictions_and_labels
    meta = {"prior_config": pc.to_dict(), "train_config": tc.to_dict(), "seed": tc.seed}

    def rewrite(first, second):
        records, read_meta = read_predictions(first)
        assert records == list(prediction_records(predictions, labels, pc.kind))
        write_jsonl(second / "predictions.jsonl", records)
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
        prior_config=_prior_configs().map(PriorConfig.to_dict),
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
        with pytest.raises(SimulationError, match="obs_rate"):
            generate(config)
        return
    dataset = generate(config)
    assert (dataset.grid, dataset.n_identities, dataset.feature_dims) == (
        expected.grid, expected.n_identities, expected.feature_dims)
    assert list(map(_observation_fields, dataset.observations)) == list(
        map(_observation_fields, expected.observations))
    with tempfile.TemporaryDirectory() as tmp:
        for name, ds in (("change", dataset), ("reference", expected)):
            save_dataset(ds, Path(tmp) / name)
        for name in ("observations.jsonl", "dataset.json"):
            assert (Path(tmp) / "change" / name).read_bytes() == (
                Path(tmp) / "reference" / name).read_bytes()
