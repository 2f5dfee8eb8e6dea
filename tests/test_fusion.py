"""Posterior fusion and the stateful sequential inference loop."""

import hashlib
import logging
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from idfusion import fusion
from idfusion.classifier import PitsModel, TrainConfig, train, train_background_model
from idfusion.data import GridSpec, Location, build_catalog
from idfusion.errors import ConfigError, ParseError
from idfusion.fusion import (
    BLOCK_ROWS,
    _stream_order,
    fuse,
    read_predictions,
    sequential_infer,
    write_predictions,
)
from idfusion.priors import (
    HOME_LOCATION,
    MIGRATING_LOCATION,
    TIME_DECAY,
    UNIFORM,
    PriorConfig,
    init_state,
)
from idfusion.simulate import generate, lynx_like

from conftest import assert_pinned, draft_spy, make_obs, make_state
from oracles import brute_force_sequential, cell_center_ref, jsonl_ref, prediction_records_ref


def _plain_model(W, b_T=-40.0, labels=None):
    """Linear scorer with the temperature head silenced: softplus(-40) rounds
    to zero in float64, so T is exactly 1 and likelihoods are plain softmax."""
    W = np.asarray(W, dtype=np.float64)
    k, d = W.shape
    return PitsModel(
        W=W,
        b=np.zeros(k),
        w_T=np.zeros(d),
        b_T=b_T,
        labels=labels or tuple(range(k)),
        input_kind="foreground",
        temperature_head_active=True,
    )


def test_fuse_two_class_hand_values():
    post = fuse(np.array([0.6, 0.4]), np.array([0.25, 0.75]))
    assert post[0] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert post[1] == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_fuse_constant_prior_short_circuits_bitwise():
    rng = np.random.default_rng(2)
    for k, fill in ((5, None), (4, 0.3)):
        l = rng.uniform(0.1, 2.0, size=k)
        p = np.full(k, 1.0 / k if fill is None else fill)
        got = fuse(l, p)
        assert np.array_equal(got, l / l.sum())
        assert int(np.argmax(got)) == int(np.argmax(l))


@pytest.mark.parametrize("k", [5, 80])
def test_a_constant_block_fuses_to_each_rows_quotient(k):
    # A block whose every row is constant returns each row's quotient as fused
    # alone; one varying row sends the whole block through the product.
    rng = np.random.default_rng(k)
    l = rng.uniform(0.1, 2.0, size=(6, k))
    p = np.repeat(rng.uniform(0.1, 1.0, size=(6, 1)), k, axis=1)
    for prior in (p, np.vstack([p[:5], rng.uniform(0.1, 1.0, size=(1, k))])):
        out = np.empty_like(l)
        with np.errstate(divide="ignore", invalid="ignore"):
            assert fusion.fuse_rows(l, np.log(l), prior, out) == []
        for row, l_row, p_row in zip(out, l, prior):
            assert np.array_equal(row, fuse(l_row, p_row))
    assert np.array_equal(out[:5], l[:5] / l[:5].sum(axis=1, keepdims=True))


def test_fuse_large_label_space_matches_direct_product():
    rng = np.random.default_rng(8)
    k = 200
    l = rng.uniform(1e-6, 1.0, size=k)
    l /= l.sum()
    p = rng.uniform(1e-6, 1.0, size=k)
    p /= p.sum()
    direct = l * p
    direct /= direct.sum()
    assert np.allclose(fuse(l, p), direct, atol=1e-12)


def test_fuse_zero_product_falls_back_to_likelihood(caplog):
    with caplog.at_level(logging.WARNING, logger="idfusion.fusion"):
        post = fuse(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert np.array_equal(post, [1.0, 0.0])
    assert any("mass" in r.message for r in caplog.records)

    caplog.clear()
    k = 70
    l = np.zeros(k)
    l[0] = 1.0
    p = np.full(k, 1.0 / (k - 1))
    p[0] = 0.0
    with caplog.at_level(logging.WARNING, logger="idfusion.fusion"):
        post = fuse(l, p)
    assert np.array_equal(post, l)
    assert any("mass" in r.message for r in caplog.records)


def test_fuse_input_validation():
    with pytest.raises(ValueError):
        fuse(np.array([0.5, 0.5]), np.array([0.2, 0.3, 0.5]))
    with pytest.raises(ValueError):
        fuse(np.array([0.5, -0.5]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        fuse(np.array([0.0, 0.0]), np.array([0.5, 0.5]))


@pytest.mark.parametrize("likelihood, prior", [
    ([np.nan, 0.5], [0.5, 0.5]),
    ([np.inf, 0.5], [0.3, 0.7]),
    ([0.5, 0.5], [np.nan, 0.5]),
    ([0.5, 0.5], [0.3, np.inf]),
])
def test_fuse_rejects_non_finite_entries(likelihood, prior):
    # NaN and inf pass the sign and mass checks, so only a finiteness check stops them.
    with pytest.raises(ValueError, match="finite"):
        fuse(np.array(likelihood), np.array(prior))


def test_stream_order_sorts_and_breaks_ties():
    obs = [
        make_obs("b", 0, 5.0, Location(0.0, 0.0)),
        make_obs("a", 0, 5.0, Location(0.0, 0.0)),
        make_obs("z", 0, 1.0, Location(0.0, 0.0)),
        make_obs("a", 0, 5.0, Location(1.0, 1.0)),
    ]
    order = _stream_order(obs)
    # Timestamp first, then obs_id, then original position for exact dupes.
    assert order == [2, 1, 3, 0]


def _migration_fixture():
    grid = GridSpec(origin=Location(0.0, 0.0), cell_size_km=5.0, n_cells_x=2, n_cells_y=1)
    west, east = cell_center_ref(grid, 0), cell_center_ref(grid, 1)
    model = _plain_model([[4.0, 0.0], [0.0, 4.0]])
    config = PriorConfig(kind=MIGRATING_LOCATION, alpha=2.5, cell_size_km=5.0)
    state = make_state((0, 1), config, homes=[[west.x, west.y], [east.x, east.y]])
    obs = [
        make_obs("a", 0, 1.0, west, fg=[1.0, 0.0]),
        make_obs("b", 0, 2.0, east, fg=[1.0, 0.0]),
        make_obs("c", 0, 3.0, west, fg=[0.0, 0.0]),
        make_obs("d", 1, 4.0, east, fg=[0.0, 0.0]),
    ]
    return grid, model, state, obs, (west, east)


def test_migrating_prior_four_step_trace():
    # Identity 0 is sighted away from home, so the fused winner drags its
    # anchor east; an ambiguous capture then ties, resolves to the lowest
    # index, and drags it back west; the final ambiguous capture in the east
    # now belongs to identity 1 on the prior alone.
    grid, model, state, obs, (west, east) = _migration_fixture()
    preds = sequential_infer(model, state, obs, grid=grid)

    assert [p.predicted for p in preds] == [0, 0, 0, 1]

    assert preds[1].posterior[0] == pytest.approx(0.81758, abs=1e-4)
    assert preds[1].posterior[1] == pytest.approx(0.18242, abs=1e-4)

    # Both anchors sat in the east cell at step three: exact tie.
    assert np.array_equal(preds[2].posterior, [0.5, 0.5])

    assert preds[3].prior[0] == pytest.approx(0.0759, abs=1e-4)
    assert preds[3].prior[1] == pytest.approx(0.9241, abs=1e-4)

    assert tuple(state.anchors[0]) == (west.x, west.y)
    assert tuple(state.anchors[1]) == (east.x, east.y)
    for p in preds:
        assert p.temperature_used == 1.0


def test_sequential_infer_ignores_caller_order():
    grid, model, state, obs, _ = _migration_fixture()
    shuffled = [obs[3], obs[1], obs[0], obs[2]]
    preds = sequential_infer(model, state, shuffled, grid=grid)
    assert [p.obs_id for p in preds] == ["a", "b", "c", "d"]
    assert [p.predicted for p in preds] == [0, 0, 0, 1]


def test_sequential_infer_validates_inputs():
    grid, model, state, obs, _ = _migration_fixture()
    with pytest.raises(ValueError, match="^cannot run inference over an empty observation stream$"):
        sequential_infer(model, state, [], grid=grid)
    with pytest.raises(ValueError, match="^sequential inference needs an initialized prior state$"):
        sequential_infer(model, None, obs, grid=grid)
    bad_state = make_state((0, 1, 2), PriorConfig(kind=UNIFORM))
    with pytest.raises(ValueError, match="^model and prior state disagree on the label space$"):
        sequential_infer(model, bad_state, obs, grid=grid)


def test_label_check_still_runs_after_a_matching_call():
    # A state takes the labels tuple of the model it matched, so a model with
    # other labels must still be refused on a later call, leaving the state as it was.
    grid, model, state, obs, _ = _migration_fixture()
    sequential_infer(model, state, obs[:1], grid=grid)
    assert state.labels is model.labels
    anchors = state.anchors.copy()
    swapped = _plain_model([[4.0, 0.0], [0.0, 4.0]], labels=(1, 0))
    with pytest.raises(ValueError, match="label space"):
        sequential_infer(swapped, state, obs[1:], grid=grid)
    assert np.array_equal(state.anchors, anchors)
    # A model built from a list holds an equal tuple, which the state takes in turn.
    listed = _plain_model([[4.0, 0.0], [0.0, 4.0]], labels=[0, 1])
    sequential_infer(listed, state, obs[1:2], grid=grid)
    assert listed.labels == (0, 1) and state.labels is listed.labels


@pytest.mark.parametrize("cell_size_km", [2.5, 10.0])
def test_sequential_infer_refuses_a_grid_of_another_cell_size(cell_size_km):
    # Distances are in the config's cells; a grid of other cells would silently rescale them.
    grid, model, state, obs, _ = _migration_fixture()
    other = replace(grid, cell_size_km=cell_size_km)
    anchors = state.anchors.copy()
    with pytest.raises(ConfigError) as exc:
        sequential_infer(model, state, obs, grid=other)
    assert str(exc.value) == (f"the grid's cells are {cell_size_km} km but the prior measures"
                              " distance in 5.0 km cells")
    assert np.array_equal(state.anchors, anchors)


@pytest.mark.parametrize("kind", [UNIFORM, HOME_LOCATION, MIGRATING_LOCATION, TIME_DECAY])
def test_sequential_infer_matches_brute_force(kind, grid2x2):
    seeds = {UNIFORM: 101, HOME_LOCATION: 202, MIGRATING_LOCATION: 303, TIME_DECAY: 404}
    rng = np.random.default_rng(seeds[kind])
    for trial in range(3):
        k = int(rng.integers(2, 6))
        d = int(rng.integers(2, 5))
        n_obs = int(rng.integers(5, 16))
        W = rng.normal(size=(k, d))
        b = rng.normal(size=k) * 0.1
        w_T = rng.normal(size=d) * 0.2
        b_T = float(rng.normal() * 0.1)
        model = PitsModel(
            W=W, b=b, w_T=w_T, b_T=b_T,
            labels=tuple(range(k)),
            input_kind="foreground",
            temperature_head_active=True,
        )
        homes = rng.uniform(0.0, 10.0, size=(k, 2))
        last_seen = rng.uniform(0.0, 60.0, size=k)
        # The state mutates its clock and anchor arrays during inference, so
        # the oracle must be fed copies taken before the run.
        state = make_state(tuple(range(k)),
                           PriorConfig(kind=kind, alpha=2.5, beta=3.0, cell_size_km=5.0),
                           homes, last_seen)
        obs = [
            make_obs(
                f"o{j}",
                int(rng.integers(0, k)),
                float(rng.uniform(1.0, 300.0)),
                Location(float(rng.uniform(0, 10)), float(rng.uniform(0, 10))),
                fg=rng.normal(size=d),
            )
            for j in range(n_obs)
        ]

        preds = sequential_infer(model, state, obs, grid=grid2x2)
        ref_obs = [
            {"obs_id": o.obs_id, "x": list(o.fg_features), "loc": (o.location.x, o.location.y), "t": o.timestamp}
            for o in obs
        ]
        ref_posts, ref_preds = brute_force_sequential(
            W.tolist(), b.tolist(), w_T.tolist(), b_T,
            ref_obs, kind,
            [tuple(h) for h in homes], list(last_seen),
        )
        assert [p.predicted for p in preds] == ref_preds
        for p, ref in zip(preds, ref_posts):
            assert np.allclose(p.posterior, ref, atol=1e-10)


@pytest.mark.parametrize("kind", [UNIFORM, HOME_LOCATION, MIGRATING_LOCATION, TIME_DECAY])
def test_sequential_infer_streams_in_chunks_through_one_state(kind, grid2x2):
    # The state is advanced in place, so two time-ordered chunks sharing one
    # state must reproduce a single whole-stream call bit for bit; the
    # stateless priors take each block in one step and leave it untouched.
    rng = np.random.default_rng(17)
    k, d = 5, 3
    model = PitsModel(
        W=rng.normal(size=(k, d)), b=rng.normal(size=k) * 0.1,
        w_T=rng.normal(size=d) * 0.2, b_T=0.1,
        labels=tuple(range(k)), input_kind="foreground", temperature_head_active=True,
    )
    homes = rng.uniform(0.0, 10.0, size=(k, 2))
    last_seen = rng.uniform(0.0, 60.0, size=k)

    def fresh_state():
        return make_state(tuple(range(k)), PriorConfig(kind=kind), homes, last_seen)

    obs = [
        make_obs(f"o{j:02d}", int(rng.integers(0, k)), float(rng.uniform(61.0, 400.0)),
                 Location(float(rng.uniform(0, 10)), float(rng.uniform(0, 10))),
                 fg=rng.normal(size=d))
        for j in range(40)
    ]
    stream = [obs[i] for i in _stream_order(obs)]

    whole_state = fresh_state()
    whole = sequential_infer(model, whole_state, obs, grid=grid2x2)
    chunk_state = fresh_state()
    chunked = (sequential_infer(model, chunk_state, stream[:17], grid=grid2x2)
               + sequential_infer(model, chunk_state, stream[17:], grid=grid2x2))

    assert [p.obs_id for p in chunked] == [p.obs_id for p in whole]
    for a, b in zip(chunked, whole):
        assert a.predicted == b.predicted
        assert a.resolved_location == b.resolved_location
        assert a.temperature_used == b.temperature_used
        for field in ("posterior", "likelihood", "prior"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
    assert np.array_equal(chunk_state.anchors, whole_state.anchors)
    # The whole-stream call moved the anchors of a moving prior only.
    start = last_seen if kind == TIME_DECAY else homes
    assert np.array_equal(whole_state.anchors, start) != (kind in (MIGRATING_LOCATION, TIME_DECAY))


@pytest.mark.parametrize("kind", [UNIFORM, MIGRATING_LOCATION])
def test_sequential_infer_reads_a_generator_once(kind):
    # Any iterable of observations works, and gives the bits a list gives.
    runs = []
    for wrap in (list, lambda obs: (o for o in obs)):
        grid, model, state, obs, _ = _migration_fixture()
        state.config = PriorConfig(kind=kind, cell_size_km=5.0)
        runs.append((sequential_infer(model, state, wrap(obs), grid=grid), state))
    (a, state_a), (b, state_b) = runs
    assert [p.predicted for p in a] == [p.predicted for p in b]
    for x, y in zip(a, b):
        for field in ("posterior", "likelihood", "prior"):
            assert np.array_equal(getattr(x, field), getattr(y, field))
    assert np.array_equal(state_a.anchors, state_b.anchors)


def test_block_logits_are_the_per_row_bits():
    # One matrix-vector product per row, as a single forward() computes: a
    # matrix product over the block (X @ W.T) rounds differently, and would
    # make a sighting's logits depend on the block it arrived in.
    rng = np.random.default_rng(500)
    k, d = 500, 32
    model = PitsModel(W=rng.normal(size=(k, d)), b=rng.normal(size=k), w_T=rng.normal(size=d),
                      b_T=0.3, labels=tuple(range(k)), input_kind="foreground",
                      temperature_head_active=True)
    X = rng.normal(size=(200, d))
    logits, temperatures = model.forward_rows(X)
    for x, z, t in zip(X, logits, temperatures):
        z_one, t_one = model.forward(x)
        assert np.array_equal(z, z_one)
        assert np.array_equal(z, model.W @ x + model.b)
        assert t == t_one == 1.0 + float(np.logaddexp(0.0, float(model.w_T @ x) + 0.3))


def test_predictions_round_trip_and_are_byte_stable(tmp_path):
    grid, model, state, obs, _ = _migration_fixture()
    preds = sequential_infer(model, state, obs, grid=grid)

    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    for d in (dir_a, dir_b):
        write_predictions(preds, d, labels=model.labels, prior_kind=MIGRATING_LOCATION, meta={"run": 1})

    assert (dir_a / "predictions.jsonl").read_bytes() == (dir_b / "predictions.jsonl").read_bytes()
    assert (dir_a / "predictions_meta.json").read_bytes() == (dir_b / "predictions_meta.json").read_bytes()

    records, meta = read_predictions(dir_a)
    assert meta["prior_kind"] == MIGRATING_LOCATION
    assert meta["labels"] == [0, 1]
    assert meta["run"] == 1
    assert [r["obs_id"] for r in records] == ["a", "b", "c", "d"]
    assert [r["predicted"] for r in records] == [0, 0, 0, 1]
    for r, p in zip(records, preds):
        assert r["true"] == p.true_identity
        assert r["T_i"] == p.temperature_used
        top = r["posterior_top5"]
        assert len(top) == 2
        assert top[0][1] >= top[1][1]
        assert r["resolved_loc"] == [p.resolved_location.x, p.resolved_location.y]


def test_a_prediction_field_cannot_be_assigned():
    grid, model, state, obs, _ = _migration_fixture()
    pred = sequential_infer(model, state, obs, grid=grid)[0]
    for field in pred._fields:
        with pytest.raises(AttributeError):
            setattr(pred, field, getattr(pred, field))


@pytest.mark.parametrize("bad, why", [("[1, 2]", "record is not a JSON object"),
                                      ('{"obs_id": ', "invalid JSON")])
def test_read_predictions_names_the_bad_line(tmp_path, bad, why):
    grid, model, state, obs, _ = _migration_fixture()
    preds = sequential_infer(model, state, obs, grid=grid)
    write_predictions(preds, tmp_path, labels=model.labels, prior_kind=MIGRATING_LOCATION)
    path = tmp_path / "predictions.jsonl"
    lines = path.read_text().splitlines()
    lines[2] = bad
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match=f"predictions.jsonl: line 3: {why}"):
        read_predictions(tmp_path)


@pytest.mark.parametrize("field", ["posterior", "likelihood", "T_i", "resolved_loc"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_write_predictions_rejects_a_non_finite_value(tmp_path, monkeypatch, field, value):
    # JSON holds no NaN or infinity; json would write NaN or Infinity, which
    # no JSON reader need accept, and orjson null. The error names the sighting
    # and the field, and comes before the sidecar is written and before any
    # non-finite value reaches the number formatter.
    kernel = fusion.json_rows

    def finite_only(values, labels=None):
        assert np.isfinite(values).all()
        return kernel(values, labels)

    monkeypatch.setattr(fusion, "json_rows", finite_only)
    grid, model, state, obs, _ = _migration_fixture()
    preds = sequential_infer(model, state, obs, grid=grid)
    row = preds[2].posterior.copy()
    row[1] = value
    loc = Location(0.0, 0.0)
    object.__setattr__(loc, "y", value)  # Location itself rejects a non-finite coordinate
    changes = {"posterior": {"posterior": row}, "likelihood": {"likelihood": row},
               "T_i": {"temperature_used": value}, "resolved_loc": {"resolved_location": loc}}
    preds[2] = preds[2]._replace(**changes[field])
    with pytest.raises(ValueError, match=f"^prediction 'c': {field} is not finite"):
        write_predictions(preds, tmp_path / "p", labels=model.labels, prior_kind=MIGRATING_LOCATION)
    assert not (tmp_path / "p" / "predictions_meta.json").exists()


def test_write_predictions_names_a_temperature_past_a_doubles_range(tmp_path):
    grid, model, state, obs, _ = _migration_fixture()
    preds = sequential_infer(model, state, obs, grid=grid)
    preds[2] = preds[2]._replace(temperature_used=10**400)
    with pytest.raises(ValueError, match="^prediction 'c': T_i is an int too large for a float$"):
        write_predictions(preds, tmp_path / "p", labels=model.labels, prior_kind=MIGRATING_LOCATION)
    assert not (tmp_path / "p" / "predictions_meta.json").exists()


@pytest.mark.parametrize("meta, key", [({"labels": [5, 6, 7], "seed": 1}, "labels"),
                                       ({"prior_kind": UNIFORM}, "prior_kind")])
def test_write_predictions_rejects_a_meta_that_contradicts_the_records(tmp_path, meta, key):
    # The records name their labels and prior kind; a sidecar that disagreed
    # would score every sighting against other labels.
    grid, model, state, obs, _ = _migration_fixture()
    preds = sequential_infer(model, state, obs, grid=grid)
    with pytest.raises(ValueError, match=f"^meta '{key}' differs from the {key} the records"):
        write_predictions(preds, tmp_path / "p", labels=model.labels, prior_kind=MIGRATING_LOCATION,
                          meta=meta)
    assert not (tmp_path / "p").exists()
    # Repeating the arguments writes what leaving them out writes.
    write_predictions(preds, tmp_path / "a", labels=model.labels, prior_kind=MIGRATING_LOCATION,
                      meta={"labels": list(model.labels), "prior_kind": MIGRATING_LOCATION, "seed": 1})
    write_predictions(preds, tmp_path / "b", labels=model.labels, prior_kind=MIGRATING_LOCATION,
                      meta={"seed": 1})
    for name in ("predictions.jsonl", "predictions_meta.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_int_and_bool_coordinates_are_written_as_json_floats(tmp_path):
    # A location holds floats, so a hand-built sighting's record reads as its dataset line does.
    model = _plain_model([[2.0, 0.0], [0.0, 2.0]])
    state = make_state((0, 1), PriorConfig(kind=MIGRATING_LOCATION))
    obs = [make_obs("a", 0, 1, Location(True, False), fg=[3, 0]),
           make_obs("b", 1, 2, Location(3, 4), fg=[0, 3])]
    write_predictions(sequential_infer(model, state, obs), tmp_path, labels=(0, 1),
                      prior_kind=MIGRATING_LOCATION)
    lines = (tmp_path / "predictions.jsonl").read_text().splitlines()
    assert [line[line.index('"resolved_loc"'):] for line in lines] == [
        '"resolved_loc": [1.0, 0.0], "true": 0}', '"resolved_loc": [3.0, 4.0], "true": 1}']


def test_a_label_orjson_refuses_is_written_as_json_writes_it(tmp_path):
    # orjson raises on an int outside [-2**63, 2**64); those rows are formatted as json does.
    # Labels are non-negative, so only the upper bound can be crossed.
    labels = (2**64, 3, 2**70)
    model = _plain_model([[2.0, 0.0], [0.0, 2.0], [1.5, 1.5]], labels=labels)
    state = make_state(labels, PriorConfig(kind=UNIFORM))
    obs = [make_obs(f"o{i}", 0, i + 1.0, Location(1.0, 1.0), fg=([3, 0], [0, 3], [1, 1])[i % 3])
           for i in range(40)]
    preds = sequential_infer(model, state, obs)
    assert {p.predicted for p in preds} == set(labels)
    write_predictions(preds, tmp_path, labels=labels, prior_kind=UNIFORM)
    expected = jsonl_ref(prediction_records_ref(preds, labels, UNIFORM))
    assert (tmp_path / "predictions.jsonl").read_text(encoding="utf-8") == expected


def _k80_run(kind, per_sighting, grid):
    # K=80 takes fuse's log-space branch, which the K<=64 pins never reach.
    rng = np.random.default_rng(80)
    k, d = 80, 6
    model = PitsModel(W=rng.normal(size=(k, d)) * 2.0, b=rng.normal(size=k) * 0.1,
                      w_T=rng.normal(size=d) * 0.2, b_T=0.1, labels=tuple(range(k)),
                      input_kind="foreground", temperature_head_active=True)
    homes = rng.uniform(0.0, 10.0, size=(k, 2))
    state = make_state(tuple(range(k)), PriorConfig(kind=kind), homes,
                       rng.uniform(0.0, 60.0, size=k))
    obs = [make_obs(f"o{j:03d}", int(rng.integers(0, k)), float(rng.uniform(61.0, 400.0)),
                    Location(float(rng.uniform(0, 10)), float(rng.uniform(0, 10))),
                    fg=rng.normal(size=d))
           for j in range(70)]
    if per_sighting:
        preds = [p for o in (obs[i] for i in _stream_order(obs))
                 for p in sequential_infer(model, state, [o], grid=grid)]
    else:
        preds = sequential_infer(model, state, obs, grid=grid)
    digest = hashlib.sha256(np.array([p.predicted for p in preds]).tobytes())
    for p in preds:
        for field in ("posterior", "likelihood", "prior"):
            digest.update(getattr(p, field).tobytes())
    return digest.hexdigest(), state


# Recorded before the single-sighting path was reworked, for each math backend
# (see conftest.MATH_BACKENDS); a change that moves one bit of a K=80
# posterior, likelihood or prior fails here.
K80_DIGESTS = {
    "avx512": {
        UNIFORM: "758aadd0362db236c597d64d88a52eddddb861be44fb863b5e5ce9b0bbb8a6df",
        HOME_LOCATION: "d5f50fdbeb328b4196c8f7b2e66469414dd50f52930c72b6e3bea1fbd6ccbf64",
        MIGRATING_LOCATION: "7c3e4dcb0360341bf1dfb0c0030a11b29517968990f7552b0f1710002b0c1946",
        TIME_DECAY: "7516ea0191ca9bf3e6b7d641eb2a235e84bdff10a107dee3dba3fcb213054a60",
    },
    "avx2": {
        UNIFORM: "6b63659b23b5cd0895bd0551638d7ad5617d39222fe26694213b91c7a8d037d2",
        HOME_LOCATION: "82478c4547410bfaac5134b14cf2ad3dc5087b3bd71fae87d4e0211a96c7d9cd",
        MIGRATING_LOCATION: "2f435766f269fd0aa1f1d2fb41a68744a4bb987529c192f8d0851fd376a0f2d4",
        TIME_DECAY: "cfb656717a8acca3039beb97a98dde70d4be68c79333f4b5f39a6f5e2ce169ab",
    },
}


@pytest.mark.parametrize("kind", [UNIFORM, HOME_LOCATION, MIGRATING_LOCATION, TIME_DECAY])
def test_log_space_bits_are_pinned_whole_stream_and_per_sighting(kind, grid2x2):
    whole, whole_state = _k80_run(kind, False, grid2x2)
    single, single_state = _k80_run(kind, True, grid2x2)
    assert whole == single
    assert_pinned(K80_DIGESTS, kind, whole)
    assert np.array_equal(whole_state.anchors, single_state.anchors)


def _one_hot_model(k):
    # Logits 1000 apart: every likelihood is exactly one-hot, and T is exactly 1.
    return _plain_model(np.eye(k) * 1000.0)


def _sharp_stream(k):
    """Anchors 50 km apart under alpha=100 give one-hot migrating priors.
    Identity 0 starts far away; sightings 1, 2 and 4 look like it but sit at
    identity 1's or 2's anchor, so the two supports are disjoint there."""
    P, Q = Location(0.0, 0.0), Location(50.0, 0.0)
    anchors = np.array([[500.0, 500.0], [P.x, P.y], [Q.x, Q.y]]
                       + [[1000.0 + 10.0 * i, 1000.0] for i in range(k - 3)])
    state = make_state(tuple(range(k)), PriorConfig(kind=MIGRATING_LOCATION, alpha=100.0), anchors)
    fg = [np.eye(k)[i] for i in (0, 0, 1, 0, 0)]
    obs = [make_obs(f"s{j}", 0, float(j + 1), loc, fg=x)
           for j, (loc, x) in enumerate(zip((P, Q, P, P, P), fg))]
    return state, obs


@pytest.mark.parametrize("k", [5, 80])
def test_per_sighting_lost_rows_fall_back_with_one_warning_each(k, grid2x2, caplog):
    state, obs = _sharp_stream(k)
    model = _one_hot_model(k)
    with caplog.at_level(logging.WARNING, logger="idfusion.fusion"):
        preds = [sequential_infer(model, state, [o], grid=grid2x2)[0] for o in obs]
    lost = [not np.any((p.likelihood > 0) & (p.prior > 0)) for p in preds]
    assert lost == [True, True, False, True, False]
    assert sum("lost all mass" in r.message for r in caplog.records) == 3
    for p, was_lost in zip(preds, lost):
        if was_lost:
            assert np.array_equal(p.posterior, p.likelihood / p.likelihood.sum())
    assert [p.predicted for p in preds] == [0, 0, 1, 0, 0]
    # The fallback winner still moves its anchor: identity 0 ends at P.
    assert tuple(state.anchors[0]) == (0.0, 0.0)


@pytest.mark.parametrize("k", [5, 80])
def test_per_sighting_zero_rate_prior_returns_the_likelihood(k, grid2x2, caplog):
    rng = np.random.default_rng(k)
    model = PitsModel(W=rng.normal(size=(k, 3)), b=rng.normal(size=k), w_T=rng.normal(size=3),
                      b_T=0.2, labels=tuple(range(k)), input_kind="foreground",
                      temperature_head_active=True)
    homes = rng.uniform(0.0, 10.0, size=(k, 2))
    state = make_state(tuple(range(k)), PriorConfig(kind=MIGRATING_LOCATION, alpha=0.0), homes)
    obs = [make_obs(f"z{j}", 0, float(j + 1),
                    Location(float(rng.uniform(0, 10)), float(rng.uniform(0, 10))),
                    fg=rng.normal(size=3))
           for j in range(6)]
    with caplog.at_level(logging.WARNING, logger="idfusion.fusion"):
        for o in obs:
            p = sequential_infer(model, state, [o], grid=grid2x2)[0]
            assert (p.prior == p.prior[0]).all()
            assert np.array_equal(p.posterior, p.likelihood / p.likelihood.sum())
    assert not caplog.records


@pytest.mark.parametrize("k", [5, 80])
def test_sequential_infer_restores_the_callers_error_state(k, grid2x2):
    # Lost rows take log(0) and 0/0; the call must neither raise on them under
    # the caller's "raise" nor leave its own error state behind, even when it raises.
    state, obs = _sharp_stream(k)
    model = _one_hot_model(k)
    with np.errstate(divide="raise", over="ignore", under="ignore", invalid="raise"):
        caller = np.geterr()
        for o in obs:
            sequential_infer(model, state, [o], grid=grid2x2)
            assert np.geterr() == caller
        # Logits overflow to inf, which the likelihood check refuses mid-call.
        huge = _plain_model(np.full((k, k), 1e300))
        with pytest.raises(ValueError, match="finite"):
            sequential_infer(huge, state, [make_obs("h", 0, 9.0, obs[0].location,
                                                    fg=np.full(k, 1e10))], grid=grid2x2)
        assert np.geterr() == caller


def _drafted_and_per_sighting(model, state_of, obs, forced_rows, grid, caplog):
    """One whole-stream call whose drafts are forced wrong at ``forced_rows`` of
    each block, and one call per sighting, which never drafts: each gives the
    predictions, the final state and the fallback warnings; the first also
    what the draft spy counted."""
    with caplog.at_level(logging.WARNING, logger="idfusion.fusion"):
        state = state_of()
        with draft_spy(forced_rows) as seen:
            drafted = (sequential_infer(model, state, obs, grid=grid), state, len(caplog.records))
        caplog.clear()
        state = state_of()
        single = [p for o in (obs[i] for i in _stream_order(obs))
                  for p in sequential_infer(model, state, [o], grid=grid)]
        return drafted, (single, state, len(caplog.records)), seen


def _assert_same_run(a, b):
    (preds_a, state_a, warnings_a), (preds_b, state_b, warnings_b) = a, b
    assert [(p.obs_id, p.predicted) for p in preds_a] == [(p.obs_id, p.predicted) for p in preds_b]
    for x, y in zip(preds_a, preds_b):
        assert x.temperature_used == y.temperature_used
        assert x.resolved_location == y.resolved_location
        for field in ("posterior", "likelihood", "prior"):
            assert np.array_equal(getattr(x, field), getattr(y, field)), (x.obs_id, field)
    assert np.array_equal(state_a.anchors, state_b.anchors)
    assert warnings_a == warnings_b


@pytest.mark.parametrize("forced_rows", [(0,), (13,), (BLOCK_ROWS - 1,), (5, 20)],
                         ids=["first", "middle", "last", "two-in-a-block"])
@pytest.mark.parametrize("kind", [MIGRATING_LOCATION, TIME_DECAY])
@pytest.mark.parametrize("k", [5, 80])
def test_a_wrong_draft_is_fused_again_from_the_row_after_the_miss(k, kind, forced_rows, grid2x2,
                                                                  caplog):
    # Two full blocks and a short one. A miss makes the rows up to it final and
    # drafts the rest of the block again, so each forced row before a block's
    # last takes one more verify pass; every bit stays that of one call per sighting.
    rng = np.random.default_rng(k)
    d, n = 4, 2 * BLOCK_ROWS + 6
    model = PitsModel(W=rng.normal(size=(k, d)) * 2.0, b=rng.normal(size=k) * 0.1,
                      w_T=rng.normal(size=d) * 0.2, b_T=0.1, labels=tuple(range(k)),
                      input_kind="foreground", temperature_head_active=True)
    homes, last_seen = rng.uniform(0.0, 10.0, (k, 2)), rng.uniform(0.0, 60.0, k)
    obs = [make_obs(f"o{j:03d}", 0, 61.0 + j, Location(*rng.uniform(0.0, 10.0, 2).tolist()),
                    fg=rng.normal(size=d))
           for j in range(n)]

    def state_of():
        return make_state(model.labels, PriorConfig(kind=kind), homes, last_seen)

    drafted, single, seen = _drafted_and_per_sighting(model, state_of, obs, forced_rows, grid2x2,
                                                      caplog)
    _assert_same_run(drafted, single)
    blocks = [min(BLOCK_ROWS, n - start) for start in range(0, n, BLOCK_ROWS)]
    redrafts = sum(row < size - 1 for size in blocks for row in forced_rows)
    assert seen["passes"] == len(blocks) + redrafts


@pytest.mark.parametrize("forced_rows", [(0,), (0, 2)])
@pytest.mark.parametrize("k", [5, 80])
def test_rows_fused_after_a_draft_miss_warn_only_once_final(k, forced_rows, grid2x2, caplog):
    # _sharp_stream's sightings 0, 1 and 3 lose all their mass. After a miss
    # at sighting 0, sightings 1 and 3 are fused on a wrong state first, then
    # again; only the fusion that keeps a row may warn, so the stream still
    # warns 3 times.
    model = _one_hot_model(k)
    drafted, single, seen = _drafted_and_per_sighting(
        model, lambda: _sharp_stream(k)[0], _sharp_stream(k)[1], forced_rows, grid2x2, caplog)
    _assert_same_run(drafted, single)
    assert single[2] == 3
    assert seen["passes"] == 1 + len(forced_rows)


@pytest.fixture(scope="module")
def lynx_run():
    ds = generate(lynx_like(0))
    catalog = build_catalog(ds)
    return ds, catalog, train(ds, catalog, TrainConfig(learning_rate=1e-2, batch_size=8))


@pytest.mark.parametrize("kind", [MIGRATING_LOCATION, TIME_DECAY])
def test_every_block_of_a_lynx_stream_takes_one_verify_pass(kind, lynx_run):
    # A draft that missed every row would keep every bit but fuse up to
    # n(n+1)/2 rows per block of n. On the paper-scale preset, trained as the
    # benchmark trains it, no draft misses.
    ds, catalog, model = lynx_run
    state = init_state(catalog, PriorConfig(kind=kind, cell_size_km=ds.grid.cell_size_km))
    with draft_spy() as seen:
        sequential_infer(model, state, ds.test, ds.grid)
    blocks = -(-len(ds.test) // BLOCK_ROWS)
    assert seen["passes"] == blocks and seen["drafts"] == blocks - (len(ds.test) % BLOCK_ROWS == 1)


@pytest.fixture(scope="module")
def lynx_background(lynx_run):
    ds = lynx_run[0]
    return train_background_model(ds, ds.grid, TrainConfig(learning_rate=1e-2, batch_size=8, seed=1))


PRIOR_KINDS = (UNIFORM, HOME_LOCATION, MIGRATING_LOCATION, TIME_DECAY)


def test_priors_over_one_test_tuple_share_one_likelihood_pass(lynx_run):
    # The likelihood never reads the prior, so every prior over one tuple of
    # observations reads the blocks its first call scored; a list, or a model
    # made anew with replace, scores its own.
    ds, catalog, trained = lynx_run
    model = replace(trained)
    blocks = -(-len(ds.test) // BLOCK_ROWS)

    def run(model, observations, kind=MIGRATING_LOCATION):
        state = init_state(catalog, PriorConfig(kind=kind, cell_size_km=ds.grid.cell_size_km))
        return sequential_infer(model, state, observations, ds.grid)

    with draft_spy() as seen:
        runs = [run(model, ds.test, kind) for kind in PRIOR_KINDS]
    assert seen["forwards"] == blocks
    for preds in runs[1:]:
        assert all(p.likelihood.base is q.likelihood.base for p, q in zip(runs[0], preds))
    listed = list(ds.test)
    with draft_spy() as seen:
        run(model, listed)
        run(model, listed)
        run(replace(model), ds.test)
    assert seen["forwards"] == 3 * blocks
    with draft_spy() as seen:
        run(model, ds.test)
    assert seen["forwards"] == 0


@pytest.mark.parametrize("source", ["metadata", "background_model"])
@pytest.mark.parametrize("kind", PRIOR_KINDS)
def test_interleaved_tuples_give_the_bits_of_a_fresh_model_per_call(kind, source, lynx_run,
                                                                    lynx_background, caplog):
    ds, catalog, trained = lynx_run
    model = replace(trained)
    config = PriorConfig(kind=kind, location_source=source, cell_size_km=ds.grid.cell_size_km)
    background = lynx_background if source == "background_model" else None

    def run(model, observations):
        state = init_state(catalog, config)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="idfusion.fusion"):
            preds = sequential_infer(model, state, observations, ds.grid, background)
        return preds, state, len(caplog.records)

    a, b = ds.test, tuple(ds.test[1::3])
    for observations in (a, a, b, a):
        _assert_same_run(run(model, observations), run(replace(model), observations))


def test_a_memoized_likelihood_is_read_only(lynx_run):
    ds, catalog, trained = lynx_run
    model = replace(trained)
    for _ in range(2):
        state = init_state(catalog, PriorConfig(kind=UNIFORM))
        pred = sequential_infer(model, state, ds.test, ds.grid)[-1]
        with pytest.raises(ValueError, match="read-only"):
            pred.likelihood[0] = 1.0


@pytest.mark.parametrize("wrap", [list, tuple])
def test_a_bad_temperature_anywhere_raises_before_any_state_write(wrap, grid2x2):
    # The stream's last block holds a sighting whose temperature overflows:
    # the call raises before the blocks ahead of it write their winners.
    rng = np.random.default_rng(7)
    k, d, n = 5, 3, 2 * BLOCK_ROWS + 5
    model = PitsModel(W=rng.normal(size=(k, d)), b=np.zeros(k), w_T=np.array([1e300, 0.0, 0.0]),
                      b_T=0.0, labels=tuple(range(k)), input_kind="foreground",
                      temperature_head_active=True)
    homes = rng.uniform(0.0, 10.0, size=(k, 2))
    fg = np.hstack([np.zeros((n, 1)), rng.normal(size=(n, d - 1))])
    fg[-1, 0] = 1e10
    obs = wrap(make_obs(f"o{j:03d}", 0, 61.0 + j, Location(*rng.uniform(0.0, 10.0, 2).tolist()),
                        fg=fg[j])
               for j in range(n))
    for kind in (MIGRATING_LOCATION, TIME_DECAY):
        state = make_state(model.labels, PriorConfig(kind=kind), homes)
        start = state.anchors.copy()
        with np.errstate(over="ignore"), \
                pytest.raises(ValueError, match="temperature must be positive and finite"):
            sequential_infer(model, state, obs, grid=grid2x2)
        assert np.array_equal(state.anchors, start)
    assert model._scored is None


def test_a_memoized_replay_stores_two_arrays_per_block_not_three(grid2x2):
    # A call over a memoized tuple keeps only its posteriors and priors: the
    # likelihood rows are the memo's. tracemalloc sees numpy's data buffers.
    rng = np.random.default_rng(3)
    k, d, n = 500, 3, 4 * BLOCK_ROWS
    model = _plain_model(rng.normal(size=(k, d)))
    obs = tuple(make_obs(f"o{j:03d}", 0, 61.0 + j, Location(*rng.uniform(0.0, 10.0, 2).tolist()),
                         fg=rng.normal(size=d))
                for j in range(n))
    store = n * k * 8

    def held():
        state = make_state(model.labels, PriorConfig(kind=TIME_DECAY))
        tracemalloc.start()
        try:
            preds = sequential_infer(model, state, obs, grid=grid2x2)
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    first, memoized = held(), held()
    assert first > 3 * store
    assert 2 * store < memoized < 2.5 * store
