"""Spatial and temporal priors: shapes, worked values, update semantics, and the
capture locations they read from metadata or a background location model."""

import math
from dataclasses import replace

import numpy as np
import pytest

from idfusion.classifier import PitsModel, TrainConfig, train, train_background_model
from idfusion.data import GridSpec, Location, build_catalog
from idfusion.errors import ConfigError
from idfusion.fusion import BLOCK_ROWS, sequential_infer
from idfusion.priors import (
    HOME_LOCATION,
    MIGRATING_LOCATION,
    PRIOR_KINDS,
    TIME_DECAY,
    UNIFORM,
    PriorConfig,
    PriorState,
    init_state,
    prior_rows,
    resolve_location,
    resolve_locations,
    update_last_seen,
    update_location,
)
from idfusion.simulate import SimConfig, generate

from conftest import make_obs, make_state, tiny_dataset
from oracles import cell_center_ref


def _random_state(rng, k=6, kind=UNIFORM, **cfg):
    homes = rng.uniform(0.0, 30.0, size=(k, 2))
    moved = homes + rng.normal(0.0, 3.0, size=(k, 2))
    last_seen = rng.uniform(0.0, 400.0, size=k)
    return make_state(tuple(range(k)), PriorConfig(kind=kind, **cfg),
                      moved if kind == MIGRATING_LOCATION else homes, last_seen)


def _prior(state, loc=Location(0.0, 0.0), t=1.0):
    # The state's prior at one sighting.
    return prior_rows(state, np.array([loc.x, loc.y]), t)


def test_prior_config_validation():
    with pytest.raises(ConfigError):
        PriorConfig(kind="spatial")
    with pytest.raises(ConfigError):
        PriorConfig(location_source="oracle")
    with pytest.raises(ConfigError):
        PriorConfig(alpha=-1.0)
    with pytest.raises(ConfigError):
        PriorConfig(beta=math.inf)
    # A run fuses one prior kind, with distances in grid cells.
    for unit in ("km", "miles"):
        with pytest.raises(ConfigError) as exc:
            PriorConfig(distance_unit=unit)
        assert str(exc.value) == f"distance_unit must be 'cells', got {unit!r}"
    for extras in ((TIME_DECAY,), (UNIFORM,)):
        with pytest.raises(ConfigError) as exc:
            PriorConfig(kind=HOME_LOCATION, combine_with=extras)
        assert str(exc.value) == f"combine_with must be empty, got {list(extras)!r}"


def test_prior_config_replace_round_trip():
    base = PriorConfig(kind=HOME_LOCATION, alpha=1.0)
    changed = replace(base, alpha=4.0)
    assert changed.alpha == 4.0
    assert changed.kind == HOME_LOCATION
    assert PriorConfig(**base.to_dict()) == base


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("kind, shape", [(HOME_LOCATION, (3, 2)), (MIGRATING_LOCATION, (3, 2)),
                                         (TIME_DECAY, (3,))])
def test_prior_state_rejects_a_non_finite_entry(kind, shape, value):
    # A NaN anchor or clock would make every fused posterior NaN, and each
    # argmax label 0, without a word.
    anchors = np.zeros(shape)
    anchors.flat[1] = value
    with pytest.raises(ValueError, match=f"^the {kind} prior's anchors must be finite"):
        PriorState(labels=(0, 1, 2), anchors=anchors, config=PriorConfig(kind=kind))


@pytest.mark.parametrize("kind, shape", [(UNIFORM, (3,)), (HOME_LOCATION, (2, 2)),
                                         (MIGRATING_LOCATION, (3, 3)), (TIME_DECAY, (3, 2))])
def test_prior_state_names_the_anchor_shape_its_prior_reads(kind, shape):
    # Times for the time prior, locations for the others, one per label.
    want = (3,) if kind == TIME_DECAY else (3, 2)
    with pytest.raises(ValueError) as exc:
        PriorState(labels=(0, 1, 2), anchors=np.zeros(shape), config=PriorConfig(kind=kind))
    assert str(exc.value) == (f"the {kind} prior's anchors must be finite and of shape {want},"
                              f" got shape {shape}")


@pytest.mark.parametrize("labels, message", [
    ((0, 1.0, -1), "prior state: label must be an integer, got 1.0"),
    ((0, -1, 1.5), "prior state: label -1 is negative"),
    ((2, 0, 2, -1), "prior state: label 2 is repeated"),
])
def test_prior_state_names_the_first_bad_label(labels, message):
    with pytest.raises(ValueError) as exc:
        make_state(labels, PriorConfig())
    assert str(exc.value) == message


def test_prior_state_stores_its_labels_as_a_tuple_of_ints():
    state = make_state([np.int64(3), True, 0], PriorConfig())
    assert state.labels == (3, 1, 0) and all(type(k) is int for k in state.labels)


@pytest.mark.parametrize("kind", PRIOR_KINDS)
def test_every_prior_normalizes(kind):
    rng = np.random.default_rng(17)
    for trial in range(25):
        state = _random_state(rng, k=int(rng.integers(2, 40)), kind=kind)
        obs_loc = Location(float(rng.uniform(0, 30)), float(rng.uniform(0, 30)))
        t = float(rng.uniform(0.0, 500.0))
        p = prior_rows(state, np.array([obs_loc.x, obs_loc.y]), t)
        assert p.shape == (len(state.labels),)
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(p >= 0)


def test_home_prior_two_identity_worked_values():
    # Homes at the origin and 5 km away; with 5 km cells that is exactly one
    # cell of separation, so the far identity carries weight e^-2.5.
    state = make_state((0, 1), PriorConfig(kind=HOME_LOCATION, alpha=2.5, cell_size_km=5.0),
                       homes=[[0.0, 0.0], [3.0, 4.0]])
    p = prior_rows(state, np.array([0.0, 0.0]), 0.0)
    assert p[0] == pytest.approx(0.9241, abs=1e-4)
    assert p[1] == pytest.approx(0.0759, abs=1e-4)


def test_zero_decay_constants_flatten_priors():
    rng = np.random.default_rng(31)
    home = _random_state(rng, kind=HOME_LOCATION, alpha=0.0)
    assert np.allclose(_prior(home, Location(10.0, 10.0)), 1.0 / 6.0, atol=1e-15)
    time = _random_state(rng, kind=TIME_DECAY, beta=0.0)
    assert np.allclose(_prior(time, t=100.0), 1.0 / 6.0, atol=1e-15)


@pytest.mark.parametrize("kind", PRIOR_KINDS)
def test_init_state_anchors_at_homes_and_last_train_times(grid2x2, kind):
    catalog = build_catalog(tiny_dataset(grid2x2))
    state = init_state(catalog, PriorConfig(kind=kind))
    assert state.labels == catalog.identities
    for k, anchor in zip(state.labels, state.anchors.tolist()):
        home = catalog.home_locations[k]
        assert anchor == (catalog.last_train_time[k] if kind == TIME_DECAY else [home.x, home.y])


def test_updates_touch_only_their_row():
    rng = np.random.default_rng(5)
    state = _random_state(rng, kind=MIGRATING_LOCATION)
    before = state.anchors.copy()
    update_location(state, 3, Location(99.0, -1.0))
    assert tuple(state.anchors[3]) == (99.0, -1.0)
    others = [i for i in range(6) if i != 3]
    assert np.array_equal(state.anchors[others], before[others])

    state = _random_state(rng, kind=TIME_DECAY)
    before = state.anchors.copy()
    update_last_seen(state, 2, 777.0)
    assert state.anchors[2] == 777.0
    assert np.array_equal(state.anchors[[0, 1, 3, 4, 5]], before[[0, 1, 3, 4, 5]])


@pytest.mark.parametrize("update, value", [(update_location, Location(1.0, 2.0)),
                                           (update_last_seen, 777.0)])
def test_an_update_rejects_another_priors_state(update, value):
    # A home prior's anchors are (K, 2) homes: a time written there would
    # broadcast over a home's x and y.
    state = _random_state(np.random.default_rng(5), kind=HOME_LOCATION)
    before = state.anchors.copy()
    with pytest.raises(ValueError, match=f"^{update.__name__} writes a .* not a {HOME_LOCATION} one$"):
        update(state, 2, value)
    assert np.array_equal(state.anchors, before)


def test_migrating_prior_follows_updates():
    config = PriorConfig(kind=MIGRATING_LOCATION, alpha=2.5, cell_size_km=5.0)
    state = make_state((0, 1), config, homes=[[0.0, 0.0], [20.0, 20.0]])
    query = Location(20.0, 20.0)
    assert _prior(state, query)[1] > 0.99
    update_location(state, 0, query)
    p = _prior(state, query)
    assert np.allclose(p, 0.5, atol=1e-15)


def test_time_decay_orders_by_recency():
    state = make_state((0, 1, 2, 3), PriorConfig(kind=TIME_DECAY, beta=3.0),
                       last_seen=[100.0, 70.0, 40.0, 10.0])
    p = _prior(state, t=100.0)
    assert p[0] > p[1] > p[2] > p[3]
    # Equal gaps on either side of t weigh the same.
    sym = _prior(state, t=55.0)
    assert sym[1] == pytest.approx(sym[2], abs=1e-15)


def _cell_model(W, input_kind="background", labels=None):
    """A background location model: a PitsModel over cells 0 .. len(W) - 1."""
    W = np.asarray(W, dtype=np.float64)
    return PitsModel(W=W, b=np.zeros(W.shape[0]), w_T=np.zeros(W.shape[1]), b_T=0.0,
                     labels=tuple(range(W.shape[0])) if labels is None else labels,
                     input_kind=input_kind, temperature_head_active=False)


FROM_BACKGROUND = PriorConfig(kind=HOME_LOCATION, location_source="background_model")


def test_resolve_location_modes(grid2x2):
    obs = make_obs("a", 0, 1.0, cell_center_ref(grid2x2, 3), bg=[0.0, 1.0])
    meta = PriorConfig(kind=HOME_LOCATION, location_source="metadata")
    assert resolve_location(obs, meta) == obs.location

    bg_model = _cell_model([[5.0, 0.0], [0.0, 5.0], [0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ConfigError):
        resolve_location(obs, FROM_BACKGROUND)
    with pytest.raises(ConfigError):
        resolve_location(obs, FROM_BACKGROUND, background_model=bg_model)
    got = resolve_location(obs, FROM_BACKGROUND, background_model=bg_model, grid=grid2x2)
    assert got == cell_center_ref(grid2x2, 1)


def test_background_location_one_hot_scores(grid2x2):
    model = _cell_model(4.0 * np.eye(4))
    for c in range(4):
        obs = make_obs("a", 0, 1.0, cell_center_ref(grid2x2, 0), bg=np.eye(4)[c])
        assert resolve_location(obs, FROM_BACKGROUND, model, grid2x2) == cell_center_ref(grid2x2, c)
    # All-zero scores tie; the lowest cell index wins.
    obs = make_obs("a", 0, 1.0, cell_center_ref(grid2x2, 3), bg=np.zeros(4))
    assert resolve_location(obs, FROM_BACKGROUND, model, grid2x2) == cell_center_ref(grid2x2, 0)


def test_background_location_rejects_wrong_dims_and_grid(grid2x2):
    model = _cell_model(np.eye(4))
    with pytest.raises(ValueError, match=r"expected inputs of shape \(n, 4\)"):
        resolve_location(make_obs("a", 0, 1.0, cell_center_ref(grid2x2, 0), bg=np.zeros(3)),
                         FROM_BACKGROUND, model, grid2x2)
    wrong_grid = GridSpec(origin=Location(0.0, 0.0), cell_size_km=5.0, n_cells_x=3, n_cells_y=3)
    obs = make_obs("a", 0, 1.0, cell_center_ref(wrong_grid, 0), bg=np.zeros(4))
    with pytest.raises(ConfigError, match="grid's 9 cells"):
        resolve_location(obs, FROM_BACKGROUND, model, wrong_grid)


@pytest.mark.parametrize("input_kind, labels", [("foreground", None), ("whole", None),
                                                ("background", (0, 1, 2, 4))],
                         ids=["foreground", "whole", "other-labels"])
def test_identity_model_is_no_background_model(grid2x2, input_kind, labels):
    # An identity model scores labels, not cells: used as the background
    # model it fails at once rather than reading labels as cell indices.
    model = _cell_model(np.eye(4), input_kind=input_kind, labels=labels)
    obs = make_obs("a", 0, 1.0, cell_center_ref(grid2x2, 0), bg=np.ones(4), fg=np.ones(4))
    with pytest.raises(ConfigError, match="background model must score the grid's 4 cells"):
        resolve_location(obs, FROM_BACKGROUND, model, grid2x2)
    state = init_state(build_catalog(tiny_dataset(grid2x2)), FROM_BACKGROUND)
    identities = _cell_model(np.eye(2, 4), input_kind="foreground")
    with pytest.raises(ConfigError, match="background model must score"):
        sequential_infer(identities, state, [obs], grid2x2, model)


def test_a_block_resolves_as_one_call_per_sighting():
    grid = GridSpec(origin=Location(0.0, 0.0), cell_size_km=5.0, n_cells_x=3, n_cells_y=3)
    ds = generate(SimConfig(n_identities=8, feature_dim=8, bg_feature_dim=16, grid=grid,
                            bg_cell_signal=1.0, obs_rate=40.0, duration_days=365.0, seed=5))
    bg = train_background_model(ds, grid, TrainConfig(epochs=20, learning_rate=0.1))
    config = replace(FROM_BACKGROUND, kind=MIGRATING_LOCATION)
    single = [resolve_location(o, config, bg, grid) for o in ds.test]
    assert resolve_locations(ds.test, config, bg, grid) == single
    assert len(set(single)) > 1
    # sequential_infer resolves a block at a time; one call per sighting
    # resolves, and so moves the migrating prior's anchors, alike.
    catalog = build_catalog(ds)
    model = train(ds, catalog, TrainConfig(epochs=2))
    whole = sequential_infer(model, init_state(catalog, config), ds.test, grid, bg)
    state = init_state(catalog, config)
    apart = [p for o in sorted(ds.test, key=lambda o: (o.timestamp, o.obs_id))
             for p in sequential_infer(model, state, [o], grid, bg)]
    assert len(ds.test) > 2 * BLOCK_ROWS
    assert [(p.obs_id, p.predicted, p.resolved_location) for p in whole] == \
        [(p.obs_id, p.predicted, p.resolved_location) for p in apart]
    by_id = dict(zip((o.obs_id for o in ds.test), single))
    assert [p.resolved_location for p in whole] == [by_id[p.obs_id] for p in whole]
