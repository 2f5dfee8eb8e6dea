"""Spatial and temporal priors: shapes, worked values, update semantics."""

import math
from dataclasses import replace

import numpy as np
import pytest

from idfusion.classifier import BackgroundLocationModel
from idfusion.data import Location, build_catalog
from idfusion.errors import ConfigError
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
    prior_vector,
    resolve_location,
    update_last_seen,
    update_location,
)

from conftest import make_obs, tiny_dataset


def _random_state(rng, k=6, kind=UNIFORM, **cfg):
    config = PriorConfig(kind=kind, **cfg)
    homes = rng.uniform(0.0, 30.0, size=(k, 2))
    return PriorState(
        labels=tuple(range(k)),
        home_xy=homes,
        last_loc_xy=homes + rng.normal(0.0, 3.0, size=(k, 2)),
        last_seen=rng.uniform(0.0, 400.0, size=k),
        config=config,
    )


def _prior(state, kind, loc=Location(0.0, 0.0), t=1.0):
    # The prior of one kind alone, from ``state`` at one sighting.
    alone = replace(state, config=replace(state.config, kind=kind, combine_with=()))
    return prior_rows(alone, np.array([loc.x, loc.y]), t)


def test_prior_config_validation():
    with pytest.raises(ConfigError):
        PriorConfig(kind="spatial")
    with pytest.raises(ConfigError):
        PriorConfig(location_source="oracle")
    with pytest.raises(ConfigError):
        PriorConfig(distance_unit="miles")
    with pytest.raises(ConfigError):
        PriorConfig(alpha=-1.0)
    with pytest.raises(ConfigError):
        PriorConfig(beta=math.inf)
    with pytest.raises(ConfigError):
        PriorConfig(combine_with=(UNIFORM,))
    with pytest.raises(ConfigError):
        PriorConfig(kind=TIME_DECAY, combine_with=(TIME_DECAY,))


def test_prior_config_replace_round_trip():
    base = PriorConfig(kind=HOME_LOCATION, alpha=1.0)
    changed = replace(base, alpha=4.0, combine_with=[TIME_DECAY])
    assert changed.alpha == 4.0
    assert changed.combine_with == (TIME_DECAY,)
    assert changed.kind == HOME_LOCATION
    assert PriorConfig(**{**base.to_dict(), "combine_with": ()}) == base


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
    state = PriorState(
        labels=(0, 1),
        home_xy=np.array([[0.0, 0.0], [3.0, 4.0]]),
        last_loc_xy=np.array([[0.0, 0.0], [3.0, 4.0]]),
        last_seen=np.zeros(2),
        config=PriorConfig(kind=HOME_LOCATION, alpha=2.5, cell_size_km=5.0),
    )
    p = prior_rows(state, np.array([0.0, 0.0]), 0.0)
    assert p[0] == pytest.approx(0.9241, abs=1e-4)
    assert p[1] == pytest.approx(0.0759, abs=1e-4)


def test_zero_decay_constants_flatten_priors():
    rng = np.random.default_rng(31)
    state = _random_state(rng, kind=HOME_LOCATION, alpha=0.0, beta=0.0)
    loc = Location(10.0, 10.0)
    assert np.allclose(_prior(state, HOME_LOCATION, loc), 1.0 / 6.0, atol=1e-15)
    assert np.allclose(_prior(state, TIME_DECAY, t=100.0), 1.0 / 6.0, atol=1e-15)


def test_distance_units_are_interchangeable():
    # alpha per cell with 5 km cells must equal alpha/5 per km.
    rng = np.random.default_rng(41)
    in_cells = PriorConfig(kind=HOME_LOCATION, alpha=2.5, cell_size_km=5.0, distance_unit="cells")
    in_km = PriorConfig(kind=HOME_LOCATION, alpha=0.5, cell_size_km=5.0, distance_unit="km")
    homes = rng.uniform(0.0, 30.0, size=(8, 2))
    loc = Location(12.0, 7.0)
    args = dict(labels=tuple(range(8)), home_xy=homes, last_loc_xy=homes, last_seen=np.zeros(8))
    a = _prior(PriorState(config=in_cells, **args), HOME_LOCATION, loc)
    b = _prior(PriorState(config=in_km, **args), HOME_LOCATION, loc)
    assert np.allclose(a, b, atol=1e-12)


def test_init_state_anchors_at_homes_and_last_train_times(grid2x2):
    catalog = build_catalog(tiny_dataset(grid2x2))
    state = init_state(catalog, PriorConfig(kind=MIGRATING_LOCATION))
    assert np.array_equal(state.last_loc_xy, state.home_xy)
    for k in catalog.identities:
        assert state.last_seen[state.index_of(k)] == catalog.last_train_time[k]
        home = catalog.home_locations[k]
        assert tuple(state.home_xy[state.index_of(k)]) == (home.x, home.y)


def test_updates_touch_only_their_row():
    rng = np.random.default_rng(5)
    state = _random_state(rng, kind=MIGRATING_LOCATION)
    loc_before = state.last_loc_xy.copy()
    seen_before = state.last_seen.copy()
    homes_before = state.home_xy.copy()

    update_location(state, 3, Location(99.0, -1.0))
    assert tuple(state.last_loc_xy[3]) == (99.0, -1.0)
    others = [i for i in range(6) if i != 3]
    assert np.array_equal(state.last_loc_xy[others], loc_before[others])
    assert np.array_equal(state.last_seen, seen_before)
    # Homes are immutable reference points; only the moving anchor shifts.
    assert np.array_equal(state.home_xy, homes_before)

    update_last_seen(state, 2, 777.0)
    assert state.last_seen[2] == 777.0
    assert np.array_equal(state.last_seen[[0, 1, 3, 4, 5]], seen_before[[0, 1, 3, 4, 5]])
    assert np.array_equal(state.last_loc_xy[others], loc_before[others])


def test_migrating_prior_follows_updates():
    config = PriorConfig(kind=MIGRATING_LOCATION, alpha=2.5, cell_size_km=5.0)
    state = PriorState(
        labels=(0, 1),
        home_xy=np.array([[0.0, 0.0], [20.0, 20.0]]),
        last_loc_xy=np.array([[0.0, 0.0], [20.0, 20.0]]),
        last_seen=np.zeros(2),
        config=config,
    )
    query = Location(20.0, 20.0)
    assert _prior(state, MIGRATING_LOCATION, query)[1] > 0.99
    update_location(state, 0, query)
    p = _prior(state, MIGRATING_LOCATION, query)
    assert np.allclose(p, 0.5, atol=1e-15)
    # The static home prior is oblivious to the move.
    assert _prior(state, HOME_LOCATION, query)[1] > 0.99


def test_time_decay_orders_by_recency():
    state = PriorState(
        labels=(0, 1, 2, 3),
        home_xy=np.zeros((4, 2)),
        last_loc_xy=np.zeros((4, 2)),
        last_seen=np.array([100.0, 70.0, 40.0, 10.0]),
        config=PriorConfig(kind=TIME_DECAY, beta=3.0),
    )
    p = _prior(state, TIME_DECAY, t=100.0)
    assert p[0] > p[1] > p[2] > p[3]
    # Equal gaps on either side of t weigh the same.
    sym = _prior(state, TIME_DECAY, t=55.0)
    assert sym[1] == pytest.approx(sym[2], abs=1e-15)


def test_resolve_location_modes(grid2x2):
    obs = make_obs("a", 0, 1.0, grid2x2.cell_center(3), bg=[0.0, 1.0])
    meta = PriorConfig(kind=HOME_LOCATION, location_source="metadata")
    assert resolve_location(obs, meta) == obs.location

    from_bg = PriorConfig(kind=HOME_LOCATION, location_source="background_model")
    bg_model = BackgroundLocationModel(W=np.array([[5.0, 0.0], [0.0, 5.0], [0.0, 0.0], [0.0, 0.0]]), b=np.zeros(4))
    with pytest.raises(ConfigError):
        resolve_location(obs, from_bg)
    with pytest.raises(ConfigError):
        resolve_location(obs, from_bg, background_model=bg_model)
    got = resolve_location(obs, from_bg, background_model=bg_model, grid=grid2x2)
    assert got == grid2x2.cell_center(1)


def test_prior_vector_combines_by_product():
    rng = np.random.default_rng(13)
    combined_cfg = PriorConfig(kind=HOME_LOCATION, combine_with=(TIME_DECAY,))
    state = _random_state(rng, kind=HOME_LOCATION)
    state.config = combined_cfg
    obs = make_obs("a", 0, 150.0, Location(10.0, 10.0))

    p, used_loc = prior_vector(state, obs)
    assert used_loc == obs.location
    hl = _prior(state, HOME_LOCATION, obs.location)
    td = _prior(state, TIME_DECAY, t=obs.timestamp)
    want = hl * td
    want /= want.sum()
    assert np.allclose(p, want, atol=1e-12)
    assert abs(p.sum() - 1.0) < 1e-12

