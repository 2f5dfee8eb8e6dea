"""Synthetic population generator: determinism and knob semantics."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from idfusion.data import (
    OBSERVATIONS_FILENAME,
    SIDECAR_FILENAME,
    Dataset,
    GridSpec,
    Location,
    save_dataset,
)
from idfusion.errors import ConfigError
from idfusion.simulate import (
    PRESETS,
    SimConfig,
    generate,
    lynx_like,
    turtle_like,
    zipf_weights,
)

from oracles import cell_center_ref, cell_index_ref


def _grid(nx=3, ny=3):
    return GridSpec(origin=Location(0.0, 0.0), cell_size_km=5.0, n_cells_x=nx, n_cells_y=ny)


_BASE = dict(
    n_identities=10,
    feature_dim=6,
    bg_feature_dim=4,
    grid=_grid(),
    obs_rate=15.0,
    duration_days=365.0,
    seed=2,
)


def test_generate_is_deterministic():
    a = generate(SimConfig(**_BASE))
    b = generate(SimConfig(**_BASE))
    assert len(a.observations) == len(b.observations)
    for oa, ob in zip(a.observations, b.observations):
        assert oa.obs_id == ob.obs_id
        assert oa.identity == ob.identity
        assert oa.timestamp == ob.timestamp
        assert oa.split == ob.split
        assert oa.location == ob.location
        assert np.array_equal(oa.fg_features, ob.fg_features)
        assert np.array_equal(oa.bg_features, ob.bg_features)


def test_generated_observations_hold_read_only_rows():
    ds = generate(SimConfig(**_BASE))
    for o in ds.observations:
        for features in (o.fg_features, o.bg_features):
            assert features.dtype == np.float64 and not features.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                features[0] = np.nan


def test_generate_respects_temporal_cutoff():
    ds = generate(SimConfig(**_BASE))
    assert ds.train and ds.test
    assert max(o.timestamp for o in ds.train) < min(o.timestamp for o in ds.test)
    assert {o.identity for o in ds.train} == set(range(ds.n_identities))


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_presets_generate_valid_datasets(name):
    ds = generate(PRESETS[name](seed=0))
    assert Dataset.from_observations(ds.observations, ds.grid) == ds
    assert {o.identity for o in ds.train} == set(range(ds.n_identities))
    identities = {o.identity for o in ds.observations}
    assert identities == set(range(len(identities)))


def test_preset_shapes():
    lynx = lynx_like(seed=4)
    assert lynx.grid.n_cells == 9
    assert lynx.migration_prob > 0
    assert lynx.seed == 4
    turtle = turtle_like(seed=7)
    # One shared site: coordinates must carry no identity information.
    assert turtle.grid.n_cells == 1
    assert turtle.bg_cell_signal == 0.0
    assert turtle.seasonal_bursts > 0


def test_zero_fg_noise_collapses_to_prototypes():
    ds = generate(SimConfig(**{**_BASE, "fg_noise": 0.0}))
    by_identity = {}
    for o in ds.observations:
        ref = by_identity.setdefault(o.identity, o.fg_features)
        assert np.array_equal(o.fg_features, ref)
    protos = list(by_identity.values())
    for i in range(len(protos)):
        for j in range(i + 1, len(protos)):
            assert not np.array_equal(protos[i], protos[j])


def test_full_bg_signal_is_pure_cell_signature():
    ds = generate(SimConfig(**{**_BASE, "bg_cell_signal": 1.0}))
    by_cell = {}
    for o in ds.observations:
        cell = cell_index_ref(ds.grid, o.location.x, o.location.y)
        ref = by_cell.setdefault(cell, o.bg_features)
        assert np.array_equal(o.bg_features, ref)


def test_sedentary_identities_never_leave_their_cell():
    # No jitter, no drift: every sighting sits exactly on one cell center.
    ds = generate(SimConfig(**{**_BASE, "home_range_cells": 0.0, "migration_prob": 0.0}))
    for k in range(10):
        locs = {o.location for o in ds.observations if o.identity == k}
        assert len(locs) == 1
        (only,) = locs
        assert only == cell_center_ref(ds.grid, cell_index_ref(ds.grid, only.x, only.y))


def test_drift_moves_homes_permanently():
    # With drift on and still no jitter, sightings stay on cell centers but
    # at least one identity occupies several cells over its lifetime.
    ds = generate(SimConfig(**{**_BASE, "home_range_cells": 0.0, "migration_prob": 0.5}))
    centers = {cell_center_ref(ds.grid, c) for c in range(ds.grid.n_cells)}
    assert {o.location for o in ds.observations} <= centers
    moved = 0
    for k in range(10):
        cells = {cell_index_ref(ds.grid, o.location.x, o.location.y)
                 for o in ds.observations if o.identity == k}
        moved += len(cells) > 1
    assert moved >= 5


def test_longtail_exponent_shapes_counts():
    flat = generate(SimConfig(**{**_BASE, "longtail_exponent": 0.0, "obs_rate": 40.0}))
    counts = np.bincount([o.identity for o in flat.observations], minlength=10)
    assert counts.max() / counts.min() < 2.5

    skewed = generate(SimConfig(**{**_BASE, "longtail_exponent": 2.0, "obs_rate": 40.0}))
    counts = np.bincount([o.identity for o in skewed.observations], minlength=10)
    assert counts.max() > 5 * np.median(counts)


def test_zipf_weights_normalize():
    w = zipf_weights(12, 1.3)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(w) < 0)
    assert np.allclose(zipf_weights(5, 0.0), 0.2, atol=1e-15)


def test_seasonal_sightings_share_one_block():
    config = SimConfig(
        **{**_BASE, "seasonal_bursts": 4, "season_duty": 0.25, "obs_rate": 30.0,
           "duration_days": 400.0, "cutoff_quantile": 0.8}
    )
    ds = generate(config)
    cycle = config.duration_days / config.seasonal_bursts
    active = cycle * config.season_duty
    residues = np.array([o.timestamp % cycle for o in ds.observations])
    # One population-wide phase: every capture falls inside the same
    # within-cycle window of width `active`.
    assert residues.max() - residues.min() <= active + 1e-6
    assert all(0 < o.timestamp <= config.duration_days for o in ds.observations)


def test_season_attendance_skips_cycles():
    config = SimConfig(
        **{**_BASE, "seasonal_bursts": 6, "season_duty": 0.3, "season_attendance": 0.3,
           "obs_rate": 40.0, "duration_days": 600.0, "cutoff_quantile": 0.8}
    )
    ds = generate(config)
    cycle = config.duration_days / config.seasonal_bursts
    attended = {}
    for o in ds.observations:
        attended.setdefault(o.identity, set()).add(int(o.timestamp // cycle))
    assert all(cycles for cycles in attended.values())
    assert any(len(cycles) < config.seasonal_bursts for cycles in attended.values())


def test_sim_config_validation():
    with pytest.raises(ConfigError):
        SimConfig(**{**_BASE, "n_identities": 1})
    with pytest.raises(ConfigError):
        SimConfig(**{**_BASE, "fg_noise": -1.0})
    with pytest.raises(ConfigError):
        SimConfig(**{**_BASE, "migration_prob": 1.5})
    with pytest.raises(ConfigError):
        SimConfig(**{**_BASE, "bg_cell_signal": -0.2})
    with pytest.raises(ConfigError):
        SimConfig(**{**_BASE, "cutoff_quantile": 1.0})
    with pytest.raises(ConfigError):
        SimConfig(**{**_BASE, "season_duty": 0.0})
    with pytest.raises(ConfigError):
        SimConfig(**{**_BASE, "season_attendance": 0.0})
    with pytest.raises(ConfigError):
        SimConfig(**{**_BASE, "obs_rate": 0.0})
    # numpy would reject it only in generate, naming no field.
    with pytest.raises(ConfigError, match="^seed must be non-negative$"):
        SimConfig(**{**_BASE, "seed": -1})


@pytest.mark.parametrize("name", ["n_identities", "feature_dim", "bg_feature_dim",
                                  "seasonal_bursts", "seed"])
def test_sim_config_integer_fields_are_ints(name):
    with pytest.raises(ConfigError, match=f"sim: {name} must be an integer, got 2.5"):
        SimConfig(**{**_BASE, name: 2.5})
    config = SimConfig(**{**_BASE, name: np.int64(3)})
    assert type(getattr(config, name)) is int and getattr(config, name) == 3


@pytest.mark.parametrize("obs_rate", [0.2, 0.5, 0.9])
def test_too_few_sightings_for_the_identities_is_a_config_error(obs_rate):
    # round(obs_rate * 5) < 5 would leave an identity with no sighting at all.
    with pytest.raises(ConfigError, match="every identity needs one"):
        SimConfig(**{**_BASE, "n_identities": 5, "obs_rate": obs_rate})
    SimConfig(**{**_BASE, "n_identities": 5, "obs_rate": 0.95})  # rounds to 5


def test_sim_config_dict_round_trip():
    config = turtle_like(seed=9)
    rebuilt = SimConfig.from_dict(config.to_dict())
    assert rebuilt == config
    assert rebuilt.grid == config.grid


# A K >= 100 population on a 10x10 grid with the default drift, so homes
# move and most cells hold sightings.
_POPULATION = SimConfig(
    n_identities=120, feature_dim=32, bg_feature_dim=24, grid=_grid(10, 10), obs_rate=10.0, seed=5
)

# sha256 of observations.jsonl and dataset.json as save_dataset writes each
# generated dataset. Simulation and writing may get faster, but any byte
# they move fails here.
SAVED_DIGESTS = {
    "lynx-0": (
        lynx_like(0),
        "c0d81574586e9388843319e7ff58dafa41d219089825537c9e3195f652789878",
        "bfffc3eb6f2ed459ca735b32ac170182f57a3facbb5bd8c3f8ec083119abbefa",
    ),
    "turtle-2": (
        turtle_like(2),
        "cf0328731bb7e0e69e269045f1aed5d52962a9977f5937b2dca7a0c3db22dea6",
        "f00767769673216c398ad0953b22ce0ce56decbcfa5c457033f9dfe0f10abd90",
    ),
    "population-5": (
        _POPULATION,
        "1c19293982376f6dcec6034085187bbda46f47ec453477c8e8fc89ff41813b10",
        "55995340e26cde2c7c78c91b3314f8fde7a59c640a3d9e28d57f1a2f9b2255ba",
    ),
}


@pytest.mark.parametrize("name", sorted(SAVED_DIGESTS))
def test_saved_dataset_bytes_are_pinned(tmp_path, name):
    config, observations_sha, sidecar_sha = SAVED_DIGESTS[name]
    save_dataset(generate(config), tmp_path)
    digest = lambda f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
    assert (digest(OBSERVATIONS_FILENAME), digest(SIDECAR_FILENAME)) == (observations_sha, sidecar_sha)


# Traced bytes at the peak of one generate(_POPULATION) call. Each observation
# holds a row of two dataset-wide feature matrices, and each identity's draws
# are freed once copied into them, so the peak is the finished dataset
# (about 1.24 MB) plus about one feature matrix's worth. Measured on
# numpy 2.4.6 and Python 3.11 this test reads 1.47 MB; a per-sighting
# generator that kept every draw alive while each observation took its own
# copy read 2.57 MB.
PEAK_BYTES_BOUND = 1_750_000


def test_generate_peak_memory_stays_bounded():
    generate(SimConfig(**_BASE))  # first-call allocations stay out of the trace
    tracemalloc.start()
    try:
        generate(_POPULATION)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < PEAK_BYTES_BOUND, peak
