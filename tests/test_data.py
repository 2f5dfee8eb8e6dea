import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from idfusion.data import (
    TEST,
    TRAIN,
    Dataset,
    GridSpec,
    IdentityCatalog,
    Location,
    Observation,
    _observations_from_rows,
    build_catalog,
    load_dataset,
    load_observations,
    save_dataset,
    save_observations,
    target_temperature,
    temporal_split,
    validate_dataset,
)
from idfusion.errors import ParseError, SchemaError, SplitError

from conftest import make_obs, tiny_dataset


def test_location_rejects_non_finite():
    with pytest.raises(ValueError):
        Location(float("nan"), 0.0)
    with pytest.raises(ValueError):
        Location(0.0, float("inf"))


def test_location_distance_is_euclidean():
    assert Location(0.0, 0.0).distance_to(Location(3.0, 4.0)) == pytest.approx(5.0)


def test_grid_cell_index_row_major(grid2x2):
    # Cells: 0 1 / 2 3 with row 0 at the origin edge.
    assert grid2x2.cell_index(Location(2.5, 2.5)) == 0
    assert grid2x2.cell_index(Location(7.5, 2.5)) == 1
    assert grid2x2.cell_index(Location(2.5, 7.5)) == 2
    assert grid2x2.cell_index(Location(7.5, 7.5)) == 3


def test_grid_far_boundary_belongs_to_last_cell(grid2x2):
    assert grid2x2.cell_index(Location(10.0, 10.0)) == 3
    assert grid2x2.cell_index(Location(0.0, 0.0)) == 0


def test_grid_cell_center_round_trips(grid2x2):
    for idx in range(grid2x2.n_cells):
        assert grid2x2.cell_index(grid2x2.cell_center(idx)) == idx


def test_grid_contains(grid2x2):
    assert grid2x2.contains(Location(5.0, 5.0))
    assert not grid2x2.contains(Location(-0.1, 5.0))
    assert not grid2x2.contains(Location(5.0, 10.1))


def test_observation_requires_positive_timestamp(grid2x2):
    with pytest.raises(ValueError):
        make_obs("x", 0, 0.0, grid2x2.cell_center(0))
    with pytest.raises(ValueError):
        make_obs("x", 0, -1.0, grid2x2.cell_center(0))


def test_observation_rejects_bad_split(grid2x2):
    with pytest.raises(ValueError):
        make_obs("x", 0, 1.0, grid2x2.cell_center(0), split="validation")


def test_observation_rejects_non_finite_features(grid2x2):
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            make_obs("x", 0, 1.0, grid2x2.cell_center(0), fg=[1.0, bad, 0.0])
        with pytest.raises(ValueError, match="finite"):
            make_obs("x", 0, 1.0, grid2x2.cell_center(0), bg=[bad, 0.0])


def test_observation_owns_read_only_copies_of_its_features(grid2x2):
    fg, bg = np.zeros(3), np.full(2, 0.5)
    o = Observation("x", 0, fg, bg, grid2x2.cell_center(0), 1.0)
    fg[0] = math.nan
    bg[1] = math.inf
    assert np.array_equal(o.fg_features, [0.0, 0.0, 0.0])
    assert np.array_equal(o.bg_features, [0.5, 0.5])
    for features in (o.fg_features, o.bg_features):
        assert features.dtype == np.float64 and not features.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            features[1] = math.inf
    assert np.isfinite(o.fg_features).all() and np.isfinite(o.bg_features).all()


def test_loaded_observations_have_read_only_features(tmp_path, grid2x2):
    path = tmp_path / "obs.jsonl"
    save_observations(tiny_dataset(grid2x2).observations, path)
    for o in load_observations(path):
        for features in (o.fg_features, o.bg_features):
            assert features.dtype == np.float64 and not features.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                features[0] = math.nan


def _rows_args(grid, **changes):
    args = dict(
        obs_ids=["a", "b"], identities=[0, 1], fg=np.zeros((2, 3)), bg=np.full((2, 2), 0.5),
        locations=[grid.cell_center(0)] * 2, timestamps=[1.0, 2.0], splits=[TRAIN, TEST],
    )
    return {**args, **changes}


def test_observations_from_rows_hold_read_only_rows(grid2x2):
    args = _rows_args(grid2x2)
    a, b = _observations_from_rows(**args)
    assert a == make_obs("a", 0, 1.0, grid2x2.cell_center(0), fg=np.zeros(3), split=TRAIN,
                         bg=np.full(2, 0.5))
    assert b.identity == 1 and b.split == TEST
    for m in (args["fg"], args["bg"]):
        assert not m.flags.writeable
    for features in (a.fg_features, b.bg_features):
        assert features.base is not None and not features.flags.writeable
        with pytest.raises(ValueError):
            features.setflags(write=True)


@pytest.mark.parametrize("changes, words", [
    (dict(fg=np.zeros(3)), "two-dimensional"),
    (dict(bg=np.array([[0.5, 0.5], [0.5, math.inf]])), "b: feature vectors must contain only finite"),
    (dict(fg=np.array([[math.nan, 0.0, 0.0], [0.0, 0.0, 0.0]])), "a: feature vectors"),
    (dict(identities=[0, -1]), "b: identity label must be non-negative"),
    (dict(timestamps=[1.0, 0.0]), "b: timestamp must be strictly positive"),
    (dict(splits=[TRAIN, "dev"]), "b: split must be"),
])
def test_observations_from_rows_checks_like_the_constructor(grid2x2, changes, words):
    with pytest.raises(ValueError, match=words):
        _observations_from_rows(**_rows_args(grid2x2, **changes))


def test_dataset_split_views(grid2x2):
    ds = tiny_dataset(grid2x2)
    assert len(ds.train) == 4
    assert len(ds.test) == 2
    assert ds.n_identities == 2
    assert ds.feature_dims == (3, 2)


def test_validate_passes_on_well_formed(grid2x2):
    validate_dataset(tiny_dataset(grid2x2), require_train_coverage=True)


def test_construction_rejects_out_of_grid(grid2x2):
    obs = [
        make_obs("a", 0, 1.0, grid2x2.cell_center(0), split="train"),
        make_obs("b", 1, 2.0, Location(50.0, 50.0), split="test"),
    ]
    with pytest.raises(SchemaError):
        Dataset.from_observations(obs, grid2x2)


def test_construction_rejects_gapped_labels(grid2x2):
    obs = [
        make_obs("a", 0, 1.0, grid2x2.cell_center(0), split="train"),
        make_obs("b", 2, 2.0, grid2x2.cell_center(1), split="train"),
    ]
    with pytest.raises(SchemaError):
        Dataset.from_observations(obs, grid2x2)


def test_construction_rejects_duplicate_obs_ids(grid2x2):
    obs = [
        make_obs("a", 0, 1.0, grid2x2.cell_center(0), split="train"),
        make_obs("b", 1, 2.0, grid2x2.cell_center(1), split="train"),
        make_obs("a", 1, 3.0, grid2x2.cell_center(1), split="test"),
    ]
    with pytest.raises(SchemaError, match="a: obs_id appears more than once"):
        Dataset.from_observations(obs, grid2x2)


def test_construction_rejects_missing_split(grid2x2):
    obs = [make_obs("a", 0, 1.0, grid2x2.cell_center(0))]
    with pytest.raises(SchemaError):
        Dataset.from_observations(obs, grid2x2)


def test_train_coverage_check_is_opt_in(grid2x2):
    obs = [
        make_obs("a", 0, 1.0, grid2x2.cell_center(0), split="train"),
        make_obs("b", 1, 2.0, grid2x2.cell_center(1), split="test"),
    ]
    ds = Dataset.from_observations(obs, grid2x2)
    assert ds.test_only_identities == frozenset({1})
    with pytest.raises(SchemaError):
        validate_dataset(ds, require_train_coverage=True)


def test_temporal_split_is_strict_before_cutoff(grid2x2):
    raw = [make_obs(f"o{i}", 0, float(i), grid2x2.cell_center(0)) for i in (1, 2, 3, 4)]
    ds = temporal_split(raw, 3.0, grid2x2)
    assert [o.obs_id for o in ds.train] == ["o1", "o2"]
    assert [o.obs_id for o in ds.test] == ["o3", "o4"]


def _traced_bytes(build):
    # Bytes tracemalloc still counts as allocated while build()'s result is alive.
    tracemalloc.start()
    try:
        kept = build()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_temporal_split_tags_copies_without_revalidating(grid2x2, monkeypatch):
    raw = [make_obs(f"o{i}", i % 2, float(i), grid2x2.cell_center(i % 4)) for i in range(1, 65)]
    replaced = lambda: [replace(o, split=TRAIN if o.timestamp < 30.0 else TEST) for o in raw]
    # Fields set in __init__ order keep the compact instance layout a constructed
    # Observation has; copying through __dict__ would also materialize each input's
    # dict, over 100 more bytes per observation.
    split_bytes = _traced_bytes(lambda: temporal_split(raw, 30.0, grid2x2))
    assert split_bytes <= 1.05 * _traced_bytes(lambda: Dataset.from_observations(replaced(), grid2x2))
    expected = replaced()
    # The inputs are already validated, so splitting must not validate them again.
    monkeypatch.setattr(Observation, "__post_init__", lambda self: pytest.fail("re-validated"))
    ds = temporal_split(raw, 30.0, grid2x2)
    assert all(o.split is None for o in raw)
    assert list(ds.observations) == expected


def test_temporal_split_rejects_empty_side(grid2x2):
    raw = [make_obs("o1", 0, 1.0, grid2x2.cell_center(0))]
    with pytest.raises(SplitError):
        temporal_split(raw, 0.5, grid2x2)
    with pytest.raises(SplitError):
        temporal_split(raw, 5.0, grid2x2)


def test_target_temperature_most_frequent_is_one():
    assert target_temperature(200, 200) == 1.0


def test_target_temperature_rare_identity_value():
    # 1 - ln(2/200) = 1 + ln(100)
    assert target_temperature(2, 200) == pytest.approx(1.0 + math.log(100.0), abs=1e-12)


def test_target_temperature_monotone_in_rarity():
    temps = [target_temperature(n, 100) for n in (100, 50, 10, 1)]
    assert temps == sorted(temps)
    assert all(t >= 1.0 for t in temps)


def test_catalog_counts_and_clock(grid2x2):
    cat = build_catalog(tiny_dataset(grid2x2))
    assert cat.counts == {0: 2, 1: 2}
    assert cat.last_train_time == {0: 2.0, 1: 4.0}
    assert cat.n_max == 2
    assert cat.target_temperatures[0] == 1.0
    assert cat.target_temperatures[1] == 1.0


def test_catalog_home_is_modal_cell(grid2x2):
    c0, c1 = grid2x2.cell_center(0), grid2x2.cell_center(1)
    obs = [
        make_obs("a", 0, 1.0, c1, split="train"),
        make_obs("b", 0, 2.0, c0, split="train"),
        make_obs("c", 0, 3.0, c0, split="train"),
        make_obs("d", 0, 4.0, c0, split="test"),
    ]
    cat = build_catalog(Dataset.from_observations(obs, grid2x2))
    assert cat.home_locations[0] == c0


def test_catalog_home_tie_breaks_to_lowest_cell(grid2x2):
    c0, c3 = grid2x2.cell_center(0), grid2x2.cell_center(3)
    obs = [
        make_obs("a", 0, 1.0, c3, split="train"),
        make_obs("b", 0, 2.0, c0, split="train"),
        make_obs("c", 0, 3.0, c0, split="test"),
    ]
    cat = build_catalog(Dataset.from_observations(obs, grid2x2))
    assert cat.home_locations[0] == c0


def test_catalog_counts_use_train_split_only(grid2x2):
    ds = tiny_dataset(grid2x2)
    cat = build_catalog(ds)
    assert sum(cat.counts.values()) == len(ds.train)


def test_observations_jsonl_round_trip(tmp_path, grid2x2):
    ds = tiny_dataset(grid2x2)
    path = tmp_path / "obs.jsonl"
    save_observations(ds.observations, path)
    back = load_observations(path)
    assert list(ds.observations) == back


def test_load_observations_reports_line_number(tmp_path):
    path = tmp_path / "obs.jsonl"
    path.write_text('{"bad json\n')
    with pytest.raises(ParseError) as err:
        load_observations(path)
    assert "line 1" in str(err.value)


def test_load_observations_rejects_dim_drift(tmp_path, grid2x2):
    ds = tiny_dataset(grid2x2)
    path = tmp_path / "obs.jsonl"
    save_observations(ds.observations, path)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[-1])
    rec["fg"] = rec["fg"] + [0.0]
    lines[-1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError):
        load_observations(path)


def test_dataset_directory_round_trip(tmp_path, grid2x2):
    ds = tiny_dataset(grid2x2)
    save_dataset(ds, tmp_path / "d", extra_meta={"note": "unit"})
    back = load_dataset(tmp_path / "d")
    assert back.grid == ds.grid
    assert back.n_identities == ds.n_identities
    assert list(back.observations) == list(ds.observations)


def test_dataset_sidecar_mentions_grid(tmp_path, grid2x2):
    save_dataset(tiny_dataset(grid2x2), tmp_path / "d")
    meta = json.loads((tmp_path / "d" / "dataset.json").read_text())
    assert meta["cell_size_km"] == 5.0
    assert meta["n_cells_x"] == 2
