import json
import math
import re
import resource
from pathlib import Path

import numpy as np
import pytest

from idfusion.data import (
    TEST,
    TRAIN,
    WRITE_ROWS,
    Dataset,
    GridSpec,
    IdentityCatalog,
    Location,
    Observation,
    _observations_from_rows,
    build_catalog,
    from_fields,
    load_dataset,
    read_json,
    read_jsonl,
    save_dataset,
    target_temperature,
)
from idfusion.errors import ConfigError, ParseError, SchemaError, SplitError
from idfusion.simulate import SimConfig, generate

from conftest import make_obs, tiny_dataset
from oracles import cell_center_ref, jsonl_ref, observation_record_ref


def test_location_rejects_non_finite():
    with pytest.raises(ValueError):
        Location(float("nan"), 0.0)
    with pytest.raises(ValueError):
        Location(0.0, float("inf"))


@pytest.mark.parametrize("cell_size", [5, True])
def test_a_grid_of_ints_or_bools_round_trips_as_floats(tmp_path, cell_size):
    # The grid holds each number as the type its sidecar reads back: an int
    # or a bool cell size, or an int origin, is a float, and a cell count an int.
    grid = GridSpec(origin=Location(0, 0), cell_size_km=cell_size, n_cells_x=np.int64(2), n_cells_y=2)
    as_floats = GridSpec(Location(0.0, 0.0), float(cell_size), 2, 2)
    assert list(map(type, (grid.origin.x, grid.cell_size_km, grid.n_cells_x))) == [float, float, int]
    ds = tiny_dataset(grid)
    save_dataset(ds, tmp_path / "given")
    save_dataset(tiny_dataset(as_floats), tmp_path / "floats")
    for name in ("dataset.json", "observations.jsonl"):
        assert (tmp_path / "given" / name).read_bytes() == (tmp_path / "floats" / name).read_bytes()
    back = load_dataset(tmp_path / "given")
    assert back.grid == grid and list(back.observations) == list(ds.observations)
    assert SimConfig.from_dict(SimConfig(grid=grid).to_dict()).grid == grid


@pytest.mark.parametrize("count", [2.5, 2.0, "2", None])
def test_grid_cell_counts_must_be_integers(count):
    with pytest.raises(ValueError, match=re.escape(f"grid: n_cells_y must be an integer, got {count!r}")):
        GridSpec(Location(0.0, 0.0), 5.0, 2, count)


def test_grid_cell_index_row_major(grid2x2):
    # Cells: 0 1 / 2 3 with row 0 at the origin edge.
    points = [(2.5, 2.5), (7.5, 2.5), (2.5, 7.5), (7.5, 7.5)]
    assert grid2x2.cell_indices(points).tolist() == [0, 1, 2, 3]


def test_grid_far_boundary_belongs_to_last_cell(grid2x2):
    assert grid2x2.cell_indices([(10.0, 10.0), (0.0, 0.0)]).tolist() == [3, 0]


def test_grid_cell_center_round_trips(grid2x2):
    cells = list(range(grid2x2.n_cells))
    assert grid2x2.cell_indices(grid2x2.cell_centers(cells)).tolist() == cells


def test_grid_contains(grid2x2):
    assert grid2x2.contains(Location(5.0, 5.0))
    assert not grid2x2.contains(Location(-0.1, 5.0))
    assert not grid2x2.contains(Location(5.0, 10.1))


def test_observation_requires_positive_timestamp(grid2x2):
    with pytest.raises(ValueError):
        make_obs("x", 0, 0.0, cell_center_ref(grid2x2, 0))
    with pytest.raises(ValueError):
        make_obs("x", 0, -1.0, cell_center_ref(grid2x2, 0))


def test_observation_stores_an_int_identity_and_a_float_timestamp(grid2x2):
    o = make_obs("x", np.int64(1), 3, cell_center_ref(grid2x2, 0))
    assert (type(o.identity), type(o.timestamp)) == (int, float)
    a, b = _observations_from_rows(**_rows_args(grid2x2, identities=np.array([0, 1]), timestamps=[1, 2]))
    assert [(type(o.identity), type(o.timestamp)) for o in (a, b)] == [(int, float)] * 2
    with pytest.raises(ValueError, match=r"^x: identity label must be an integer, got 1\.5$"):
        make_obs("x", 1.5, 1.0, cell_center_ref(grid2x2, 0))


def test_observation_rejects_bad_split(grid2x2):
    with pytest.raises(ValueError):
        make_obs("x", 0, 1.0, cell_center_ref(grid2x2, 0), split="validation")


def test_observation_rejects_non_finite_features(grid2x2):
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            make_obs("x", 0, 1.0, cell_center_ref(grid2x2, 0), fg=[1.0, bad, 0.0])
        with pytest.raises(ValueError, match="finite"):
            make_obs("x", 0, 1.0, cell_center_ref(grid2x2, 0), bg=[bad, 0.0])


def test_observation_owns_read_only_copies_of_its_features(grid2x2):
    fg, bg = np.zeros(3), np.full(2, 0.5)
    o = Observation("x", 0, fg, bg, cell_center_ref(grid2x2, 0), 1.0)
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
    save_dataset(tiny_dataset(grid2x2), tmp_path / "d")
    for o in load_dataset(tmp_path / "d").observations:
        for features in (o.fg_features, o.bg_features):
            assert features.dtype == np.float64 and not features.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                features[0] = math.nan


def _rows_args(grid, **changes):
    args = dict(
        obs_ids=["a", "b"], identities=[0, 1], fg=np.zeros((2, 3)), bg=np.full((2, 2), 0.5),
        locations=[cell_center_ref(grid, 0)] * 2, timestamps=[1.0, 2.0], splits=[TRAIN, TEST],
    )
    return {**args, **changes}


def test_observations_from_rows_hold_read_only_rows(grid2x2):
    args = _rows_args(grid2x2)
    a, b = _observations_from_rows(**args)
    assert a == make_obs("a", 0, 1.0, cell_center_ref(grid2x2, 0), fg=np.zeros(3), split=TRAIN,
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
    (dict(identities=[0, 1.5]), "b: identity label must be an integer, got 1.5"),
    (dict(timestamps=[1.0, 10**400]), "b: timestamp is an int too large for a float"),
])
def test_observations_from_rows_checks_like_the_constructor(grid2x2, changes, words):
    with pytest.raises(ValueError, match=words):
        _observations_from_rows(**_rows_args(grid2x2, **changes))


@pytest.mark.parametrize("build, words", [
    (lambda: Location(10**400, 0.0), "location x"),
    (lambda: Location(0.0, -10**400), "location y"),
    (lambda: make_obs("o7", 0, 10**400, Location(0.0, 0.0)), "o7: timestamp"),
    (lambda: GridSpec(Location(0.0, 0.0), cell_size_km=10**400), "cell_size_km"),
    (lambda: GridSpec(Location(0.0, 0.0), cell_size_km=-10**400), "cell_size_km"),
])
def test_an_int_past_a_doubles_range_is_a_value_error_naming_its_field(build, words):
    with pytest.raises(ValueError, match=f"^{words} is an int too large for a float$"):
        build()


def test_dataset_split_views(grid2x2):
    ds = tiny_dataset(grid2x2)
    assert len(ds.train) == 4
    assert len(ds.test) == 2
    assert ds.n_identities == 2


def test_validate_passes_on_well_formed(grid2x2):
    ds = tiny_dataset(grid2x2)
    assert Dataset.from_observations(ds.observations, ds.grid) == ds
    assert {o.identity for o in ds.train} == set(range(ds.n_identities))


def test_construction_rejects_out_of_grid(grid2x2):
    obs = [
        make_obs("a", 0, 1.0, cell_center_ref(grid2x2, 0), split="train"),
        make_obs("b", 1, 2.0, Location(50.0, 50.0), split="test"),
    ]
    with pytest.raises(SchemaError):
        Dataset.from_observations(obs, grid2x2)


def test_construction_rejects_gapped_labels(grid2x2):
    obs = [
        make_obs("a", 0, 1.0, cell_center_ref(grid2x2, 0), split="train"),
        make_obs("b", 2, 2.0, cell_center_ref(grid2x2, 1), split="train"),
    ]
    with pytest.raises(SchemaError, match=r"^identity labels are not contiguous; missing \[1\]$"):
        Dataset.from_observations(obs, grid2x2)


def test_a_huge_identity_label_fails_at_once(tmp_path, grid2x2):
    # Labels 0, 1 and 2**40 leave 2**40 - 2 labels missing; the check counts them
    # instead of building the set of all labels, and names only the first five.
    save_dataset(tiny_dataset(grid2x2), tmp_path / "d")
    path = tmp_path / "d" / "observations.jsonl"
    lines = path.read_text().splitlines()
    lines[2] = json.dumps({**json.loads(lines[2]), "identity": 2**40})
    path.write_text("\n".join(lines) + "\n")
    # Capped at 256 MB more address space, a check that builds the set fails
    # with MemoryError here instead of taking the host's memory.
    mapped = int(Path("/proc/self/statm").read_text().split()[0]) * resource.getpagesize()
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (mapped + 2**28, hard))
    try:
        with pytest.raises(SchemaError) as exc:
            load_dataset(tmp_path / "d")
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
    assert str(exc.value) == ("identity labels are not contiguous; missing [2, 3, 4, 5, 6]"
                              f" and {2**40 - 2 - 5} more")


def test_construction_rejects_duplicate_obs_ids(grid2x2):
    obs = [
        make_obs("a", 0, 1.0, cell_center_ref(grid2x2, 0), split="train"),
        make_obs("b", 1, 2.0, cell_center_ref(grid2x2, 1), split="train"),
        make_obs("a", 1, 3.0, cell_center_ref(grid2x2, 1), split="test"),
    ]
    with pytest.raises(SchemaError, match="a: obs_id appears more than once"):
        Dataset.from_observations(obs, grid2x2)


def test_construction_rejects_missing_split(grid2x2):
    obs = [make_obs("a", 0, 1.0, cell_center_ref(grid2x2, 0))]
    with pytest.raises(SchemaError):
        Dataset.from_observations(obs, grid2x2)


def test_construction_keeps_test_only_identities(grid2x2):
    obs = [
        make_obs("a", 0, 1.0, cell_center_ref(grid2x2, 0), split="train"),
        make_obs("b", 1, 2.0, cell_center_ref(grid2x2, 1), split="test"),
    ]
    ds = Dataset.from_observations(obs, grid2x2)
    assert ds.n_identities == 2
    assert {o.identity for o in ds.train} == {0}


def test_temporal_split_is_strict_before_cutoff():
    # Eleven sightings: the median cutoff is the sixth one's time, so that
    # sighting is the first test one.
    ds = generate(SimConfig(n_identities=2, feature_dim=2, bg_feature_dim=2, obs_rate=5.5,
                            cutoff_quantile=0.5))
    times = [o.timestamp for o in ds.observations]
    assert times[5] == float(np.quantile(times, 0.5))
    assert [o.split for o in ds.observations] == [TRAIN] * 5 + [TEST] * 6


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
    assert cat.target_temperatures[0] == 1.0
    assert cat.target_temperatures[1] == 1.0


def test_catalog_home_is_modal_cell(grid2x2):
    c0, c1 = cell_center_ref(grid2x2, 0), cell_center_ref(grid2x2, 1)
    obs = [
        make_obs("a", 0, 1.0, c1, split="train"),
        make_obs("b", 0, 2.0, c0, split="train"),
        make_obs("c", 0, 3.0, c0, split="train"),
        make_obs("d", 0, 4.0, c0, split="test"),
    ]
    cat = build_catalog(Dataset.from_observations(obs, grid2x2))
    assert cat.home_locations[0] == c0


def test_catalog_home_tie_breaks_to_lowest_cell(grid2x2):
    c0, c3 = cell_center_ref(grid2x2, 0), cell_center_ref(grid2x2, 3)
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
    save_dataset(ds, tmp_path / "d")
    lines = (tmp_path / "d" / "observations.jsonl").read_text().splitlines()
    assert [json.loads(line)["obs_id"] for line in lines] == [o.obs_id for o in ds.observations]
    assert list(load_dataset(tmp_path / "d").observations) == list(ds.observations)


# orjson writes repr's digits for 0 and magnitudes in [1e-4, 1e16); these sit on both
# sides of that range's edges, so some rows take orjson's text and some json's.
_EDGE_FEATURES = [1e-4, float(np.nextafter(1e-4, 0)), 1e16, float(np.nextafter(1e16, 0)), 5e-324,
                  2.2250738585072014e-308, -0.0, 0.0, 3.0, 0.1]


@pytest.mark.parametrize("n", [WRITE_ROWS - 1, WRITE_ROWS, WRITE_ROWS + 1])
def test_save_dataset_writes_the_json_text_of_each_record(tmp_path, grid2x2, n):
    edges = np.array(_EDGE_FEATURES + [-v for v in _EDGE_FEATURES])
    obs_ids = ["o{}", "\u00f8{}", "\ud800{}", 'q"\\\n{}']  # non-ASCII, a lone surrogate, escapes
    observations = [
        make_obs(obs_ids[i % 4].format(i), i % 3, i + 1 if i % 5 else i + 0.5, Location(i % 10, 2.5),
                 fg=np.roll(edges, i)[:4] if i % 2 else np.full(4, 0.5 + i),
                 bg=np.roll(edges, -i)[:3], split=(TRAIN, TEST, None)[i % 3])
        for i in range(n)
    ]
    # Built directly, so the observations without a split are written as they are.
    save_dataset(Dataset(tuple(observations), grid2x2, 3), tmp_path)
    expected = jsonl_ref(map(observation_record_ref, observations))
    assert (tmp_path / "observations.jsonl").read_bytes() == expected.encode("ascii")


def test_load_observations_reports_line_number(tmp_path, grid2x2):
    save_dataset(tiny_dataset(grid2x2), tmp_path / "d")
    path = tmp_path / "d" / "observations.jsonl"
    path.write_text(path.read_text() + '{"bad json\n')
    with pytest.raises(ParseError) as err:
        load_dataset(tmp_path / "d")
    assert "observations.jsonl: line 7" in str(err.value)


@pytest.mark.parametrize("key, value, words", [
    # orjson refuses NaN, so this line is read through json's fallback.
    ("fg", [0.25, float("nan"), 0.25], "feature vectors must contain only finite values"),
    ("identity", -1, "identity label must be non-negative"),
    ("t", 0.0, "timestamp must be strictly positive, got 0.0"),
    ("split", "val", "split must be 'train', 'test', or absent"),
])
def test_load_dataset_names_the_file_the_line_and_the_sighting(tmp_path, grid2x2, key, value, words):
    save_dataset(tiny_dataset(grid2x2), tmp_path / "d")
    path = tmp_path / "d" / "observations.jsonl"
    lines = path.read_text().splitlines()
    rec = json.loads(lines[2])
    rec[key] = value
    lines[2] = json.dumps(rec, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        load_dataset(tmp_path / "d")
    assert str(err.value) == f"{path}: line 3: {rec['obs_id']}: {words}"


def test_load_observations_rejects_dim_drift(tmp_path, grid2x2):
    ds = tiny_dataset(grid2x2)
    save_dataset(ds, tmp_path / "d")
    path = tmp_path / "d" / "observations.jsonl"
    lines = path.read_text().splitlines()
    rec = json.loads(lines[-1])
    rec["fg"] = rec["fg"] + [0.0]
    lines[-1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError, match="feature dims"):
        load_dataset(tmp_path / "d")


def test_dataset_directory_round_trip(tmp_path, grid2x2):
    ds = tiny_dataset(grid2x2)
    save_dataset(ds, tmp_path / "d", extra_meta={"note": "unit"})
    back = load_dataset(tmp_path / "d")
    assert back.grid == ds.grid
    assert back.n_identities == ds.n_identities
    assert list(back.observations) == list(ds.observations)


def test_load_dataset_skips_blank_lines(tmp_path, grid2x2):
    ds = tiny_dataset(grid2x2)
    save_dataset(ds, tmp_path / "d")
    path = tmp_path / "d" / "observations.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("\n" + "  \n".join(lines) + "\t\n", encoding="utf-8")
    assert list(load_dataset(tmp_path / "d").observations) == list(ds.observations)


def test_load_dataset_checks_the_sidecars_identity_count(tmp_path, grid2x2):
    save_dataset(tiny_dataset(grid2x2), tmp_path / "d")
    sidecar = tmp_path / "d" / "dataset.json"
    sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "n_identities": 3}))
    with pytest.raises(SchemaError) as exc:
        load_dataset(tmp_path / "d")
    assert str(exc.value) == f"{sidecar}: declares 3 identities but observations imply 2"


def test_a_dataset_needs_an_observation(grid2x2):
    with pytest.raises(SchemaError, match="^dataset must contain at least one observation$"):
        Dataset.from_observations([], grid2x2)


def test_a_catalog_needs_a_train_sighting(grid2x2):
    ds = Dataset.from_observations([make_obs("a", 0, 1.0, cell_center_ref(grid2x2, 0), split=TEST)],
                                   grid2x2)
    with pytest.raises(SplitError, match="^cannot build a catalog from an empty train split$"):
        build_catalog(ds)


@pytest.mark.parametrize("fg, bg", [(np.zeros((1, 3)), np.zeros(2)), (np.zeros(3), np.zeros((2, 1)))])
def test_observation_features_are_one_dimensional(grid2x2, fg, bg):
    with pytest.raises(ValueError, match="^a: feature vectors must be one-dimensional$"):
        make_obs("a", 0, 1.0, cell_center_ref(grid2x2, 0), fg=fg, bg=bg)


@pytest.mark.parametrize("value, name", [([], "list"), ("x", "str"), (None, "NoneType")])
def test_from_fields_names_a_value_that_is_no_object(value, name):
    with pytest.raises(ConfigError) as exc:
        from_fields(GridSpec, value, "grid section")
    assert str(exc.value) == f"grid section: expected a JSON object, got {name}"


def test_dataset_sidecar_mentions_grid(tmp_path, grid2x2):
    save_dataset(tiny_dataset(grid2x2), tmp_path / "d")
    meta = json.loads((tmp_path / "d" / "dataset.json").read_text())
    assert meta["cell_size_km"] == 5.0
    assert meta["n_cells_x"] == 2


@pytest.mark.parametrize("changes, words", [
    ({"n_cells_x": 3.9, "cell_size_km": "5"}, "cell_size_km must be float, got '5'"),
    ({"n_cells_x": 3.9}, "n_cells_x must be int, got 3.9"),
    ({"n_cells_y": True}, "n_cells_y must be int, got True"),
    ({"cell_size_km": False}, "cell_size_km must be float, got False"),
    ({"origin": [0.0, None]}, "origin must be tuple[float, float], got [0.0, None]"),
    ({"origin": [0.0]}, "origin must be tuple[float, float], got [0.0]"),
    ({"n_cells_x": 0}, "grid must have at least one cell per axis"),
])
def test_grid_from_sidecar_or_sim_config_checks_each_key(tmp_path, grid2x2, changes, words):
    # A dataset sidecar and a simulator config read a grid by one rule:
    # ints for cell counts, numbers but not booleans for the rest.
    save_dataset(tiny_dataset(grid2x2), tmp_path / "d")
    sidecar = tmp_path / "d" / "dataset.json"
    sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), **changes}))
    with pytest.raises(SchemaError) as exc:
        load_dataset(tmp_path / "d")
    assert str(exc.value) == f"{sidecar}: {words}"
    with pytest.raises(SchemaError) as exc:
        SimConfig.from_dict({"grid": {**grid2x2.to_dict(), **changes}})
    assert str(exc.value) == f"sim.grid: {words}"


_DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("text", [
    '{"a": NaN}', '{"a": Infinity}', '{"a": [-Infinity]}', '{"a": 1e400}', '{"a": -1e400}',
    '{"a": 1' + "0" * 400 + "}", '{"a": "\\ud800"}', '{"\\udfff": 1}',
    '{"a": ' + "9" * 5000 + "}", '{"a": NaN, "b": ' + _DEEP + "}",
], ids=["nan", "inf", "-inf", "1e400", "-1e400", "int-10**400", "lone-high-surrogate",
        "lone-low-surrogate-key", "int-5000-digits", "nan-and-deep"])
def test_what_orjson_refuses_reads_as_json_reads_it(tmp_path, text):
    # Each reader gives json's value or json's message, so NaN still reaches the
    # config's finiteness check and a 5,000-digit integer still names the digit limit.
    whole, lines = tmp_path / "x.json", tmp_path / "x.jsonl"
    whole.write_text(text, encoding="utf-8")
    lines.write_text("{}\n" + text + "\n", encoding="utf-8")
    try:
        expected, message = json.loads(text), None
    except (ValueError, RecursionError) as exc:
        expected, message = None, getattr(exc, "msg", str(exc))
    if message is None:
        for got in (read_json(whole), list(read_jsonl(lines))[1][1]):
            assert repr(got) == repr(expected)
            assert [type(v) for v in got.values()] == [type(v) for v in expected.values()]
        return
    with pytest.raises(SchemaError) as exc:
        read_json(whole)
    assert str(exc.value) == f"{whole}: invalid JSON ({message})"
    with pytest.raises(ParseError) as exc:
        list(read_jsonl(lines))
    assert str(exc.value) == f"{lines}: line 2: invalid JSON ({message})"


def test_valid_json_past_the_recursion_limit_decodes(tmp_path):
    # json raises RecursionError here; orjson reads it, so the type check that
    # follows names the file and the key instead.
    path = tmp_path / "deep.json"
    path.write_text('{"a": ' + _DEEP + "}", encoding="utf-8")
    depth, value = 0, read_json(path)["a"]
    while value:
        depth, value = depth + 1, value[0]
    assert depth == 99_999


def test_an_integer_past_2_64_reads_as_a_float_and_fails_an_int_field(tmp_path, grid2x2):
    # orjson reads an integer outside [-2**63, 2**64) as the nearest float: the
    # same value in a float field, a type error in an int field.
    path = tmp_path / "x.json"
    for literal, value in (("18446744073709551615", 2**64 - 1), ("18446744073709551616", 2.0**64),
                           ("-9223372036854775808", -2**63), ("-9223372036854775809", -2.0**63)):
        path.write_text(f'{{"a": {literal}}}', encoding="utf-8")
        got = read_json(path)["a"]
        assert type(got) is type(value) and got == value
    save_dataset(tiny_dataset(grid2x2), tmp_path / "d")
    lines = (tmp_path / "d" / "observations.jsonl").read_text().splitlines()
    lines[2] = lines[2].replace('"identity": 1', '"identity": 18446744073709551616')
    (tmp_path / "d" / "observations.jsonl").write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as exc:
        load_dataset(tmp_path / "d")
    assert str(exc.value).endswith(": line 3: identity must be int, got 1.8446744073709552e+19")
