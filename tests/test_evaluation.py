"""Scoring, the new-location subset, report serialization, and the row suite."""

import csv
import hashlib
import json
import weakref
from dataclasses import replace

import numpy as np
import pytest

from idfusion.classifier import TrainConfig, train
from idfusion.data import Dataset, GridSpec, Location, build_catalog, location_xy
from idfusion import evaluation
from idfusion.evaluation import (
    ExperimentReport,
    infer,
    load_report,
    overall_accuracy,
    render_report_table,
    run_experiment,
    run_row_suite,
    save_report,
    score_predictions,
    write_report_csv,
)
from idfusion.fusion import Prediction, prediction_lines, read_predictions, write_predictions
from idfusion.priors import HOME_LOCATION, MIGRATING_LOCATION, TIME_DECAY, UNIFORM, PriorConfig
from idfusion.simulate import SimConfig, generate

from conftest import assert_pinned, make_obs
from oracles import cell_center_ref


def _pred(obs_id, predicted, true, confidence=0.9, k=2):
    post = np.full(k, (1.0 - confidence) / (k - 1))
    post[predicted] = confidence
    return Prediction(
        obs_id=obs_id,
        predicted=predicted,
        posterior=post,
        likelihood=post.copy(),
        prior=np.full(k, 1.0 / k),
        resolved_location=Location(0.0, 0.0),
        temperature_used=1.0,
        true_identity=true,
    )


def _small_sim(seed=11, migration=0.3):
    return generate(
        SimConfig(
            n_identities=6,
            feature_dim=8,
            bg_feature_dim=6,
            grid=GridSpec(origin=Location(0.0, 0.0), cell_size_km=5.0, n_cells_x=2, n_cells_y=2),
            home_range_cells=0.6,
            migration_prob=migration,
            fg_noise=1.0,
            obs_rate=8.0,
            duration_days=240.0,
            seed=seed,
        )
    )


_FAST_TRAIN = TrainConfig(epochs=20, learning_rate=0.05, batch_size=16)


def test_overall_accuracy_counts_hits():
    preds = [_pred("a", 0, 0), _pred("b", 1, 1), _pred("c", 0, 1), _pred("d", 1, 1)]
    assert overall_accuracy(preds) == 0.75


def test_overall_accuracy_needs_ground_truth():
    # A prediction cannot be built without its truth, and an empty list has no accuracy.
    with pytest.raises(TypeError, match="true_identity"):
        Prediction("a", 0, np.ones(2) / 2, np.ones(2) / 2, np.ones(2) / 2, Location(0.0, 0.0), 1.0)
    with pytest.raises(ValueError):
        overall_accuracy([])


def test_unknown_identity_never_matches():
    # Identity 7 was never trained on; whatever the model says is wrong.
    preds = [_pred("a", 0, 7), _pred("b", 1, 1)]
    assert overall_accuracy(preds) == 0.5


def _pair_fixture(grid):
    train = [
        make_obs("t0", 0, 1.0, cell_center_ref(grid, 0), split="train"),
        make_obs("t1", 1, 2.0, cell_center_ref(grid, 1), split="train"),
    ]
    test = [
        make_obs("a", 0, 10.0, cell_center_ref(grid, 0), split="test"),
        make_obs("b", 0, 11.0, cell_center_ref(grid, 1), split="test"),
        make_obs("c", 1, 12.0, cell_center_ref(grid, 1), split="test"),
        make_obs("d", 1, 13.0, cell_center_ref(grid, 0), split="test"),
    ]
    return Dataset.from_observations(train + test, grid)


def test_new_location_subset_membership(grid2x2):
    ds = _pair_fixture(grid2x2)
    cells = ds.grid.cell_indices(location_xy(ds.train)).tolist()
    assert {(o.identity, c) for o, c in zip(ds.train, cells)} == {(0, 0), (1, 1)}
    assert ds.new_location_ids == frozenset({"b", "d"})


def _records(preds, labels, kind=UNIFORM):
    return [json.loads(line) for line in prediction_lines(preds, labels, kind)]


def _score(preds, ds, labels=(0, 1)):
    records = _records(preds, labels)
    meta = {"labels": list(labels), "seed": 0, "train_config": {}, "prior_config": {}}
    return score_predictions(records, meta, ds)


def test_accuracy_recomposes_from_subsets(grid2x2):
    ds = _pair_fixture(grid2x2)
    preds = [_pred("a", 0, 0), _pred("b", 1, 0), _pred("c", 1, 1), _pred("d", 1, 1)]
    report = _score(preds, ds)
    nl_acc, nl_n = report.new_location_accuracy, report.n_new_location
    assert (nl_acc, nl_n) == (0.5, 2)

    members = ds.new_location_ids
    old = [p for p in preds if p.obs_id not in members]
    old_acc = overall_accuracy(old)
    total = overall_accuracy(preds)
    recomposed = (nl_acc * nl_n + old_acc * len(old)) / len(preds)
    assert abs(total - recomposed) < 1e-12


def test_new_location_accuracy_empty_subset(grid2x2):
    # Drop the two test sightings at new (identity, cell) pairs.
    ds = _pair_fixture(grid2x2)
    ds = Dataset.from_observations(ds.train + (ds.test[0], ds.test[2]), grid2x2)
    report = _score([_pred("a", 0, 0), _pred("c", 1, 1)], ds)
    assert (report.new_location_accuracy, report.n_new_location) == (None, 0)


def _report_bytes(report, path):
    save_report(report, path)
    return path.read_bytes()


def test_report_json_round_trip_is_lossless(tmp_path):
    report = ExperimentReport(
        overall_accuracy=0.625,
        new_location_accuracy=None,
        ece_fused=0.0625,
        ece_likelihood=0.125,
        n_test=16,
        n_new_location=0,
        n_unknown_identity=2,
        seed=3,
        train_config=TrainConfig(seed=3).to_dict(),
        prior_config=PriorConfig().to_dict(),
        per_identity={0: 1.0, 4: 0.25},
    )
    save_report(report, tmp_path / "report.json")
    assert load_report(tmp_path / "report.json") == report

    with_subset = ExperimentReport(
        overall_accuracy=0.5,
        new_location_accuracy=0.375,
        ece_fused=0.1,
        ece_likelihood=0.2,
        n_test=8,
        n_new_location=8,
        n_unknown_identity=0,
        seed=0,
        train_config={},
        prior_config={},
    )
    save_report(with_subset, tmp_path / "subset.json")
    assert load_report(tmp_path / "subset.json") == with_subset


def test_report_orders_per_identity_keys_as_strings(tmp_path):
    report = ExperimentReport(
        overall_accuracy=0.75, new_location_accuracy=None, ece_fused=0.0, ece_likelihood=0.0,
        n_test=4, n_new_location=0, n_unknown_identity=0, seed=0, train_config={},
        prior_config={}, per_identity={2: 0.5, 10: 1.0},
    )
    text = _report_bytes(report, tmp_path / "report.json").decode()
    assert text.index('"10"') < text.index('"2"')


def test_save_and_load_report(tmp_path):
    report, _ = run_experiment(_small_sim(), _FAST_TRAIN, PriorConfig(kind=UNIFORM))
    path = tmp_path / "report.json"
    save_report(report, path)
    assert load_report(path) == report


def test_run_experiment_is_deterministic(tmp_path):
    ds = _small_sim()
    prior = PriorConfig(kind=MIGRATING_LOCATION)
    rep1, preds1 = run_experiment(ds, _FAST_TRAIN, prior)
    rep2, preds2 = run_experiment(ds, _FAST_TRAIN, prior)
    assert _report_bytes(rep1, tmp_path / "1.json") == _report_bytes(rep2, tmp_path / "2.json")
    assert len(preds1) == len(preds2)
    for a, b in zip(preds1, preds2):
        assert a.obs_id == b.obs_id and a.predicted == b.predicted
        assert np.array_equal(a.posterior, b.posterior)


def test_run_experiment_syncs_cell_size_and_seed():
    ds = _small_sim()
    report, _ = run_experiment(ds, replace(_FAST_TRAIN, seed=3), PriorConfig(cell_size_km=1.0))
    assert report.prior_config["cell_size_km"] == ds.grid.cell_size_km
    assert report.seed == 3
    assert report.train_config["seed"] == 3


def test_score_predictions_reproduces_report(tmp_path):
    ds = _small_sim()
    prior = PriorConfig(kind=MIGRATING_LOCATION)
    report, preds = run_experiment(ds, _FAST_TRAIN, prior)
    labels = tuple(sorted({o.identity for o in ds.train}))
    meta = {
        "seed": report.seed,
        "train_config": report.train_config,
        "prior_config": report.prior_config,
    }
    write_predictions(preds, tmp_path, labels=labels, prior_kind=prior.kind, meta=meta)
    records, read_meta = read_predictions(tmp_path)
    rescored = score_predictions(records, read_meta, ds)
    # run_experiment scores through the same records, so nothing may differ.
    assert _report_bytes(rescored, tmp_path / "rescored.json") == \
        _report_bytes(report, tmp_path / "report.json")


# sha256 of the report.json bytes of score_predictions over one model per
# loss and each of the four prior kinds, in the order of _PIN_PRIORS,
# recorded before the scorer was rewritten as one pass over the records.
# Identity 5 has no training sighting, so its test sightings are unknown to
# the model. Scoring may get simpler, but any byte of a report it moves
# fails here. One table per math backend (see conftest.MATH_BACKENDS).
_PIN_PRIORS = (UNIFORM, HOME_LOCATION, MIGRATING_LOCATION, TIME_DECAY)
REPORT_DIGESTS = {
    "avx512": {
        "ce": "90548a159c22e9ee09ec332cf6eaf9714edce146a7fb32b5008a6104ee618ec6",
        "pits": "122054e6142d90074cdf9952074ed9e9c6e0a69022de4ec745b2beb2265ffe52",
    },
    "avx2": {
        "ce": "90548a159c22e9ee09ec332cf6eaf9714edce146a7fb32b5008a6104ee618ec6",
        "pits": "b08c9564728a087ec04899cc1257a78df56c87c5c7581427c41127972b1859ef",
    },
}


@pytest.mark.parametrize("loss", ["ce", "pits"])
def test_report_bytes_are_pinned(tmp_path, loss):
    sim = generate(SimConfig(
        n_identities=6, feature_dim=8, bg_feature_dim=6,
        grid=GridSpec(origin=Location(0.0, 0.0), cell_size_km=5.0, n_cells_x=3, n_cells_y=2),
        home_range_cells=0.6, migration_prob=0.3, fg_noise=1.0, obs_rate=20.0,
        duration_days=240.0, seed=7))
    ds = Dataset.from_observations(
        [o for o in sim.observations if o.split == "test" or o.identity != 5], sim.grid)
    config = replace(_FAST_TRAIN, loss_kind=loss, seed=2)
    model = train(ds, build_catalog(ds), config)
    digest = hashlib.sha256()
    for kind in _PIN_PRIORS:
        preds, meta = infer(ds, model, config, PriorConfig(kind=kind))
        report = score_predictions(_records(preds, model.labels, kind), meta, ds)
        digest.update(_report_bytes(report, tmp_path / f"{kind}.json"))
    assert_pinned(REPORT_DIGESTS, loss, digest.hexdigest())


def test_scoring_many_record_sets_finds_new_locations_once(tmp_path, monkeypatch):
    # A population run scores every prior against one dataset; the dataset-only
    # new-location pass must run once for all of them and change no report byte.
    ds = _small_sim()
    model = train(ds, build_catalog(ds), _FAST_TRAIN)
    record_sets = []
    for kind in (UNIFORM, HOME_LOCATION, MIGRATING_LOCATION, TIME_DECAY):
        preds, meta = infer(ds, model, _FAST_TRAIN, PriorConfig(kind=kind))
        record_sets.append((_records(preds, model.labels, kind), meta))
    fresh = [score_predictions(r, meta, Dataset.from_observations(ds.observations, ds.grid))
             for r, meta in record_sets]

    shared = Dataset.from_observations(ds.observations, ds.grid)
    calls = []
    cell_indices = GridSpec.cell_indices
    monkeypatch.setattr(GridSpec, "cell_indices",
                        lambda grid, xy: calls.append(len(xy)) or cell_indices(grid, xy))
    reports = [score_predictions(r, meta, shared) for r, meta in record_sets]
    # One call over every sighting, for all four record sets.
    assert calls == [len(ds.train) + len(ds.test)]
    for i, (a, b) in enumerate(zip(reports, fresh)):
        assert _report_bytes(a, tmp_path / f"a{i}.json") == _report_bytes(b, tmp_path / f"b{i}.json")


def test_row_suite_runs_named_rows():
    ds = _small_sim()
    rows = (
        ("fg_ce_uniform", "foreground", "ce", UNIFORM, "metadata"),
        ("fg_pits_migrating", "foreground", "pits", MIGRATING_LOCATION, "metadata"),
    )
    reports = run_row_suite(ds, rows=rows, base_train=replace(_FAST_TRAIN, seed=4))
    assert list(reports) == ["fg_ce_uniform", "fg_pits_migrating"]
    for rep in reports.values():
        assert 0.0 <= rep.overall_accuracy <= 1.0
        assert rep.n_test == len(ds.test)
        # base_train's seed is the only seed.
        assert rep.seed == 4 and rep.train_config["seed"] == 4
    assert reports["fg_ce_uniform"].train_config["loss_kind"] == "ce"
    assert reports["fg_pits_migrating"].prior_config["kind"] == MIGRATING_LOCATION


def test_row_suite_drops_each_model_after_its_last_row(monkeypatch):
    # A model keeps its test split's likelihood blocks, so one no later row
    # needs must not outlive its row; one a later row needs is trained once.
    ds, trained, alive = _small_sim(), [], []

    def training(*args):
        trained.append(weakref.ref(model := train(*args)))
        return model

    def running(*args, model):
        alive.append(sum(ref() is not None for ref in trained))
        return run_experiment(*args, model=model)

    monkeypatch.setattr(evaluation, "train", training)
    monkeypatch.setattr(evaluation, "run_experiment", running)
    rows = (("pits_uniform", "foreground", "pits", UNIFORM, "metadata"),
            ("ce_uniform", "foreground", "ce", UNIFORM, "metadata"),
            ("pits_time", "foreground", "pits", TIME_DECAY, "metadata"))
    run_row_suite(ds, rows=rows, base_train=_FAST_TRAIN)
    assert len(trained) == 2 and alive == [1, 2, 1]


def test_render_table_and_csv(tmp_path):
    reports = {
        "alpha": ExperimentReport(
            overall_accuracy=0.5, new_location_accuracy=0.25, ece_fused=0.1,
            ece_likelihood=0.2, n_test=4, n_new_location=2, n_unknown_identity=0,
            seed=0, train_config={}, prior_config={},
        ),
        "beta": ExperimentReport(
            overall_accuracy=1.0, new_location_accuracy=None, ece_fused=0.0,
            ece_likelihood=0.0, n_test=8, n_new_location=0, n_unknown_identity=1,
            seed=0, train_config={}, prior_config={},
        ),
    }
    table = render_report_table(reports)
    lines = table.splitlines()
    assert len(lines) == 4
    assert "alpha" in lines[2] and "0.250" in lines[2]
    assert "beta" in lines[3] and "n/a" in lines[3]
    assert table.endswith("\n")

    path = tmp_path / "rows.csv"
    write_report_csv(reports, path)
    with path.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "row"
    assert rows[1][0] == "alpha" and rows[1][2] == "0.25"
    assert rows[2][0] == "beta" and rows[2][2] == ""
