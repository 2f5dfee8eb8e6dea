"""Command-line workflow: simulate, train, calibrate, infer, evaluate, report."""

import contextlib
import io
import json
import math
import reprlib
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idfusion.calibration import ece_from_top_predictions, fit_global_temperature, tempered_softmax
from idfusion.classifier import TrainConfig, load_model, load_model_and_config
from idfusion import cli
from idfusion.cli import main
from idfusion.data import load_dataset
from idfusion.errors import ConfigError
from idfusion.evaluation import ExperimentReport, infer, load_report, run_experiment, save_report
from idfusion.fusion import write_predictions
from idfusion.priors import MIGRATING_LOCATION, PRIOR_KINDS, PriorConfig
from idfusion.simulate import SimConfig


SIM_SECTION = {
    "n_identities": 6,
    "feature_dim": 8,
    "bg_feature_dim": 6,
    "grid": {"origin": [0.0, 0.0], "cell_size_km": 5.0, "n_cells_x": 2, "n_cells_y": 2},
    "home_range_cells": 0.5,
    "migration_prob": 0.2,
    "fg_noise": 1.0,
    "obs_rate": 10.0,
    "duration_days": 240.0,
}


def _write_config(path, cfg) -> str:
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


@pytest.fixture
def config_path(tmp_path):
    cfg = {
        "seed": 5,
        "sim": SIM_SECTION,
        "train": {"epochs": 15, "learning_rate": 0.05, "batch_size": 16},
    }
    return _write_config(tmp_path / "config.json", cfg)


def test_full_pipeline(tmp_path, config_path, capsys):
    data = str(tmp_path / "data")
    model = str(tmp_path / "model.json")
    bg_model = str(tmp_path / "bg.json")
    preds = str(tmp_path / "preds")
    calib = str(tmp_path / "calibration.json")
    report = str(tmp_path / "report.json")

    assert main(["simulate", "--config", config_path, "--out", data]) == 0
    out = capsys.readouterr().out
    assert "train" in out and "test" in out
    ds = load_dataset(data)
    assert ds.n_identities == 6

    assert main(["train", "--data", data, "--config", config_path, "--loss", "pits",
                 "--out", model]) == 0
    assert "pits/foreground model" in capsys.readouterr().out

    assert main(["train", "--data", data, "--config", config_path,
                 "--model-kind", "background", "--out", bg_model]) == 0
    assert "background location model" in capsys.readouterr().out

    assert main(["calibrate", "--data", data, "--model", model, "--out", calib]) == 0
    out = capsys.readouterr().out
    assert "fitted global temperature" in out
    fitted = json.loads((tmp_path / "calibration.json").read_text())
    assert fitted["temperature"] > 0
    assert "ece_before" in fitted and "ece_after" in fitted

    assert main(["infer", "--data", data, "--model", model,
                 "--prior", "migrating_location", "--out", preds]) == 0
    assert "predictions" in capsys.readouterr().out
    assert (tmp_path / "preds" / "predictions.jsonl").exists()

    assert main(["evaluate", "--data", data, "--predictions", preds, "--out", report]) == 0
    out = capsys.readouterr().out
    assert "overall accuracy" in out and "ece (fused)" in out
    rep = load_report(report)
    assert 0.0 <= rep.overall_accuracy <= 1.0
    assert rep.prior_config["kind"] == "migrating_location"

    csv_out = str(tmp_path / "rows.csv")
    assert main(["report", report, report, "--out", csv_out]) == 0
    out = capsys.readouterr().out
    assert "foreground_pits_migrating_location" in out
    assert (tmp_path / "rows.csv").read_text().startswith("row,")


def test_infer_is_deterministic_across_runs(tmp_path, config_path, capsys):
    data = str(tmp_path / "data")
    model = str(tmp_path / "model.json")
    assert main(["simulate", "--config", config_path, "--out", data]) == 0
    assert main(["train", "--data", data, "--config", config_path, "--out", model]) == 0
    for d in ("p1", "p2"):
        assert main(["infer", "--data", data, "--model", model,
                     "--prior", "time_decay", "--out", str(tmp_path / d)]) == 0
    capsys.readouterr()
    assert (tmp_path / "p1" / "predictions.jsonl").read_bytes() == \
        (tmp_path / "p2" / "predictions.jsonl").read_bytes()


def test_calibrate_fits_on_train_and_scores_test(tmp_path, config_path, capsys):
    data = str(tmp_path / "data")
    model_path = str(tmp_path / "model.json")
    out = tmp_path / "calibration.json"
    assert main(["simulate", "--config", config_path, "--out", data]) == 0
    # Identity 0 is seen only in test, so the model has never seen it.
    path = Path(data) / "observations.jsonl"
    recs = [json.loads(line) for line in path.read_text().splitlines()]
    path.write_text("".join(json.dumps({**r, "split": "test"} if r["identity"] == 0 else r) + "\n"
                            for r in recs), encoding="utf-8")
    assert main(["train", "--data", data, "--config", config_path, "--out", model_path]) == 0
    assert main(["calibrate", "--data", data, "--model", model_path, "--out", str(out)]) == 0
    capsys.readouterr()

    ds = load_dataset(data)
    model = load_model(model_path)
    logits = np.stack([model.forward(o.fg_features)[0] for o in ds.train])
    labels = np.array([model.labels.index(o.identity) for o in ds.train])
    stored = json.loads(out.read_text())
    t_star = fit_global_temperature(logits, labels)
    assert stored["temperature"] == t_star
    assert stored["n_evaluated"] == len(ds.test)
    # Scored out of sample, from logits computed one observation at a time.
    logits = np.stack([model.forward(o.fg_features)[0] for o in ds.test])
    labels = np.array([model.labels.index(o.identity) if o.identity in model.labels else -1
                       for o in ds.test])
    assert (labels == -1).any()
    for key, t in (("ece_before", 1.0), ("ece_after", t_star)):
        p = tempered_softmax(logits, t)
        # From each row's top-1 confidence and hit, as evaluate scores them;
        # a sighting of an identity the model never saw is a miss.
        hit = [y >= 0 and row.argmax() == y for row, y in zip(p, labels)]
        assert stored[key] == ece_from_top_predictions(p.max(axis=1), np.array(hit)).ece
    # The seed is the model's (5), from its checkpoint's train_config, as infer records it.
    assert stored["seed"] == 5


def test_calibrate_refuses_a_model_that_knows_no_train_identity(tmp_path, config_path, capsys):
    data, model = str(tmp_path / "data"), tmp_path / "model.json"
    assert main(["simulate", "--config", config_path, "--out", data]) == 0
    assert main(["train", "--data", data, "--config", config_path, "--out", str(model)]) == 0
    checkpoint = json.loads(model.read_text())
    checkpoint["labels"] = [100 + k for k in checkpoint["labels"]]
    model.write_text(json.dumps(checkpoint), encoding="utf-8")
    capsys.readouterr()
    out = tmp_path / "calibration.json"
    assert main(["calibrate", "--data", data, "--model", str(model), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: no train observation has an identity the model was trained on\n"
    assert not out.exists()


def test_infer_with_background_model_matches_library(tmp_path, config_path, capsys):
    cfg = json.loads(Path(config_path).read_text())
    cfg["prior"] = {"kind": MIGRATING_LOCATION, "location_source": "background_model"}
    bg_config = tmp_path / "bg_config.json"
    bg_config.write_text(json.dumps(cfg), encoding="utf-8")
    data = str(tmp_path / "data")
    model = str(tmp_path / "model.json")
    bg_model = str(tmp_path / "bg.json")
    preds = str(tmp_path / "preds")
    report = str(tmp_path / "report.json")
    assert main(["simulate", "--config", config_path, "--out", data]) == 0
    assert main(["train", "--data", data, "--config", config_path, "--out", model]) == 0
    # The library trains its background model at the run seed plus one.
    assert main(["train", "--data", data, "--config", config_path, "--seed", str(cfg["seed"] + 1),
                 "--model-kind", "background", "--out", bg_model]) == 0
    capsys.readouterr()

    assert main(["infer", "--data", data, "--model", model, "--config", str(bg_config),
                 "--out", preds]) == 1
    assert "--background-model" in capsys.readouterr().err

    # No --config: the seed and train config come from the checkpoint.
    assert main(["infer", "--data", data, "--model", model,
                 "--prior", MIGRATING_LOCATION, "--background-model", bg_model,
                 "--out", preds]) == 0
    assert main(["evaluate", "--data", data, "--predictions", preds, "--out", report]) == 0
    capsys.readouterr()
    cli = load_report(report)

    lib, _ = run_experiment(
        load_dataset(data),
        TrainConfig(**{**cfg["train"], "seed": cfg["seed"]}),
        PriorConfig(kind=MIGRATING_LOCATION, location_source="background_model"),
    )
    assert cli.prior_config == lib.prior_config
    for name in ("overall_accuracy", "new_location_accuracy", "ece_fused", "ece_likelihood",
                 "n_test", "n_new_location", "n_unknown_identity", "seed", "per_identity",
                 "train_config"):
        assert getattr(cli, name) == getattr(lib, name), name


def test_simulate_preset_with_overrides(tmp_path, capsys):
    cfg = {"sim": {"obs_rate": 8.0, "duration_days": 365.0, "n_identities": 8}}
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    data = str(tmp_path / "lynxish")
    assert main(["simulate", "--preset", "lynx", "--config", str(cfg_path),
                 "--seed", "3", "--out", data]) == 0
    capsys.readouterr()
    ds = load_dataset(data)
    assert ds.n_identities == 8
    assert ds.grid.n_cells == 9
    meta = json.loads((tmp_path / "lynxish" / "dataset.json").read_text())
    assert meta["sim_config"]["seed"] == 3
    assert meta["sim_config"]["obs_rate"] == 8.0


@pytest.mark.parametrize("section, preset", [("sim", []), ("sim", ["--preset", "lynx"]),
                                             ("train", [])], ids=["sim", "sim-preset", "train"])
def test_each_config_section_follows_one_rule(tmp_path, capsys, section, preset):
    body = {"sim": SIM_SECTION, "train": {"epochs": 2, "learning_rate": 0.05}}[section]
    data = str(tmp_path / "data")
    command = {"sim": ["simulate", *preset], "train": ["train", "--data", data]}[section]
    if section == "train":
        sim = _write_config(tmp_path / "sim.json", {"sim": SIM_SECTION})
        assert main(["simulate", "--config", sim, "--out", data]) == 0

    def run(name, cfg, flags=()):
        out = tmp_path / name
        return main([*command, "--config", _write_config(tmp_path / f"{name}.json", cfg), *flags,
                     "--out", str(out)]), out

    # --seed wins over the section's seed, which wins over the top-level one.
    for name, own, flags, seed in (("top", body, [], 9), ("own", {**body, "seed": 4}, [], 4),
                                   ("flag", {**body, "seed": 4}, ["--seed", "2"], 2)):
        code, out = run(name, {"seed": 9, section: own}, flags)
        assert code == 0, name
        if section == "sim":
            meta = json.loads((out / "dataset.json").read_text())
            assert (meta["seed"], meta["sim_config"]["seed"]) == (seed, seed), name
        else:
            checkpoint = json.loads(out.read_text())
            assert checkpoint["train_config"]["seed"] == seed, name
    capsys.readouterr()

    # The file's section is taken as written: a null is no fallback to a
    # default, and the removed training options are unknown keys.
    for key, value, words in (({"sim": "obs_rate", "train": "epochs"}[section], None, "got None"),
                              ("lr_schedule", "cosine", "unknown key 'lr_schedule'"),
                              ("noise_std", 0.5, "unknown key 'noise_std'")):
        assert run(f"bad-{key}", {section: {**body, key: value}})[0] == 1, key
        err = capsys.readouterr().err
        assert err.startswith(f"error: {section}: ") and err.count("\n") == 1, err
        assert words in err, err


def test_seed_changes_simulated_data(tmp_path, capsys):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"sim": SIM_SECTION}), encoding="utf-8")
    for seed, name in ((1, "a"), (2, "b"), (1, "a2")):
        assert main(["simulate", "--config", str(cfg_path), "--seed", str(seed),
                     "--out", str(tmp_path / name)]) == 0
    capsys.readouterr()
    obs = {n: (tmp_path / n / "observations.jsonl").read_bytes() for n in ("a", "b", "a2")}
    assert obs["a"] == obs["a2"]
    assert obs["a"] != obs["b"]


def test_report_runs_standard_grid_from_data(tmp_path, config_path, capsys):
    data = str(tmp_path / "data")
    assert main(["simulate", "--config", config_path, "--out", data]) == 0
    capsys.readouterr()
    assert main(["report", "--data", data, "--config", config_path]) == 0
    out = capsys.readouterr().out
    assert "fg_pits_time" in out
    assert "bg_ce_uniform" in out


def test_report_keeps_every_row_when_names_collide(tmp_path, capsys):
    # Three files, one row name and one file stem: each row keeps a name of
    # its own, and the name column widens to fit the longest.
    base = ExperimentReport(
        overall_accuracy=0.0, new_location_accuracy=None, ece_fused=0.0, ece_likelihood=0.0,
        n_test=4, n_new_location=0, n_unknown_identity=0, seed=0,
        train_config=TrainConfig().to_dict(), prior_config=PriorConfig().to_dict())
    paths = []
    for folder, accuracy in zip("abc", (0.25, 0.5, 0.75)):
        (tmp_path / folder).mkdir()
        paths.append(str(tmp_path / folder / "r.json"))
        save_report(ExperimentReport(**{**vars(base), "overall_accuracy": accuracy}), paths[-1])
    csv_out = tmp_path / "rows.csv"
    assert main(["report", *paths, "--out", str(csv_out)]) == 0
    table = capsys.readouterr().out.splitlines()[:5]
    assert [line.split()[:2] for line in table[2:]] == [
        ["foreground_pits_uniform", "0.250"], ["foreground_pits_uniform_r", "0.500"],
        ["foreground_pits_uniform_r_2", "0.750"]]
    assert {len(line) for line in table} == {len(table[0])}
    assert len(csv_out.read_text().splitlines()) == 4


def test_error_paths_exit_one(tmp_path, config_path, capsys):
    assert main(["train", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "m")]) == 1
    assert "error:" in capsys.readouterr().err

    assert main(["report"]) == 1
    assert "error:" in capsys.readouterr().err

    rep = tmp_path / "r.json"
    rep.write_text("{}", encoding="utf-8")
    assert main(["report", str(rep), "--data", str(tmp_path / "d")]) == 1
    assert "not both" in capsys.readouterr().err

    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text("[1, 2]", encoding="utf-8")
    assert main(["simulate", "--config", str(bad_cfg), "--out", str(tmp_path / "x")]) == 1
    assert "JSON object" in capsys.readouterr().err

    def error_line(argv):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        return err

    data, model = str(tmp_path / "data"), str(tmp_path / "model.json")
    assert main(["simulate", "--config", config_path, "--out", data]) == 0
    assert main(["train", "--data", data, "--config", config_path, "--out", model]) == 0
    capsys.readouterr()

    # A mistyped key or a wrongly typed value names its config section.
    for section, body, words in (
        ("train", {"epoch": 3}, ("train:", "'epoch'")),
        ("sim", {"n_identity": 3}, ("sim:", "'n_identity'")),
        ("prior", {"alpha": "x"}, ("prior:", "alpha")),
        # A run uses one prior kind, with distances in grid cells.
        ("prior", {"distance_unit": "km"}, ("prior: distance_unit must be 'cells', got 'km'",)),
    ):
        cfg = tmp_path / f"{section}.json"
        cfg.write_text(json.dumps({section: body}), encoding="utf-8")
        argv = {
            "train": ["train", "--data", data, "--out", str(tmp_path / "m2.json")],
            "sim": ["simulate", "--out", str(tmp_path / "d2")],
            "prior": ["infer", "--data", data, "--model", model, "--out", str(tmp_path / "p2")],
        }[section]
        err = error_line(argv + ["--config", str(cfg)])
        assert all(w in err for w in words), err

    # A top-level seed of the wrong type fails where the file is read, even
    # when every seeded section has a seed of its own.
    cfg = _write_config(tmp_path / "seed.json", {"seed": "abc", "train": {"seed": 1, "epochs": 2},
                                                "prior": {}})
    for argv in (["train", "--data", data, "--out", str(tmp_path / "m3.json")],
                 ["infer", "--data", data, "--model", model, "--out", str(tmp_path / "p7")],
                 ["report", "--data", data]):
        err = error_line(argv + ["--config", cfg])
        assert f"{cfg}: seed must be int, got 'abc'" in err, err

    # Too few sightings for the identities is a config error, not a failed redraw.
    cfg = tmp_path / "sparse.json"
    cfg.write_text(json.dumps({"sim": {"n_identities": 5, "obs_rate": 0.9}}), encoding="utf-8")
    err = error_line(["simulate", "--config", str(cfg), "--out", str(tmp_path / "d3")])
    assert "sim:" in err and "every identity needs one" in err, err

    # A predictions line that is not an object names the file and the line.
    preds = tmp_path / "preds"
    assert main(["infer", "--data", data, "--model", model, "--out", str(preds)]) == 0
    capsys.readouterr()
    lines = (preds / "predictions.jsonl").read_text().splitlines()
    lines[1] = "[1, 2]"
    (preds / "predictions.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    err = error_line(["evaluate", "--data", data, "--predictions", str(preds)])
    assert "predictions.jsonl: line 2" in err

    # An empty predictions or observations file names itself.
    (preds / "predictions.jsonl").write_text("", encoding="utf-8")
    err = error_line(["evaluate", "--data", data, "--predictions", str(preds)])
    assert err == f"error: {preds / 'predictions.jsonl'}: file holds no records\n", err
    empty_data = tmp_path / "empty-data"
    shutil.copytree(data, empty_data)
    (empty_data / "observations.jsonl").write_text("", encoding="utf-8")
    err = error_line(["train", "--data", str(empty_data), "--out", str(tmp_path / "m4.json")])
    assert err == f"error: {empty_data / 'observations.jsonl'}: file holds no observations\n", err

    # A checkpoint or a report holding a list names the file.
    empty = tmp_path / "empty.json"
    empty.write_text("[]", encoding="utf-8")
    for argv in (["calibrate", "--data", data, "--model", str(empty)],
                 ["infer", "--data", data, "--model", str(empty), "--out", str(tmp_path / "p3")],
                 ["report", str(empty)]):
        assert "empty.json: file must hold a JSON object" in error_line(argv)
    # So does one holding an integer longer than Python reads (4300 digits).
    empty.write_text('{"K": ' + "9" * 5000 + "}", encoding="utf-8")
    for argv in (["calibrate", "--data", data, "--model", str(empty)], ["report", str(empty)]):
        assert error_line(argv).startswith(f"error: {empty}: invalid JSON (Exceeds the limit")

    # A checkpoint missing a key, or holding a wrongly shaped array, names
    # the file and the key.
    bg = str(tmp_path / "bg.json")
    assert main(["train", "--data", data, "--config", config_path,
                 "--model-kind", "background", "--out", bg]) == 0
    capsys.readouterr()
    for name, flag, source in (("identity", "--model", model),
                               ("background", "--background-model", bg)):
        for case, edit, words in (
            ("missing", lambda c: c.pop("W"), ("checkpoint has no 'W'",)),
            ("b-shape", lambda c: c.update(b=c["b"][:-1]),
             ("malformed checkpoint: b shape (", "inconsistent with")),
            ("W-shape", lambda c: c["W"].pop(), ("malformed checkpoint: W shape (", "inconsistent with")),
            ("W-ragged", lambda c: c["W"][0].pop(), ("checkpoint 'W' is malformed: ", "inhomogeneous shape")),
            # An integer too large for a float names the array that holds it.
            ("W-huge-int", lambda c: c["W"][0].__setitem__(0, 10**400),
             ("checkpoint 'W' is malformed: int too large to convert to float",)),
            ("b_T-huge-int", lambda c: c.update(b_T=10**400),
             ("checkpoint 'b_T' is malformed: int too large to convert to float",)),
            # json reads NaN and Infinity; such a weight would fail only in the softmax.
            ("b-inf", lambda c: c["b"].__setitem__(1, -math.inf), ("checkpoint 'b' must be finite",)),
            ("w_T-inf", lambda c: c["w_T"].__setitem__(0, math.inf),
             ("checkpoint 'w_T' must be finite",)),
            ("b_T-nan", lambda c: c.update(b_T=math.nan), ("checkpoint 'b_T' must be finite",)),
            # Every entry is read by JSON type, as a config section's are.
            ("labels-float", lambda c: c["labels"].__setitem__(0, 1.7),
             ("labels must be list[int], got [1.7, ",)),
            ("b_T-str", lambda c: c.update(b_T="0.5"), ("b_T must be float, got '0.5'",)),
            ("input-kind-int", lambda c: c.update(input_kind=1), ("input_kind must be str, got 1",)),
            ("input-kind-xyz", lambda c: c.update(input_kind="xyz"),
             ("input_kind must be one of ('foreground', 'background', 'whole'), got 'xyz'",)),
            ("head-str", lambda c: c.update(temperature_head_active="false"),
             ("temperature_head_active must be bool, got 'false'",)),
            ("W-true", lambda c: c["W"][0].__setitem__(0, True),
             ("W must be list[list[float]], got [[True, ",)),
            ("b-str", lambda c: c["b"].__setitem__(0, "1e3"), ("b must be list[float], got ['1e3', ",)),
            ("loss-history", lambda c: c.update(loss_history=["0.5", False]),
             ("loss_history must be list[float], got ['0.5', False]",)),
        ):
            checkpoint = json.loads(Path(source).read_text())
            edit(checkpoint)
            path = tmp_path / f"{name}-{case}.json"
            path.write_text(json.dumps(checkpoint), encoding="utf-8")
            checkpoints = {"--model": model, flag: str(path)}
            err = error_line(["infer", "--data", data, "--out", str(tmp_path / "p4"),
                              *(arg for pair in checkpoints.items() for arg in pair)])
            assert err.startswith(f"error: {path}: ") and all(w in err for w in words), err

    # The background model is a PitsModel over the grid's cells: an identity
    # checkpoint is no background model, and the old cell-count ("C") format
    # is no checkpoint any more.
    err = error_line(["infer", "--data", data, "--model", model, "--background-model", model,
                      "--out", str(tmp_path / "p8")])
    assert err.startswith(f"error: {model} must score the grid's 4 cells from background"), err
    old = tmp_path / "old-bg.json"
    checkpoint = json.loads(Path(bg).read_text())
    old.write_text(json.dumps({"W": checkpoint["W"], "b": checkpoint["b"], "C": 4,
                               "train_config": checkpoint["train_config"]}), encoding="utf-8")
    err = error_line(["infer", "--data", data, "--model", model, "--background-model", str(old),
                      "--out", str(tmp_path / "p8")])
    assert f"{old}: checkpoint has no 'w_T'" in err, err

    # The model checkpoint's train_config is the run's provenance: infer and
    # calibrate check it as a config section and name the file when it fails.
    for case, edit, words in (
        ("no-train-config", lambda c: c.pop("train_config"), "checkpoint has no 'train_config'"),
        ("bad-seed", lambda c: c["train_config"].update(seed="abc"),
         "train_config: seed must be int, got 'abc'"),
    ):
        checkpoint = json.loads(Path(model).read_text())
        edit(checkpoint)
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps(checkpoint), encoding="utf-8")
        for argv in (["infer", "--data", data, "--model", str(path), "--out", str(tmp_path / "p6")],
                     ["calibrate", "--data", data, "--model", str(path)]):
            err = error_line(argv)
            assert err == f"error: {path}: {words}\n", err

    # A report whose per_identity has a key that is not a label names the
    # file and the key.
    preds, report = str(tmp_path / "p5"), tmp_path / "report.json"
    assert main(["infer", "--data", data, "--model", model, "--out", preds]) == 0
    assert main(["evaluate", "--data", data, "--predictions", preds, "--out", str(report)]) == 0
    capsys.readouterr()
    # Report files are compared as they are: a config or a seed would change nothing.
    for flags in (["--config", config_path], ["--seed", "3"]):
        err = error_line(["report", str(report), *flags])
        assert err == "error: --config and --seed apply only to --data, not to report files\n", err

    text = report.read_text()
    body = json.loads(text)
    body["per_identity"]["x"] = 0.5
    report.write_text(json.dumps(body), encoding="utf-8")
    err = error_line(["report", str(report)])
    assert f"{report}: per_identity key is not an identity label: " in err and "'x'" in err, err
    # The run configs a report copies load as config sections do.
    for key, value, words in (("train_config", {"lam": True}, "lam must be float, got True"),
                              ("prior_config", {"alpha": "2.5"}, "alpha must be float, got '2.5'"),
                              ("prior_config", {"distance_unit": "km"},
                               "distance_unit must be 'cells', got 'km'")):
        report.write_text(json.dumps({**json.loads(text), key: value}), encoding="utf-8")
        assert error_line(["report", str(report)]) == f"error: {report}: {key}: {words}\n"


def test_malformed_dataset_record_names_file_line_and_field(tmp_path, config_path, capsys):
    data = tmp_path / "data"
    assert main(["simulate", "--config", config_path, "--out", str(data)]) == 0
    path = data / "observations.jsonl"
    lines = path.read_text().splitlines()
    for edit, words in ((lambda r: r.pop("t"), "record has no 't'"),
                        (lambda r: r.update(t=None), "t must be float, got None"),
                        (lambda r: r.update(loc=[1.0]), "loc must be tuple[float, float], got [1.0]"),
                        (lambda r: r.update(fg="x"), "fg must be list[float], got 'x'"),
                        # Each field is read by its JSON type, never converted.
                        (lambda r: r.update(identity=r["identity"] + 0.9), "identity must be int, got "),
                        (lambda r: r.update(identity=True), "identity must be int, got True"),
                        (lambda r: r.update(obs_id=12345), "obs_id must be str, got 12345"),
                        (lambda r: r.update(t=str(r["t"])), "t must be float, got '"),
                        (lambda r: r.update(loc=[str(r["loc"][0]), r["loc"][1]]),
                         "loc must be tuple[float, float], got ['"),
                        (lambda r: r.update(bg=[*r["bg"][:-1], "x"]), "bg must be list[float], got ["),
                        # Feature entries too: a boolean is no number, a string no float.
                        (lambda r: r.update(fg=[True, False, 2.0]),
                         "fg must be list[float], got [True, False, 2.0]\n"),
                        (lambda r: r.update(bg=["0.5"]), "bg must be list[float], got ['0.5']\n"),
                        (lambda r: r.update(fg=[True, *r["fg"][1:]], split=5),
                         "fg must be list[float], got [True, "),
                        (lambda r: r.update(split=5), "split must be str | None, got 5\n")):
        rec = json.loads(lines[2])
        edit(rec)
        path.write_text("\n".join([*lines[:2], json.dumps(rec), *lines[3:]]) + "\n")
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "m.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: line 3: {words}") and err.count("\n") == 1, err
    # An integer longer than Python reads (4300 digits) is no record either.
    path.write_text("\n".join([*lines[:2], '{"t": ' + "9" * 5000 + "}", *lines[3:]]) + "\n")
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "m.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: line 3: invalid JSON (Exceeds the limit") and \
        err.count("\n") == 1, err
    # So is a line holding a byte that is not UTF-8, whatever the lines before it hold.
    raw = [line.encode() for line in lines]
    raw[3] = raw[3].replace(b'"obs_id": "', b'"obs_id": "\xff', 1)
    path.write_bytes(b"\n".join(raw) + b"\n")
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "m.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: line 4: invalid JSON ('utf-8' codec can't decode byte"
                          " 0xff") and err.count("\n") == 1, err


def test_json_nested_past_the_recursion_limit_is_one_error_line(tmp_path, config_path, capsys):
    # orjson reads valid JSON of any depth, so the type check names the key; with
    # a NaN too, orjson refuses the file and json, which reads NaN, runs out of
    # recursion: that is an invalid file, named with its line.
    deep = "[" * 100_000 + "]" * 100_000
    too_deep = "invalid JSON (maximum recursion depth exceeded"
    data = tmp_path / "data"
    assert main(["simulate", "--config", config_path, "--out", str(data)]) == 0
    capsys.readouterr()
    cfg = tmp_path / "deep.json"
    path = data / "observations.jsonl"
    # A record's repeated "fg" key takes its last value, the deep one.
    lines = path.read_text().splitlines()
    for body, argv, words in (
        ('{"sim": ' + deep + "}", ["simulate", "--config", str(cfg), "--out", str(tmp_path / "d")],
         f"{cfg}: sim must be dict, got [[[[[[[...]]]]]]]\n"),
        ('{"seed": NaN, "sim": ' + deep + "}",
         ["simulate", "--config", str(cfg), "--out", str(tmp_path / "d")], f"{cfg}: {too_deep}"),
        (lines[2][:-1] + ', "fg": ' + deep + "}", ["train", "--data", str(data), "--out", str(cfg)],
         f"{path}: line 3: fg must be list[float], got [[[[[[[...]]]]]]]\n"),
        (lines[2][:-1] + ', "fg": ' + deep + ', "x": NaN}',
         ["train", "--data", str(data), "--out", str(cfg)], f"{path}: line 3: {too_deep}"),
    ):
        if argv[0] == "simulate":
            cfg.write_text(body, encoding="utf-8")
        else:
            path.write_text("\n".join([*lines[:2], body, *lines[3:]]) + "\n", encoding="utf-8")
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {words}") and err.count("\n") == 1, err


def test_a_path_of_the_wrong_kind_names_itself(tmp_path, config_path, capsys, monkeypatch):
    # A directory where a file goes, or a file where a directory goes, exits 1
    # with one line naming the path, whether it is read or written. An output
    # path fails before the command does any work.
    data, model, folder = str(tmp_path / "data"), str(tmp_path / "model.json"), tmp_path / "dir"
    preds, missing = str(tmp_path / "preds"), tmp_path / "missing" / "out.json"
    assert main(["simulate", "--config", config_path, "--out", data]) == 0
    assert main(["train", "--data", data, "--config", config_path, "--out", model]) == 0
    assert main(["infer", "--data", data, "--model", model, "--out", preds]) == 0
    folder.mkdir()
    capsys.readouterr()

    def no_work(*args, **kwargs):
        raise AssertionError("the command ran before checking its output path")

    for name in ("generate", "train", "train_background_model", "run_row_suite"):
        monkeypatch.setattr(cli, name, no_work)
    for argv, path in (
        (["train", "--data", data, "--config", config_path, "--out", str(folder)], folder),
        (["train", "--data", data, "--config", config_path, "--out", str(missing)], missing),
        (["train", "--data", data, "--config", config_path, "--model-kind", "background",
          "--out", str(folder)], folder),
        (["calibrate", "--data", data, "--model", str(folder)], folder),
        (["calibrate", "--data", data, "--model", model, "--out", str(folder)], folder),
        (["infer", "--data", data, "--model", model, "--out", model], model),
        (["evaluate", "--data", data, "--predictions", preds, "--out", str(folder)], folder),
        (["report", "--data", data, "--config", config_path, "--out", str(folder)], folder),
        (["report", "--data", data, "--config", config_path, "--out", str(missing)], missing),
        (["simulate", "--config", config_path, "--out", model], model),
    ):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno ") and err.endswith(f": {str(path)!r}\n") and \
            err.count("\n") == 1, (argv, err)
    assert not missing.parent.exists()


@pytest.fixture(scope="module")
def predictions(tmp_path_factory):
    """A dataset and the predictions directory of a model trained on it."""
    tmp = tmp_path_factory.mktemp("run")
    cfg = _write_config(tmp / "config.json", {"seed": 5, "sim": SIM_SECTION,
                                              "train": {"epochs": 2, "learning_rate": 0.05}})
    for argv in (["simulate", "--out", str(tmp / "data")],
                 ["train", "--data", str(tmp / "data"), "--out", str(tmp / "model.json")],
                 ["infer", "--data", str(tmp / "data"), "--model", str(tmp / "model.json"),
                  "--out", str(tmp / "preds")]):
        assert main([*argv, "--config", cfg]) == 0
    return tmp / "data", tmp / "preds"


@pytest.mark.parametrize("edit, words", [
    (lambda r: r.pop("obs_id"), "record 2: has no 'obs_id'"),
    (lambda r: r.update(posterior_top5=[]), "record 2 ({id}): list index out of range"),
    (lambda r: r["posterior_top5"][0].__setitem__(1, 1.5),
     "record 2 ({id}): confidences must lie in (0, 1]"),
    (lambda r: r["likelihood_top5"][0].__setitem__(1, float("nan")),
     "record 2 ({id}): confidences must lie in (0, 1]"),
    (lambda r: r.update(obs_id="x"),
     "record 2 (x): obs_id 'x' is not a test sighting of the dataset"),
    (lambda r: r.update(true=str(r["true"])),
     "record 2 ({id}): true must be int | None, got '{true}'"),
    (lambda r: r.update(predicted=3.5), "record 2 ({id}): predicted must be int, got 3.5"),
    (lambda r: r["posterior_top5"][0].__setitem__(1, True),
     "record 2 ({id}): posterior_top5[0] must be tuple[int, float], got [{post[0]}, True]"),
    (lambda r: r["likelihood_top5"][0].__setitem__(1, "0.9"),
     "record 2 ({id}): likelihood_top5[0] must be tuple[int, float], got [{like[0]}, '0.9']"),
    (lambda r: r["likelihood_top5"][0].__setitem__(0, 1.7),
     "record 2 ({id}): likelihood_top5[0] must be tuple[int, float], got [1.7, {like[1]!r}]"),
], ids=["no-obs-id", "empty-top5", "confidence-above-1", "nan-confidence", "not-a-test-sighting",
        "true-str", "predicted-float", "confidence-true", "confidence-str", "label-float"])
def test_malformed_prediction_record_names_file_and_record(tmp_path, predictions, capsys,
                                                           edit, words):
    data, source = predictions
    preds = tmp_path / "preds"
    shutil.copytree(source, preds)
    path = preds / "predictions.jsonl"
    lines = path.read_text().splitlines()
    rec = json.loads(lines[1])
    obs_id, true = rec["obs_id"], rec["true"]
    post, like = list(rec["posterior_top5"][0]), list(rec["likelihood_top5"][0])
    edit(rec)
    path.write_text("\n".join([lines[0], json.dumps(rec), *lines[2:]]) + "\n")
    capsys.readouterr()
    assert main(["evaluate", "--data", str(data), "--predictions", str(preds)]) == 1
    err = capsys.readouterr().err
    expected = words.format(id=obs_id, true=true, post=post, like=like)
    assert err == f"error: {path}: {expected}\n", err


def test_evaluate_rejects_another_seeds_dataset(tmp_path, predictions, capsys):
    # Both datasets number their sightings alike, so only the truth behind
    # each obs_id tells them apart: the first record that disagrees fails.
    _, preds = predictions
    other = tmp_path / "other"
    cfg = _write_config(tmp_path / "config.json", {"sim": SIM_SECTION})
    assert main(["simulate", "--config", cfg, "--seed", "6", "--out", str(other)]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--data", str(other), "--predictions", str(preds)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {preds / 'predictions.jsonl'}: record ") and \
        err.count("\n") == 1, err
    assert "is not a test sighting of the dataset" in err or \
        "is not the dataset's identity" in err, err


@pytest.mark.parametrize("key, value, words", [
    ("labels", 7, "labels must be list[int], got 7"),
    ("labels", ["0"], "labels must be list[int], got ['0']"),
    ("seed", "abc", "seed must be int, got 'abc'"),
    ("seed", True, "seed must be int, got True"),
    ("train_config", 5, "train_config must be dict, got 5"),
    ("prior_config", None, "prior_config must be dict, got None"),
    ("seed", ..., "seed must be int, got None"),
    # The run's configs load as config sections do; absent keys take defaults.
    ("train_config", {"lam": True}, "train_config: lam must be float, got True"),
    ("prior_config", {"alpha": "2.5"}, "prior_config: alpha must be float, got '2.5'"),
    ("prior_config", {"kind": "xyz"},
     f"prior_config: prior kind must be one of {PRIOR_KINDS}, got 'xyz'"),
    ("prior_config", {"combine_with": ["time_decay"]},
     "prior_config: combine_with must be empty, got ['time_decay']"),
], ids=["labels-int", "labels-str", "seed-str", "seed-bool", "train-config-int",
        "prior-config-null", "no-seed", "lam-bool", "alpha-str", "prior-kind", "combine-with"])
def test_malformed_predictions_meta_names_file_and_key(tmp_path, predictions, capsys,
                                                       key, value, words):
    data, source = predictions
    preds = tmp_path / "preds"
    shutil.copytree(source, preds)
    path = preds / "predictions_meta.json"
    meta = json.loads(path.read_text())
    if value is ...:
        del meta[key]
    else:
        meta[key] = value
    path.write_text(json.dumps(meta), encoding="utf-8")
    capsys.readouterr()
    assert main(["evaluate", "--data", str(data), "--predictions", str(preds)]) == 1
    assert capsys.readouterr().err == f"error: {path}: {words}\n"


def test_evaluate_rejects_a_repeated_obs_id(tmp_path, predictions, capsys):
    # A doubled predictions file would count each sighting twice; scoring a
    # subset stays legal, so only a repeat is an error.
    data, source = predictions
    preds = tmp_path / "preds"
    shutil.copytree(source, preds)
    path = preds / "predictions.jsonl"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + lines) + "\n")
    assert main(["evaluate", "--data", str(data), "--predictions", str(preds)]) == 1
    obs_id = json.loads(lines[0])["obs_id"]
    assert capsys.readouterr().err == (f"error: {path}: record {len(lines) + 1} ({obs_id}):"
                                       f" obs_id {obs_id!r} repeats record 1\n")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("cls, key", [
    (TrainConfig, "learning_rate"), (TrainConfig, "lam"),
    (PriorConfig, "time_unit_days"), (PriorConfig, "cell_size_km"),
    (SimConfig, "longtail_exponent"), (SimConfig, "home_range_cells"), (SimConfig, "fg_noise"),
    (SimConfig, "obs_rate"), (SimConfig, "duration_days"),
])
def test_config_values_must_be_finite(cls, key, value):
    with pytest.raises(ConfigError) as exc:
        cls(**{key: value})
    assert str(exc.value).startswith(f"{key} must be finite and "), exc.value
    assert str(exc.value).endswith(f", got {value}"), exc.value


def test_cli_names_a_non_finite_config_value(tmp_path, predictions, capsys):
    # A NaN time unit would make every confidence NaN, and a NaN learning
    # rate would read as divergence: each is named as the config value it is.
    data, _ = predictions
    model = data.parent / "model.json"
    for section, body, argv in (
        ("prior", {"kind": "time_decay", "time_unit_days": math.nan},
         ["infer", "--data", str(data), "--model", str(model), "--out", str(tmp_path / "p")]),
        ("train", {"learning_rate": math.nan},
         ["train", "--data", str(data), "--out", str(tmp_path / "m.json")]),
    ):
        cfg = _write_config(tmp_path / f"{section}.json", {section: body})
        assert main([*argv, "--config", cfg]) == 1, section
        key = next(k for k in body if k != "kind")
        assert capsys.readouterr().err == (
            f"error: {section}: {key} must be finite and positive, got nan\n")
    assert not (tmp_path / "p").exists()


_NON_FINITE = {"W": lambda c: c["W"][0].__setitem__(0, math.nan),
               "b_T": lambda c: c.update(b_T=math.inf)}


@pytest.mark.parametrize("case, command", [("seed", "simulate"), ("W", "infer"), ("W", "calibrate"),
                                           ("b_T", "infer"), ("b_T", "calibrate")])
def test_a_failure_exits_one_with_one_line_naming_its_cause(tmp_path, predictions, capsys, case,
                                                            command):
    # Each of these once failed later, in numpy or in the softmax, naming no
    # field and, for an infinite b_T, printing a column of temperatures.
    data, _ = predictions
    if case == "seed":
        argv = ["simulate", "--preset", "lynx", "--seed", "-1", "--out", str(tmp_path / "d")]
        named = "seed must be non-negative"
    else:
        checkpoint = json.loads((data.parent / "model.json").read_text())
        _NON_FINITE[case](checkpoint)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(checkpoint), encoding="utf-8")
        argv = [command, "--data", str(data), "--model", str(path)]
        argv += ["--out", str(tmp_path / "p")] if command == "infer" else []
        named = f"{path}: checkpoint {case!r} must be finite"
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err, err
    assert not (tmp_path / "d").exists() and not (tmp_path / "p").exists()


def _numeric_leaves(value, path=()):
    """The path to every number in a JSON value; a boolean is no number."""
    if isinstance(value, dict):
        for key, entry in value.items():
            yield from _numeric_leaves(entry, (*path, key))
    elif isinstance(value, list):
        for index, entry in enumerate(value):
            yield from _numeric_leaves(entry, (*path, index))
    elif type(value) in (int, float):
        yield path


@pytest.fixture(scope="module")
def written(predictions):
    """Every kind of file the package writes, from one small run, plus a
    config file whose sections are the ones the run recorded."""
    data, preds = predictions
    root = data.parent
    assert main(["evaluate", "--data", str(data), "--predictions", str(preds),
                 "--out", str(root / "report.json")]) == 0
    sections = {"sim": json.loads((data / "dataset.json").read_text())["sim_config"],
                "train": json.loads((root / "model.json").read_text())["train_config"],
                "prior": json.loads((preds / "predictions_meta.json").read_text())["prior_config"]}
    _write_config(root / "sections.json", sections)
    return root


def _reader(kind, root, key=None):
    """The command that reads a file of ``kind`` (a config section: the one
    named ``key``) under ``root``."""
    data, model, out = str(root / "data"), str(root / "model.json"), str(root / f"{kind}-{key}")
    return {
        "record": ["train", "--data", data, "--out", out],
        "sidecar": ["train", "--data", data, "--out", out],
        "checkpoint": ["infer", "--data", data, "--model", model, "--out", out],
        "meta": ["evaluate", "--data", data, "--predictions", str(root / "preds")],
        "prediction": ["evaluate", "--data", data, "--predictions", str(root / "preds")],
        "report": ["report", str(root / "report.json")],
        "section": {"sim": ["simulate", "--out", out],
                    "train": ["train", "--data", data, "--out", out],
                    "prior": ["infer", "--data", data, "--model", model, "--out", out]}.get(key),
    }[kind]


# Per kind: its file, and whether it holds one record per line.
_FILES = {"record": ("data/observations.jsonl", True), "sidecar": ("data/dataset.json", False),
          "checkpoint": ("model.json", False), "section": ("sections.json", False),
          "meta": ("preds/predictions_meta.json", False),
          "prediction": ("preds/predictions.jsonl", True), "report": ("report.json", False)}
# Numbers no reader takes as numbers, per kind: the sidecar's record of the
# run that simulated it, and a prediction's T_i and resolved location.
_CARRIED = {"sidecar": ("sim_config", "seed"), "prediction": ("T_i", "resolved_loc")}


def _place(kind, where, path):
    """For the number at ``path`` in a file of ``kind``: the failure's where,
    its key and the path of the value it shows; None when no reader types it."""
    head = path[0]
    if head in ("train_config", "prior_config"):  # a run config a checkpoint, meta or report holds
        return f"{where}: {head}", path[1], path[:2]
    if kind == "section":
        return ("sim.grid", path[2], path[:3]) if path[:2] == ("sim", "grid") else (
            head, path[1], path[:2])
    if kind == "prediction" and head in ("posterior_top5", "likelihood_top5"):
        return (where, f"{head}[0]", path[:2]) if path[1] == 0 else None  # only top entries
    return None if head in _CARRIED.get(kind, ()) else (where, head, path[:1])


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def test_each_written_file_passes_its_spec(written, tmp_path, capsys):
    root = tmp_path / "run"
    shutil.copytree(written, root)
    for kind in _FILES:
        for key in ("sim", "train", "prior") if kind == "section" else (None,):
            config = ["--config", str(root / "sections.json")] if kind == "section" else []
            assert main([*_reader(kind, root, key), *config]) == 0, (kind, key)
    capsys.readouterr()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_mistyped_number_fails_by_one_rule(written, data):
    # In any file the package writes, a number replaced by true or by its
    # string form fails with one line: where, the key, its type, the value.
    kind = data.draw(st.sampled_from(sorted(_FILES)), label="kind")
    name, per_line = _FILES[kind]
    text = (written / name).read_text()
    lines = text.splitlines()
    index = data.draw(st.integers(0, len(lines) - 1), label="line") if per_line else None
    doc = json.loads(lines[index] if per_line else text)
    leaves = [p for p in _numeric_leaves(doc) if _place(kind, "", p) is not None]
    path = data.draw(st.sampled_from(leaves), label="leaf")
    for bad in (True, str(_get(doc, path))):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp) / "run"
            shutil.copytree(written, root)
            edited = json.loads(json.dumps(doc))
            _get(edited, path[:-1])[path[-1]] = bad
            if per_line:
                lines_out = [*lines[:index], json.dumps(edited), *lines[index + 1:]]
                (root / name).write_text("\n".join(lines_out) + "\n")
            else:
                (root / name).write_text(json.dumps(edited))
            where = str(root / name)
            if per_line:
                where += (f": line {index + 1}" if kind == "record"
                          else f": record {index + 1} ({doc['obs_id']})")
            where, key, shown = _place(kind, where, path)
            config = ["--config", str(root / name)] if kind == "section" else []
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert main([*_reader(kind, root, path[0]), *config]) == 1, (kind, path, bad)
            line = err.getvalue()
            assert line.startswith(f"error: {where}: {key} must be "), line
            assert line.endswith(f", got {reprlib.repr(_get(edited, shown))}\n"), line
            assert line.count("\n") == 1, line


def test_infer_writes_the_library_record(tmp_path, config_path, capsys):
    # One record for the CLI and the library: the same checkpoints, config
    # file and prior give the same prediction directory, byte for byte.
    data, model, bg = (str(tmp_path / name) for name in ("data", "model.json", "bg.json"))
    prior = _write_config(tmp_path / "prior.json", {"prior": {"kind": MIGRATING_LOCATION,
                                                              "alpha": 0.5}})
    assert main(["simulate", "--config", config_path, "--out", data]) == 0
    assert main(["train", "--data", data, "--config", config_path, "--out", model]) == 0
    assert main(["train", "--data", data, "--config", config_path, "--model-kind", "background",
                 "--out", bg]) == 0
    assert main(["infer", "--data", data, "--model", model, "--config", prior,
                 "--background-model", bg, "--out", str(tmp_path / "cli")]) == 0
    capsys.readouterr()

    lib_model, tc = load_model_and_config(model)
    predictions, meta = infer(load_dataset(data), lib_model, tc,
                              PriorConfig(kind=MIGRATING_LOCATION, alpha=0.5,
                                          location_source="background_model"),
                              background_model=load_model(bg))
    write_predictions(predictions, tmp_path / "lib", lib_model.labels, MIGRATING_LOCATION, meta)
    names = sorted(p.name for p in (tmp_path / "cli").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "lib").iterdir())
    for name in names:
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()
    assert meta["train_config"] == tc.to_dict() and meta["seed"] == tc.seed == 5


def test_simulate_too_sparse_to_split_names_its_cause(tmp_path, capsys):
    # One sighting per identity passes the config check, but once every
    # identity has a train sighting none is left for the test split.
    cfg = tmp_path / "sparse.json"
    cfg.write_text(json.dumps({"sim": {"n_identities": 10, "obs_rate": 1.0}}), encoding="utf-8")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "obs_rate 1.0" in err and "n_identities 10" in err and "10 sightings" in err, err


@pytest.mark.parametrize("flag", [["--config", "c.json"], ["--seed", "1"]])
def test_evaluate_takes_no_config_or_seed(flag, capsys):
    # evaluate reads neither, so it accepts neither. calibrate reads no config
    # section, and it and infer take the seed from the checkpoint.
    evaluate_argv = ["evaluate", "--data", "d", "--predictions", "p"]
    calibrate_argv = ["calibrate", "--data", "d", "--model", "m"]
    infer_argv = ["infer", "--data", "d", "--model", "m", "--out", "p"]
    for command in {"--config": (evaluate_argv, calibrate_argv),
                    "--seed": (evaluate_argv, calibrate_argv, infer_argv)}[flag[0]]:
        with pytest.raises(SystemExit) as exc:
            main([*command, *flag])
        assert exc.value.code == 2, command
        assert "unrecognized arguments" in capsys.readouterr().err, command


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
