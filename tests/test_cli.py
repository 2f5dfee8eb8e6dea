"""Command-line workflow: simulate, train, calibrate, infer, evaluate, report."""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from idfusion.calibration import expected_calibration_error, fit_global_temperature, tempered_softmax
from idfusion.classifier import TrainConfig, load_background_model, load_model, load_model_and_config
from idfusion.cli import main
from idfusion.data import load_dataset
from idfusion.evaluation import infer, load_report, run_experiment
from idfusion.fusion import write_predictions
from idfusion.priors import MIGRATING_LOCATION, PriorConfig


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
    assert main(["train", "--data", data, "--config", config_path, "--out", model_path]) == 0
    assert main(["calibrate", "--data", data, "--model", model_path, "--out", str(out)]) == 0
    capsys.readouterr()

    ds = load_dataset(data)
    model = load_model(model_path)
    logits = np.stack([model.forward(o.fg_features).logits for o in ds.train])
    labels = np.array([model.labels.index(o.identity) for o in ds.train])
    stored = json.loads(out.read_text())
    t_star = fit_global_temperature(logits, labels)
    assert stored["temperature"] == t_star
    assert stored["n_evaluated"] == len(ds.test)
    # Scored out of sample, from logits computed one observation at a time.
    logits = np.stack([model.forward(o.fg_features).logits for o in ds.test])
    labels = np.array([model.labels.index(o.identity) if o.identity in model.labels else -1
                       for o in ds.test])
    for key, t in (("ece_before", 1.0), ("ece_after", t_star)):
        assert stored[key] == expected_calibration_error(tempered_softmax(logits, t), labels).ece
    # The seed is the model's (5), from its checkpoint's train_config, as infer records it.
    assert stored["seed"] == 5


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

    # A checkpoint or a report holding a list names the file.
    empty = tmp_path / "empty.json"
    empty.write_text("[]", encoding="utf-8")
    for argv in (["calibrate", "--data", data, "--model", str(empty)],
                 ["infer", "--data", data, "--model", str(empty), "--out", str(tmp_path / "p3")],
                 ["report", str(empty)]):
        assert "empty.json: file must hold a JSON object" in error_line(argv)

    # A checkpoint missing a key, or holding a wrongly shaped array, names
    # the file and the key.
    bg = str(tmp_path / "bg.json")
    assert main(["train", "--data", data, "--config", config_path,
                 "--model-kind", "background", "--out", bg]) == 0
    capsys.readouterr()
    for name, flag, source in (("identity", "--model", model),
                               ("background", "--background-model", bg)):
        for case, edit, words in (
            ("missing", lambda c: c.pop("W"), ("has no 'W'",)),
            ("shape", lambda c: c.update(b=c["b"][:-1]), ("'b' has shape", "expected")),
        ):
            checkpoint = json.loads(Path(source).read_text())
            edit(checkpoint)
            path = tmp_path / f"{name}-{case}.json"
            path.write_text(json.dumps(checkpoint), encoding="utf-8")
            checkpoints = {"--model": model, flag: str(path)}
            err = error_line(["infer", "--data", data, "--out", str(tmp_path / "p4"),
                              *(arg for pair in checkpoints.items() for arg in pair)])
            assert f"{path}: checkpoint" in err and all(w in err for w in words), err

    # The model checkpoint's train_config is the run's provenance: infer and
    # calibrate check it as a config section and name the file when it fails.
    for case, edit, words in (
        ("no-train-config", lambda c: c.pop("train_config"), "has no 'train_config'"),
        ("bad-seed", lambda c: c["train_config"].update(seed="abc"), "seed must be int"),
    ):
        checkpoint = json.loads(Path(model).read_text())
        edit(checkpoint)
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps(checkpoint), encoding="utf-8")
        for argv in (["infer", "--data", data, "--model", str(path), "--out", str(tmp_path / "p6")],
                     ["calibrate", "--data", data, "--model", str(path)]):
            err = error_line(argv)
            assert f"{path}: checkpoint" in err and "'train_config'" in err and words in err, err

    # A report whose per_identity has a key that is not a label names the
    # file and the key.
    preds, report = str(tmp_path / "p5"), tmp_path / "report.json"
    assert main(["infer", "--data", data, "--model", model, "--out", preds]) == 0
    assert main(["evaluate", "--data", data, "--predictions", preds, "--out", str(report)]) == 0
    capsys.readouterr()
    body = json.loads(report.read_text())
    body["per_identity"]["x"] = 0.5
    report.write_text(json.dumps(body), encoding="utf-8")
    err = error_line(["report", str(report)])
    assert f"{report}: per_identity key 'x'" in err, err


def test_malformed_dataset_record_names_file_line_and_field(tmp_path, config_path, capsys):
    data = tmp_path / "data"
    assert main(["simulate", "--config", config_path, "--out", str(data)]) == 0
    path = data / "observations.jsonl"
    lines = path.read_text().splitlines()
    for edit, words in ((lambda r: r.pop("t"), "record has no 't'"),
                        (lambda r: r.update(t=None), "field 't': "),
                        (lambda r: r.update(loc=[1.0]), "field 'loc': "),
                        (lambda r: r.update(fg="x"), "field 'fg': ")):
        rec = json.loads(lines[2])
        edit(rec)
        path.write_text("\n".join([*lines[:2], json.dumps(rec), *lines[3:]]) + "\n")
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "m.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: line 3: {words}") and err.count("\n") == 1, err


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
], ids=["no-obs-id", "empty-top5", "confidence-above-1", "nan-confidence"])
def test_malformed_prediction_record_names_file_and_record(tmp_path, predictions, capsys,
                                                           edit, words):
    data, source = predictions
    preds = tmp_path / "preds"
    shutil.copytree(source, preds)
    path = preds / "predictions.jsonl"
    lines = path.read_text().splitlines()
    rec = json.loads(lines[1])
    obs_id = rec["obs_id"]
    edit(rec)
    path.write_text("\n".join([lines[0], json.dumps(rec), *lines[2:]]) + "\n")
    capsys.readouterr()
    assert main(["evaluate", "--data", str(data), "--predictions", str(preds)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}: {words.format(id=obs_id)}\n", err


@pytest.mark.parametrize("key, value, words", [
    ("labels", 7, "'labels' must be a list of ints, got 7"),
    ("labels", ["0"], "'labels' must be a list of ints, got ['0']"),
    ("seed", "abc", "'seed' must be an int, got 'abc'"),
    ("seed", True, "'seed' must be an int, got True"),
    ("train_config", 5, "'train_config' must be an object, got 5"),
    ("prior_config", None, "'prior_config' must be an object, got None"),
    ("seed", ..., "'seed' must be an int, got None"),
], ids=["labels-int", "labels-str", "seed-str", "seed-bool", "train-config-int",
        "prior-config-null", "no-seed"])
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
                              background_model=load_background_model(bg))
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
