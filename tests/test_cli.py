"""Command-line workflow: simulate, train, calibrate, infer, evaluate, report."""

import json
from pathlib import Path

import numpy as np
import pytest

from idfusion.calibration import fit_global_temperature
from idfusion.classifier import TrainConfig, load_model
from idfusion.cli import main
from idfusion.data import load_dataset
from idfusion.evaluation import load_report, run_experiment
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


@pytest.fixture
def config_path(tmp_path):
    cfg = {
        "seed": 5,
        "sim": SIM_SECTION,
        "train": {"epochs": 15, "learning_rate": 0.05, "batch_size": 16},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


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
    assert stored["temperature"] == fit_global_temperature(logits, labels)
    assert stored["n_evaluated"] == len(ds.test)
    # No --config here: the seed is the model's (5), as infer records it.
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


@pytest.mark.parametrize("flag", [["--config", "c.json"], ["--seed", "1"]])
def test_evaluate_takes_no_config_or_seed(flag, capsys):
    # evaluate reads neither, so it accepts neither.
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--data", "d", "--predictions", "p", *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
