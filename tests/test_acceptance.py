"""Release acceptance suite: ten end-to-end checks that gate a release.

Each check prints one PASS line with its headline numbers (via
``capsys.disabled`` so the line survives capture); a failing check reads as
an ordinary pytest failure. The two preset studies pin every reported metric
to the exact value observed on the first green run, so silent behavioural
drift anywhere in the pipeline fails here even while the qualitative
orderings still hold. Runs 7 and 8 are the slow ones and share their
training work through module-scoped fixtures.
"""

import filecmp
import hashlib
import json
import time

import numpy as np
import pytest

from idfusion.calibration import (
    ece_from_top_predictions,
    fit_global_temperature,
    pits_objective,
    tempered_softmax,
)
from idfusion.classifier import PitsModel, TrainConfig
from idfusion.cli import main
from idfusion.data import GridSpec, Location
from idfusion.evaluation import STANDARD_ROWS, run_row_suite
from idfusion.fusion import sequential_infer
from idfusion.priors import (
    HOME_LOCATION,
    MIGRATING_LOCATION,
    TIME_DECAY,
    UNIFORM,
    PriorConfig,
    prior_rows,
    prior_vector,
)
from idfusion.simulate import generate, lynx_like, turtle_like

from conftest import make_obs, make_state
from oracles import brute_force_sequential, numeric_pits_grad

ALL_PRIOR_KINDS = (UNIFORM, HOME_LOCATION, MIGRATING_LOCATION, TIME_DECAY)

# Shared training recipe for both preset studies. Chosen once; every pinned
# number below depends on it, so treat changes as a new baseline.
ACCEPT_TRAIN = TrainConfig(learning_rate=1e-2, batch_size=8, seed=0)

LYNX_ROW_NAMES = (
    "bg_ce_uniform",
    "whole_ce_uniform",
    "fg_ce_uniform",
    "fg_pits_uniform",
    "fg_pits_migrating",
)
TURTLE_ROW_NAMES = (
    "fg_ce_uniform",
    "fg_pits_uniform",
    "fg_pits_home",
    "fg_pits_migrating",
    "fg_pits_time",
)


def _rows(names):
    by_name = {row[0]: row for row in STANDARD_ROWS}
    return tuple(by_name[n] for n in names)


def _announce(capsys, text):
    with capsys.disabled():
        print(f"\n{text}")


@pytest.fixture(scope="module")
def lynx_suite():
    start = time.monotonic()
    reports = run_row_suite(
        generate(lynx_like(seed=1)),
        rows=_rows(LYNX_ROW_NAMES),
        base_train=ACCEPT_TRAIN,
    )
    return reports, time.monotonic() - start


@pytest.fixture(scope="module")
def turtle_suite():
    start = time.monotonic()
    reports = run_row_suite(
        generate(turtle_like(seed=0)),
        rows=_rows(TURTLE_ROW_NAMES),
        base_train=ACCEPT_TRAIN,
    )
    return reports, time.monotonic() - start


def test_01_loss_gradients_match_finite_differences(capsys):
    """dL/dz and dL/dT agree with complex-step derivatives on 100 random cases."""
    rng = np.random.default_rng(7)
    start = time.monotonic()
    worst = 0.0
    for i in range(100):
        k = (2, 10, 100)[i % 3]
        z = rng.normal(0.0, 3.0, size=k)
        # The temperature head never emits below 1, so test over its range.
        t = float(rng.uniform(1.0, 5.0))
        target = float(rng.uniform(1.0, 3.0))
        label = int(rng.integers(0, k))

        _, grad_z, grad_t = pits_objective(
            z[None, :], np.array([label]), np.array([t]), np.array([target])
        )
        num_z, num_t = numeric_pits_grad(list(z), t, label, target, 0.1)

        analytic = np.append(grad_z[0], grad_t)
        numeric = np.append(num_z, num_t)
        keep = np.abs(analytic) >= 1e-8
        rel = np.abs(analytic[keep] - numeric[keep]) / np.abs(analytic[keep])
        worst = max(worst, float(rel.max()))
    elapsed = time.monotonic() - start

    assert worst < 1e-4
    assert elapsed < 5.0
    _announce(
        capsys,
        f"PASS 1/10 gradient check: max rel err {worst:.2e} < 1e-4 "
        f"over 100 instances in {elapsed:.2f}s",
    )


def test_02_temperature_preserves_argmax(capsys):
    """Scaling by any positive temperature never moves the top prediction."""
    rng = np.random.default_rng(11)
    failures = 0
    for _ in range(1000):
        k = int(rng.integers(2, 51))
        z = rng.normal(0.0, 4.0, size=k)
        base = int(np.argmax(z))
        for t in (0.5, 1.0, 2.0, 10.0, 50.0):
            if int(np.argmax(tempered_softmax(z, t))) != base:
                failures += 1
    assert failures == 0
    _announce(
        capsys,
        "PASS 2/10 argmax invariance: 0 failures over 1000 logit vectors "
        "x 5 temperatures",
    )


def test_03_loss_reduces_to_cross_entropy(capsys):
    """With unit targets and T pinned to 1 the tempered loss is plain CE."""
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(2, 21))
        m = int(rng.integers(1, 65))
        z = rng.normal(0.0, 2.0, size=(m, k))
        labels = rng.integers(0, k, size=m)

        loss, _, _ = pits_objective(z, labels, np.ones(m), np.ones(m))
        ours = np.mean(loss)
        shifted = z - z.max(axis=1, keepdims=True)
        log_norm = np.log(np.exp(shifted).sum(axis=1))
        ce = float(np.mean(log_norm - shifted[np.arange(m), labels]))
        worst = max(worst, abs(float(ours) - ce))
    assert worst < 1e-12
    _announce(
        capsys,
        f"PASS 3/10 CE reduction: max |pits - ce| {worst:.2e} < 1e-12 "
        "over 50 random batches",
    )


def test_04_sequential_fusion_matches_brute_force(capsys):
    """The streaming path reproduces an independent full recomputation."""
    grid = GridSpec(origin=Location(0.0, 0.0), cell_size_km=5.0, n_cells_x=2, n_cells_y=2)
    seeds = {UNIFORM: 11, HOME_LOCATION: 22, MIGRATING_LOCATION: 33, TIME_DECAY: 44}
    checked = 0
    worst = 0.0
    for kind in ALL_PRIOR_KINDS:
        rng = np.random.default_rng(seeds[kind])
        for _ in range(20):
            k = int(rng.integers(2, 6))
            d = int(rng.integers(2, 5))
            n_obs = int(rng.integers(1, 21))
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
            # The state mutates during inference; hand the oracle copies.
            state = make_state(tuple(range(k)),
                               PriorConfig(kind=kind, alpha=2.5, beta=3.0, cell_size_km=5.0),
                               homes, last_seen)
            obs = [
                make_obs(
                    f"o{j:03d}",
                    int(rng.integers(0, k)),
                    float(rng.uniform(1.0, 300.0)),
                    Location(float(rng.uniform(0, 10)), float(rng.uniform(0, 10))),
                    fg=rng.normal(size=d),
                )
                for j in range(n_obs)
            ]

            preds = sequential_infer(model, state, obs, grid=grid)
            ref_obs = [
                {"obs_id": o.obs_id, "x": list(o.fg_features),
                 "loc": (o.location.x, o.location.y), "t": o.timestamp}
                for o in obs
            ]
            ref_posts, ref_preds = brute_force_sequential(
                W.tolist(), b.tolist(), w_T.tolist(), b_T,
                ref_obs, kind,
                [tuple(h) for h in homes], list(last_seen),
            )
            assert [p.predicted for p in preds] == ref_preds
            for p, ref in zip(preds, ref_posts):
                diff = float(np.max(np.abs(p.posterior - np.asarray(ref))))
                worst = max(worst, diff)
                assert diff < 1e-12
                checked += 1
    _announce(
        capsys,
        f"PASS 4/10 fusion vs brute force: {checked} posteriors across "
        f"4 prior kinds, worst entry diff {worst:.2e} < 1e-12",
    )


def test_05_priors_normalize_and_match_hand_values(capsys):
    """Every prior is a distribution; the two-home example hits its values."""
    rng = np.random.default_rng(17)
    worst = 0.0
    for kind in ALL_PRIOR_KINDS:
        for _ in range(50):
            k = int(rng.integers(2, 9))
            homes, moved = rng.uniform(0.0, 40.0, size=(2, k, 2))
            state = make_state(tuple(range(k)),
                               PriorConfig(kind=kind, alpha=2.5, beta=3.0, cell_size_km=5.0),
                               moved if kind == MIGRATING_LOCATION else homes,
                               rng.uniform(0.0, 400.0, size=k))
            obs = make_obs(
                "q", 0, float(rng.uniform(0.0, 500.0)),
                Location(float(rng.uniform(0, 40)), float(rng.uniform(0, 40))),
            )
            p, _ = prior_vector(state, obs)
            assert np.all(p >= 0.0)
            worst = max(worst, abs(float(p.sum()) - 1.0))
    assert worst < 1e-12

    state = make_state((0, 1), PriorConfig(kind=HOME_LOCATION, alpha=2.5, cell_size_km=5.0),
                       homes=[[0.0, 0.0], [3.0, 4.0]])
    p = prior_rows(state, np.array([0.0, 0.0]), 0.0)
    assert p[0] == pytest.approx(0.9241, abs=1e-4)
    assert p[1] == pytest.approx(0.0759, abs=1e-4)
    _announce(
        capsys,
        f"PASS 5/10 prior normalization: worst |sum - 1| {worst:.2e} < 1e-12; "
        f"two-home example ({p[0]:.4f}, {p[1]:.4f}) within 1e-4",
    )


def _top1_ece(probs, labels, n_bins):
    """ECE from each row's top-1 confidence and hit, as calibrate and scoring read them."""
    return ece_from_top_predictions(probs.max(axis=1), probs.argmax(axis=1) == labels,
                                    n_bins=n_bins).ece


def test_06_calibration_metrics(capsys):
    """Hand-computed ECE fixtures are exact; the fitter recovers T = 2."""
    # All one-hot and correct: zero gap in the top bin.
    probs = np.eye(3)[[0, 1, 2, 0, 1, 2]]
    assert _top1_ece(probs, np.array([0, 1, 2, 0, 1, 2]), n_bins=15) == 0.0

    # Fully confident but half wrong: a single bin with gap 0.5.
    assert _top1_ece(probs, np.array([0, 1, 2, 1, 2, 0]), n_bins=15) == 0.5

    # Two occupied bins out of ten; written in the same float arithmetic the
    # hand computation uses, so equality is exact.
    probs = np.array([[0.6, 0.4], [0.6, 0.4], [0.9, 0.1], [0.9, 0.1]])
    labels = np.array([0, 1, 0, 0])
    fixture3 = _top1_ece(probs, labels, n_bins=10)
    assert fixture3 == 0.5 * abs(0.5 - 0.6) + 0.5 * abs(1.0 - 0.9)

    # Monte Carlo recovery: labels drawn at temperature 2 over 10k rows.
    rng = np.random.default_rng(5)
    z = rng.normal(0.0, 2.0, size=(10000, 5))
    hot = np.apply_along_axis(tempered_softmax, 1, z, 2.0)
    labels = np.array([rng.choice(5, p=row) for row in hot])
    fitted = fit_global_temperature(z, labels)
    assert fitted == pytest.approx(2.0, abs=0.1)
    _announce(
        capsys,
        f"PASS 6/10 calibration metrics: ECE fixtures 0.0 / 0.5 / {fixture3:.2f} "
        f"exact; fitted T {fitted:.4f} within 0.1 of 2.0",
    )


def test_07_lynx_preset_row_ordering(lynx_suite, capsys):
    """Feature quality and the movement prior stack as designed.

    Ordering asked of the pipeline: background-only < whole-features and
    foreground+CE < foreground+PITS < foreground+PITS+movement prior, with
    the prior worth at least five points over the whole-feature baseline and
    background-only worst on never-seen locations. Exact values pinned from
    the first green run.
    """
    reports, elapsed = lynx_suite
    bg = reports["bg_ce_uniform"]
    whole = reports["whole_ce_uniform"]
    fg_ce = reports["fg_ce_uniform"]
    fg_pits = reports["fg_pits_uniform"]
    fused = reports["fg_pits_migrating"]

    assert bg.overall_accuracy < whole.overall_accuracy
    assert bg.overall_accuracy < fg_ce.overall_accuracy
    assert max(whole.overall_accuracy, fg_ce.overall_accuracy) < fg_pits.overall_accuracy
    assert fg_pits.overall_accuracy < fused.overall_accuracy
    assert fused.overall_accuracy >= whole.overall_accuracy + 0.05

    others = [whole, fg_ce, fg_pits, fused]
    assert all(bg.new_location_accuracy < r.new_location_accuracy for r in others)

    assert bg.n_test == 300 and bg.n_new_location == 18
    pins = {
        "bg_ce_uniform": (79 / 300, 0 / 18),
        "whole_ce_uniform": (149 / 300, 4 / 18),
        "fg_ce_uniform": (153 / 300, 7 / 18),
        "fg_pits_uniform": (157 / 300, 7 / 18),
        "fg_pits_migrating": (193 / 300, 7 / 18),
    }
    for name, (acc, nl) in pins.items():
        assert reports[name].overall_accuracy == pytest.approx(acc, abs=1e-12)
        assert reports[name].new_location_accuracy == pytest.approx(nl, abs=1e-12)

    assert elapsed < 120.0
    _announce(
        capsys,
        "PASS 7/10 lynx-like study: accuracy 0.263 (bg) < 0.497 (whole) < "
        "0.510 (fg+ce) < 0.523 (fg+pits) < 0.643 (fg+pits+moving prior), "
        f"prior gain +{fused.overall_accuracy - whole.overall_accuracy:.3f} "
        f">= 0.05, in {elapsed:.1f}s",
    )


def test_08_turtle_preset_time_decay_gain(turtle_suite, capsys):
    """On one shared site only the temporal prior helps.

    All identities share a single cell, so the location-driven priors have
    nothing to separate: home must match the uniform rows exactly and the
    moving prior must stay within a point. The time prior carries at least
    three points over the CE baseline. Exact values pinned from the first
    green run.
    """
    reports, elapsed = turtle_suite
    fg_ce = reports["fg_ce_uniform"]
    fg_pits = reports["fg_pits_uniform"]
    home = reports["fg_pits_home"]
    moving = reports["fg_pits_migrating"]
    timed = reports["fg_pits_time"]

    assert timed.overall_accuracy >= fg_ce.overall_accuracy + 0.03
    assert home.overall_accuracy == fg_pits.overall_accuracy
    assert abs(moving.overall_accuracy - fg_pits.overall_accuracy) <= 0.01

    assert fg_ce.n_test == 210
    pins = {
        "fg_ce_uniform": 101 / 210,
        "fg_pits_uniform": 104 / 210,
        "fg_pits_home": 104 / 210,
        "fg_pits_migrating": 103 / 210,
        "fg_pits_time": 131 / 210,
    }
    for name, acc in pins.items():
        assert reports[name].overall_accuracy == pytest.approx(acc, abs=1e-12)

    assert elapsed < 120.0
    _announce(
        capsys,
        "PASS 8/10 turtle-like study: time prior 0.624 >= 0.481 (fg+ce) + 0.03; "
        "home == uniform exactly, moving prior within a point, "
        f"in {elapsed:.1f}s",
    )


def test_09_calibration_improves_over_uncalibrated(lynx_suite, capsys):
    """The tempered loss and the fused prior both lower ECE on lynx-like data.

    Margins pinned from the first green run: the tempered loss takes the
    likelihood ECE from 0.1653 to 0.1245 and the full fused configuration
    beats the whole-feature baseline's 0.1726 at 0.1224.
    """
    reports, _ = lynx_suite
    ece_ce = reports["fg_ce_uniform"].ece_likelihood
    ece_pits = reports["fg_pits_uniform"].ece_likelihood
    ece_baseline = reports["whole_ce_uniform"].ece_fused
    ece_fused = reports["fg_pits_migrating"].ece_fused

    assert ece_pits < ece_ce
    assert ece_fused < ece_baseline
    assert ece_fused < reports["fg_ce_uniform"].ece_fused

    assert ece_ce == pytest.approx(0.16531377010763004, abs=1e-12)
    assert ece_pits == pytest.approx(0.12453566245956318, abs=1e-12)
    assert ece_baseline == pytest.approx(0.1726178039959901, abs=1e-12)
    assert ece_fused == pytest.approx(0.12239658346795407, abs=1e-12)
    assert ece_ce - ece_pits >= 0.04
    assert ece_baseline - ece_fused >= 0.05

    _announce(
        capsys,
        f"PASS 9/10 calibration improvement: likelihood ECE {ece_ce:.4f} -> "
        f"{ece_pits:.4f} from the loss alone; fused ECE {ece_fused:.4f} vs "
        f"baseline {ece_baseline:.4f}",
    )


def test_10_same_seed_runs_are_byte_identical(tmp_path, capsys):
    """Two full pipeline runs from one seed produce identical artifacts,
    and the prediction files match sha256 digests pinned before the
    softmax, scoring and inference paths were merged, so a refactor that
    moves one bit fails here."""
    cfg = {
        "seed": 9,
        "sim": {
            "n_identities": 6,
            "feature_dim": 8,
            "bg_feature_dim": 6,
            "grid": {"origin": [0.0, 0.0], "cell_size_km": 5.0,
                     "n_cells_x": 2, "n_cells_y": 2},
            "home_range_cells": 0.5,
            "migration_prob": 0.2,
            "fg_noise": 1.0,
            "obs_rate": 10.0,
            "duration_days": 240.0,
        },
        "train": {"epochs": 15, "learning_rate": 0.05, "batch_size": 16},
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")

    def run(tag):
        base = tmp_path / tag
        base.mkdir()
        data = str(base / "data")
        model = str(base / "model.json")
        preds = str(base / "preds")
        report = str(base / "report.json")
        assert main(["simulate", "--config", str(config), "--out", data]) == 0
        assert main(["train", "--data", data, "--config", str(config),
                     "--loss", "pits", "--out", model]) == 0
        assert main(["infer", "--data", data, "--model", model,
                     "--prior", "migrating_location", "--out", preds]) == 0
        assert main(["evaluate", "--data", data, "--predictions", preds,
                     "--out", report]) == 0
        return base

    first = run("first")
    second = run("second")
    capsys.readouterr()

    report_match = filecmp.cmp(first / "report.json", second / "report.json", shallow=False)
    preds_match = filecmp.cmp(
        first / "preds" / "predictions.jsonl",
        second / "preds" / "predictions.jsonl",
        shallow=False,
    )
    assert report_match and preds_match
    digests = {
        name: hashlib.sha256((first / "preds" / name).read_bytes()).hexdigest()
        for name in ("predictions.jsonl", "predictions_meta.json")
    }
    assert digests == {
        # Simulated at the top-level seed (9); before simulate honoured it the
        # data came from seed 0, and "seed": 9 inside "sim" gave these bytes.
        "predictions.jsonl": "28580e4a9c4fbe95135e4cc2e4317b93fc46fd5b6f4937bcf4c8252cb6a38924",
        # Records the checkpoint's training config and seed (9), not a stub;
        # the config has no lr_schedule or noise_std since TrainConfig lost
        # both, and the record no model_input_kind, which repeated the
        # config's input_kind: these bytes are the earlier file's without
        # those keys, rewritten by write_json.
        "predictions_meta.json": "5802041dde7ab9ffd3ffb7f81d3ac056011245f2c5037e98ef52cea0c12728bc",
    }
    size = (first / "report.json").stat().st_size
    _announce(
        capsys,
        f"PASS 10/10 determinism: same-seed pipeline runs agree byte for byte "
        f"(report.json {size} bytes, predictions.jsonl identical, sha256 pinned)",
    )
