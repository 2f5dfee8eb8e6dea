"""Linear classifier with the temperature head, plus the background model."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from idfusion.calibration import fit_global_temperature, per_instance_softmax, pits_objective
from idfusion.classifier import (
    BackgroundLocationModel,
    PitsModel,
    TrainConfig,
    features_from,
    load_background_model,
    load_model,
    save_background_model,
    save_model,
    train,
    train_background_model,
)
from idfusion.data import Dataset, GridSpec, Location, build_catalog
from idfusion.errors import ConfigError, TrainingError
from idfusion.simulate import SimConfig, generate, lynx_like

from conftest import make_obs
from oracles import pits_loss_ref


def _two_identity_dataset(grid, per_id=(20, 20), d=4, noise=0.3, seed=0):
    """Linearly separable toy population: identity k clusters around 3 * e_k."""
    rng = np.random.default_rng(seed)
    obs = []
    t = 1.0
    for k, count in enumerate(per_id):
        center = np.zeros(d)
        center[k] = 3.0
        for j in range(count):
            fg = center + rng.normal(0.0, noise, size=d)
            split = "train" if j < count - 2 else "test"
            obs.append(
                make_obs(f"id{k}-{j}", k, t, grid.cell_center(k % grid.n_cells), fg=fg, split=split)
            )
            t += 1.0
    return Dataset.from_observations(obs, grid)


def test_features_from_kinds(grid2x2):
    o = make_obs("a", 0, 1.0, grid2x2.cell_center(0), fg=[1.0, 2.0, 3.0], bg=[4.0, 5.0])
    assert np.array_equal(features_from(o, "foreground"), [1.0, 2.0, 3.0])
    assert np.array_equal(features_from(o, "background"), [4.0, 5.0])
    assert np.array_equal(features_from(o, "whole"), [1.0, 2.0, 3.0, 4.0, 5.0])
    with pytest.raises(ConfigError):
        features_from(o, "both")


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(loss_kind="nll")
    with pytest.raises(ConfigError):
        TrainConfig(input_kind="fg")
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(lam=-0.1)


def test_forward_zero_weights_gives_softplus_floor():
    model = PitsModel(
        W=np.zeros((3, 2)),
        b=np.zeros(3),
        w_T=np.zeros(2),
        b_T=0.0,
        labels=(0, 1, 2),
        input_kind="foreground",
        temperature_head_active=True,
    )
    out = model.forward(np.array([1.0, -1.0]))
    assert np.allclose(out.logits, 0.0)
    assert out.temperature == pytest.approx(1.0 + math.log(2.0), abs=1e-12)


def test_forward_inactive_head_pins_unit_temperature():
    model = PitsModel(
        W=np.ones((2, 2)),
        b=np.zeros(2),
        w_T=np.full(2, 100.0),
        b_T=50.0,
        labels=(0, 1),
        input_kind="foreground",
        temperature_head_active=False,
    )
    assert model.forward(np.ones(2)).temperature == 1.0


def test_training_is_bit_deterministic(grid2x2):
    ds = _two_identity_dataset(grid2x2)
    catalog = build_catalog(ds)
    config = TrainConfig(loss_kind="pits", epochs=20, learning_rate=0.05, seed=3)
    m1 = train(ds, catalog, config)
    m2 = train(ds, catalog, config)
    assert np.array_equal(m1.W, m2.W)
    assert np.array_equal(m1.b, m2.b)
    assert np.array_equal(m1.w_T, m2.w_T)
    assert m1.b_T == m2.b_T
    assert m1.loss_history == m2.loss_history


def test_trained_temperatures_never_dip_below_one(grid2x2):
    ds = _two_identity_dataset(grid2x2, noise=1.0)
    model = train(ds, build_catalog(ds), TrainConfig(epochs=30, learning_rate=0.1))
    for o in ds.observations:
        assert model.forward(o.fg_features).temperature >= 1.0


def test_ce_batch_loss_matches_textbook_cross_entropy(grid2x2):
    ds = _two_identity_dataset(grid2x2)
    catalog = build_catalog(ds)
    model = train(ds, catalog, TrainConfig(loss_kind="ce", epochs=5, learning_rate=0.05))

    X = np.stack([o.fg_features for o in ds.train])
    y = np.array([o.identity for o in ds.train])
    Z = X @ model.W.T + model.b
    loss, _, _ = pits_objective(Z, y)
    got = float(np.mean(loss))

    shifted = Z - Z.max(axis=1, keepdims=True)
    probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
    want = float(np.mean(-np.log(probs[np.arange(len(y)), y])))
    assert got == pytest.approx(want, abs=1e-12)


def test_pits_batch_loss_matches_reference(grid2x2):
    rng = np.random.default_rng(9)
    model = PitsModel(
        W=rng.normal(size=(3, 4)),
        b=rng.normal(size=3),
        w_T=rng.normal(size=4) * 0.2,
        b_T=0.1,
        labels=(0, 1, 2),
        input_kind="foreground",
        temperature_head_active=True,
    )
    X = rng.normal(size=(16, 4))
    y = rng.integers(0, 3, size=16)
    targets = 1.0 + rng.uniform(0.0, 2.0, size=16)
    outs = [model.forward(x) for x in X]
    loss, _, _ = pits_objective(np.stack([o.logits for o in outs]), y,
                                np.array([o.temperature for o in outs]), targets, lam=0.1)
    got = float(np.mean(loss))
    per_row = [pits_loss_ref(list(out.logits), out.temperature, int(label), float(tgt), 0.1)
               for out, label, tgt in zip(outs, y, targets)]
    assert got == pytest.approx(float(np.mean(per_row)), abs=1e-12)


def test_full_batch_ce_descent_is_monotone(grid2x2):
    # Convex objective, full-batch steps, small annealed rate: each epoch's
    # mean loss must not rise beyond numeric jitter.
    ds = _two_identity_dataset(grid2x2)
    config = TrainConfig(loss_kind="ce", epochs=60, learning_rate=0.02, batch_size=1000)
    model = train(ds, build_catalog(ds), config)
    hist = model.loss_history
    assert all(hist[i + 1] <= hist[i] + 1e-9 for i in range(len(hist) - 1))


def test_rare_identity_runs_hotter_than_frequent(grid2x2):
    ds = _two_identity_dataset(grid2x2, per_id=(60, 6), noise=0.3, seed=1)
    catalog = build_catalog(ds)
    assert catalog.target_temperatures[1] > catalog.target_temperatures[0]
    model = train(ds, catalog, TrainConfig(epochs=150, learning_rate=0.1, batch_size=16))
    temps = {0: [], 1: []}
    for o in ds.train:
        temps[o.identity].append(model.forward(o.fg_features).temperature)
    assert np.mean(temps[1]) > np.mean(temps[0])


def test_training_error_reports_divergence(grid2x2):
    # Identical features under conflicting labels keep the gradient alive,
    # so an absurd step size overflows the logits instead of saturating.
    fg = [50.0, 50.0, 50.0, 50.0]
    obs = [
        make_obs("a", 0, 1.0, grid2x2.cell_center(0), fg=fg, d=4, split="train"),
        make_obs("b", 1, 2.0, grid2x2.cell_center(1), fg=fg, d=4, split="train"),
        make_obs("c", 0, 3.0, grid2x2.cell_center(0), fg=fg, d=4, split="test"),
    ]
    ds = Dataset.from_observations(obs, grid2x2)
    config = TrainConfig(loss_kind="ce", epochs=8, learning_rate=1e305, batch_size=64)
    with np.errstate(all="ignore"), pytest.raises(TrainingError, match="epoch"):
        train(ds, build_catalog(ds), config)


@pytest.mark.parametrize("loss_kind", ["ce", "pits"])
def test_training_error_when_the_last_update_overflows_the_weights(grid2x2, loss_kind):
    # One full batch, one epoch: the loss is finite before the only update,
    # so only a check of the weights themselves can see the overflow.
    ds = _two_identity_dataset(grid2x2)
    config = TrainConfig(loss_kind=loss_kind, epochs=1, learning_rate=1e308, batch_size=1000)
    with np.errstate(all="ignore"), pytest.raises(TrainingError, match="epoch 0"):
        train(ds, build_catalog(ds), config)


@pytest.mark.parametrize("config", [
    TrainConfig(loss_kind="pits", epochs=3, learning_rate=0.05, batch_size=7),
    TrainConfig(loss_kind="ce", input_kind="whole", epochs=3, batch_size=1000),
])
def test_training_leaves_the_observations_alone(grid2x2, config):
    ds = _two_identity_dataset(grid2x2)
    features = lambda: [(o.fg_features.tobytes(), o.bg_features.tobytes()) for o in ds.observations]
    before = features()
    train(ds, build_catalog(ds), config)
    train_background_model(ds, grid2x2, config)
    assert features() == before


def test_model_checkpoint_round_trip(tmp_path, grid2x2):
    ds = _two_identity_dataset(grid2x2)
    config = TrainConfig(epochs=10, learning_rate=0.05)
    model = train(ds, build_catalog(ds), config)
    path = tmp_path / "model.json"
    save_model(model, path, config=config)
    loaded = load_model(path)
    assert np.array_equal(loaded.W, model.W)
    assert np.array_equal(loaded.w_T, model.w_T)
    assert loaded.b_T == model.b_T
    assert loaded.labels == model.labels
    assert loaded.temperature_head_active == model.temperature_head_active
    assert loaded.loss_history == model.loss_history
    x = ds.test[0].fg_features
    assert np.array_equal(per_instance_softmax(loaded.forward(x)),
                          per_instance_softmax(model.forward(x)))


def test_background_checkpoint_round_trip(tmp_path):
    model = BackgroundLocationModel(W=np.arange(8.0).reshape(4, 2), b=np.array([0.0, 1.0, 2.0, 3.0]))
    path = tmp_path / "bg.json"
    save_background_model(model, path, config=TrainConfig())
    loaded = load_background_model(path)
    assert np.array_equal(loaded.W, model.W)
    assert np.array_equal(loaded.b, model.b)


def test_predict_location_one_hot_scores(grid2x2):
    model = BackgroundLocationModel(W=4.0 * np.eye(4), b=np.zeros(4))
    for c in range(4):
        x = np.zeros(4)
        x[c] = 1.0
        assert model.predict_location(x, grid2x2) == grid2x2.cell_center(c)
    # All-zero scores tie; the lowest cell index wins.
    assert model.predict_location(np.zeros(4), grid2x2) == grid2x2.cell_center(0)


def test_predict_location_validates_dims(grid2x2):
    model = BackgroundLocationModel(W=np.eye(4), b=np.zeros(4))
    with pytest.raises(ValueError):
        model.predict_location(np.zeros(3), grid2x2)
    wrong_grid = GridSpec(origin=Location(0.0, 0.0), cell_size_km=5.0, n_cells_x=3, n_cells_y=3)
    with pytest.raises(ValueError):
        model.predict_location(np.zeros(4), wrong_grid)


def test_background_model_localizes_strong_signal():
    config = SimConfig(
        n_identities=8,
        feature_dim=8,
        bg_feature_dim=16,
        grid=GridSpec(origin=Location(0.0, 0.0), cell_size_km=5.0, n_cells_x=3, n_cells_y=3),
        bg_cell_signal=1.0,
        obs_rate=12.0,
        duration_days=365.0,
        seed=5,
    )
    ds = generate(config)
    bg = train_background_model(ds, ds.grid, TrainConfig(epochs=60, learning_rate=0.1, seed=0))
    diagonal = config.grid.cell_size_km * math.sqrt(2.0)
    guesses = [(bg.predict_location(o.bg_features, ds.grid), o.location) for o in ds.test]
    errors = [math.hypot(g.x - loc.x, g.y - loc.y) for g, loc in guesses]
    assert float(np.median(errors)) <= diagonal


def test_background_model_blind_without_signal():
    config = SimConfig(
        n_identities=8,
        feature_dim=8,
        bg_feature_dim=16,
        grid=GridSpec(origin=Location(0.0, 0.0), cell_size_km=5.0, n_cells_x=3, n_cells_y=3),
        bg_cell_signal=0.0,
        obs_rate=12.0,
        duration_days=365.0,
        seed=5,
    )
    ds = generate(config)
    bg = train_background_model(ds, ds.grid, TrainConfig(epochs=60, learning_rate=0.1, seed=0))
    hits = [
        ds.grid.cell_index(bg.predict_location(o.bg_features, ds.grid))
        == ds.grid.cell_index(o.location)
        for o in ds.test
    ]
    # Nine cells: anything close to chance confirms there is nothing to learn.
    assert float(np.mean(hits)) < 2.5 / 9.0


# sha256 of the raw float64 bytes of each trained run's weights and loss
# history, recorded before the training step was made to work in place.
# Training may get faster, but any bit it moves fails here.
_LYNX_RECIPE = TrainConfig(loss_kind="pits", input_kind="foreground", learning_rate=1e-2,
                           batch_size=8)
TRAINING_DIGESTS = {
    # 700 train sightings: the last batch of 8 is a partial one.
    "pits-recipe": (_LYNX_RECIPE,
                    "4c2bf693ed58e75aca58194b4a89d7bd8bbeccc63885b0e497a8cdafecc02dbc"),
    "ce-whole-32": (TrainConfig(loss_kind="ce", input_kind="whole", learning_rate=1e-2,
                                batch_size=32, epochs=30, seed=1),
                    "b228e9675a5244b4e17a0e4e68430edcc434f51b88f333ef4eaa40b62c01c62e"),
    # Batches of 12 and a last one of 4: dividing by 12 is not exact, so
    # an update that reorders its scaling moves bits here.
    "pits-batch-12": (TrainConfig(learning_rate=2e-2, batch_size=12, epochs=20, seed=4),
                      "b6409a5ad0de76e930934f0da986f5dae5264c0bb7147e008a86b7d0547d5c96"),
    "pits-one-batch": (TrainConfig(learning_rate=5e-2, batch_size=5000, epochs=40, seed=3),
                       "5828f602d521915a2ae9ca9a2865d9d2c045e23355a03920b92058ce86ae096b"),
}
BACKGROUND_DIGEST = "eee56a273f6166842cba79ab0761be6c1bbcea889a27697b17babc09e035c81c"
GLOBAL_TEMPERATURE_HEX = "0x1.88f05afd5cd1ap+0"


def _sha256_of(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def lynx0():
    return generate(lynx_like(0))


@pytest.mark.parametrize("name", sorted(TRAINING_DIGESTS))
def test_trained_weights_are_pinned(lynx0, name):
    config, want = TRAINING_DIGESTS[name]
    m = train(lynx0, build_catalog(lynx0), config)
    assert _sha256_of(m.W, m.b, m.w_T, [m.b_T], m.loss_history) == want


def test_background_weights_are_pinned(lynx0):
    bg = train_background_model(lynx0, lynx0.grid, replace(_LYNX_RECIPE, seed=1))
    assert _sha256_of(bg.W, bg.b) == BACKGROUND_DIGEST


def test_global_temperature_is_pinned():
    rng = np.random.default_rng(4)
    labels = rng.integers(0, 25, size=300)
    logits = rng.normal(size=(300, 25)) * 3.0
    logits[np.arange(300), labels] += 6.0
    assert fit_global_temperature(logits, labels).hex() == GLOBAL_TEMPERATURE_HEX
