# Independent straight-line reference implementations used as test oracles.
#
# Everything here is deliberately naive pure Python over lists and math:
# no shared code with the package, no numpy vectorization, no numerical
# stabilization tricks beyond what the formulas themselves require. If the
# package and these disagree, the package is wrong until proven otherwise.
# The one exception is the reference simulator at the end, which must draw
# from numpy's generator because the bytes it pins come from that stream.

import cmath
import math

import numpy as np


def softmax_t(z, t):
    """exp(z_k/t) / sum, no max subtraction."""
    exps = [math.exp(v / t) for v in z]
    total = sum(exps)
    return [e / total for e in exps]


def pits_loss_ref(z, t, label, target, lam):
    p = softmax_t(z, t)
    return -math.log(p[label]) + lam * (t - target) ** 2


def _complex_pits_loss(z, t, label, target, lam):
    """pits_loss_ref in complex arithmetic, for complex-step derivatives."""
    exps = [cmath.exp(v / t) for v in z]
    return -cmath.log(exps[label] / sum(exps)) + lam * (t - target) ** 2


def numeric_pits_grad(z, t, label, target, lam):
    """Complex-step derivatives of pits_loss_ref in every coordinate:
    dL/dx = Im L(x + ih) / h. Nothing is subtracted, so the step can be
    1e-30 and the result is exact to rounding, small entries included."""
    h = 1e-30
    grad_z = []
    for j in range(len(z)):
        zc = [complex(v) for v in z]
        zc[j] += 1j * h
        grad_z.append(_complex_pits_loss(zc, t, label, target, lam).imag / h)
    grad_t = _complex_pits_loss(z, t + 1j * h, label, target, lam).imag / h
    return grad_z, grad_t


def top_entries(row, labels, n):
    """[label, value] pairs of the n largest entries of row, equal values in
    index order: a stable sort of -row."""
    values = [float(v) for v in row]
    order = sorted(range(len(values)), key=lambda i: -values[i])
    return [[labels[i], values[i]] for i in order[:n]]


def ece_ref(confidences, correct, n_bins):
    """Top-label ECE with equal-width bins over (0, 1]."""
    bins = [[] for _ in range(n_bins)]
    for c, ok in zip(confidences, correct):
        b = math.ceil(c * n_bins) - 1
        b = min(max(b, 0), n_bins - 1)
        bins[b].append((c, 1.0 if ok else 0.0))
    n = len(confidences)
    total = 0.0
    for members in bins:
        if not members:
            continue
        conf = sum(c for c, _ in members) / len(members)
        acc = sum(a for _, a in members) / len(members)
        total += len(members) / n * abs(acc - conf)
    return total


# ---------------------------------------------------------------------------
# Brute-force sequential inference over a linear model with a temperature
# head, for small instances. Observations are plain dicts:
#   {"obs_id": str, "x": [float], "loc": (x, y), "t": float}
# and the model is plain nested lists. Prior kinds: "uniform",
# "home_location", "migrating_location", "time_decay".
# ---------------------------------------------------------------------------


def _forward(weights, bias, w_t, b_t, x):
    z = [sum(wr[j] * x[j] for j in range(len(x))) + bias[i]
         for i, wr in enumerate(weights)]
    u = sum(w_t[j] * x[j] for j in range(len(x))) + b_t
    temp = 1.0 + math.log1p(math.exp(u)) if u < 30 else 1.0 + u
    return z, temp


def _decay_prior(anchors, loc, alpha, cell_size):
    weights = []
    for ax, ay in anchors:
        d = math.sqrt((ax - loc[0]) ** 2 + (ay - loc[1]) ** 2) / cell_size
        weights.append(math.exp(-alpha * d))
    total = sum(weights)
    return [w / total for w in weights]


def _time_prior(last_seen, t, beta, unit):
    weights = [math.exp(-beta * abs(tau - t) / unit) for tau in last_seen]
    total = sum(weights)
    return [w / total for w in weights]


def brute_force_sequential(
    weights, bias, w_t, b_t,
    observations, prior_kind,
    homes, last_seen,
    alpha=2.5, beta=3.0, cell_size=5.0, time_unit=30.0,
):
    """Returns (posteriors, predictions) in processed order.

    State handling mirrors the published update rules: the fused argmax
    (ties to the lowest index) drives the update, the migrating prior moves
    the winner's anchor, the time prior refreshes the winner's clock, and
    the home/uniform priors touch nothing.
    """
    k = len(homes)
    anchors = [tuple(h) for h in homes]
    clocks = list(last_seen)

    order = sorted(range(len(observations)),
                   key=lambda i: (observations[i]["t"], observations[i]["obs_id"], i))
    posteriors = []
    predictions = []
    for i in order:
        obs = observations[i]
        z, temp = _forward(weights, bias, w_t, b_t, obs["x"])
        like = softmax_t(z, temp)
        if prior_kind == "uniform":
            prior = [1.0 / k] * k
        elif prior_kind == "home_location":
            prior = _decay_prior([tuple(h) for h in homes], obs["loc"], alpha, cell_size)
        elif prior_kind == "migrating_location":
            prior = _decay_prior(anchors, obs["loc"], alpha, cell_size)
        elif prior_kind == "time_decay":
            prior = _time_prior(clocks, obs["t"], beta, time_unit)
        else:
            raise ValueError(prior_kind)

        if prior_kind == "uniform":
            post = list(like)
        else:
            prod = [like[j] * prior[j] for j in range(k)]
            total = sum(prod)
            post = [v / total for v in prod]

        best = 0
        for j in range(1, k):
            if post[j] > post[best]:
                best = j
        if prior_kind == "migrating_location":
            anchors[best] = tuple(obs["loc"])
        elif prior_kind == "time_decay":
            clocks[best] = obs["t"]
        posteriors.append(post)
        predictions.append(best)
    return posteriors, predictions


# ---------------------------------------------------------------------------
# Reference simulator: the per-sighting loop `simulate.generate` ran before it
# drew and built whole arrays at a time. Each sighting draws its jitter, its
# foreground noise and its background noise through three `normal` calls and
# becomes one `Observation` through the public constructor. Only the draws
# shared by every version (counts, prototypes, signatures, homes, season
# times) come from the package.
# ---------------------------------------------------------------------------


def _reference_stream(config, k, count, attempt, fg_prototype, home_cell, phase):
    from idfusion.data import Location
    from idfusion.simulate import _season_times

    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(1, k, attempt)))
    grid = config.grid
    if config.seasonal_bursts > 0:
        times = _season_times(rng, count, config, phase)
    else:
        times = rng.uniform(1e-6, config.duration_days, size=count)
    times = np.sort(times)

    hrow, hcol = divmod(home_cell, grid.n_cells_x)
    center = grid.cell_center(home_cell)
    sightings = []
    for t in times:
        if rng.uniform() < config.migration_prob:
            hrow = min(max(hrow + rng.integers(-1, 2), 0), grid.n_cells_y - 1)
            hcol = min(max(hcol + rng.integers(-1, 2), 0), grid.n_cells_x - 1)
            center = grid.cell_center(hrow * grid.n_cells_x + hcol)
        jitter = rng.normal(0.0, config.home_range_cells * grid.cell_size_km, size=2)
        x = min(max(center.x + jitter[0], grid.origin.x),
                grid.origin.x + grid.cell_size_km * grid.n_cells_x)
        y = min(max(center.y + jitter[1], grid.origin.y),
                grid.origin.y + grid.cell_size_km * grid.n_cells_y)
        loc = Location(x, y)
        fg = fg_prototype + rng.normal(0.0, config.fg_noise, size=config.feature_dim)
        bg_noise = rng.normal(0.0, 1.0, size=config.bg_feature_dim)
        sightings.append((float(t), grid.cell_index(loc), fg, bg_noise, loc))
    return sightings


def reference_generate(config):
    """The dataset `simulate.generate(config)` must equal, field for field and
    feature byte for feature byte."""
    from idfusion.data import TEST, TRAIN, Dataset, Observation
    from idfusion.errors import SimulationError, SplitError
    from idfusion.simulate import COVERAGE_RETRIES, _sample_counts

    global_rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(0,)))
    grid = config.grid
    counts = _sample_counts(global_rng, config)
    fg_prototypes = global_rng.normal(0.0, 1.0, size=(config.n_identities, config.feature_dim))
    cell_signatures = global_rng.normal(0.0, 1.0, size=(grid.n_cells, config.bg_feature_dim))
    home_cells = global_rng.integers(0, grid.n_cells, size=config.n_identities)
    season_phase = float(global_rng.uniform())

    def stream(k, attempt):
        return _reference_stream(config, k, int(counts[k]), attempt, fg_prototypes[k],
                                 int(home_cells[k]), season_phase)

    streams = [stream(k, 0) for k in range(config.n_identities)]
    cutoff = float(np.quantile([s[0] for st in streams for s in st], config.cutoff_quantile))
    for k in range(config.n_identities):
        for attempt in range(1, COVERAGE_RETRIES + 1):
            if any(s[0] < cutoff for s in streams[k]):
                break
            streams[k] = stream(k, attempt)
        else:
            raise SimulationError(f"identity {k} drew no sighting before the cutoff")

    raw = [(t, k, cell, fg, bg_noise, loc)
           for k, st in enumerate(streams) for (t, cell, fg, bg_noise, loc) in st]
    raw.sort(key=lambda r: (r[0], r[1]))
    observations = []
    for i, (t, k, cell, fg, bg_noise, loc) in enumerate(raw):
        bg = config.bg_cell_signal * cell_signatures[cell] + (1.0 - config.bg_cell_signal) * bg_noise
        observations.append(Observation(
            obs_id=f"o{i:06d}", identity=k, fg_features=fg, bg_features=bg,
            location=loc, timestamp=t, split=TRAIN if t < cutoff else TEST,
        ))
    if all(o.split == TEST for o in observations):
        raise SplitError(f"no observations before cutoff {cutoff}")
    if all(o.split == TRAIN for o in observations):
        raise SplitError(f"no observations at or after cutoff {cutoff}")
    return Dataset.from_observations(observations, grid)
