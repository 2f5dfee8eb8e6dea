# Independent straight-line reference implementations used as test oracles.
#
# Everything here is deliberately naive pure Python over lists and math:
# no shared code with the package, no numpy vectorization, no numerical
# stabilization tricks beyond what the formulas themselves require. If the
# package and these disagree, the package is wrong until proven otherwise.

import cmath
import math


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
