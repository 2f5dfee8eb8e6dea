"""Background priors over identities: where and when each animal tends to be.

Three prior families share one exponential-decay shape:

  home location   p(k) proportional to exp(-alpha * dist(home_k, l))
  migrating       p(k) proportional to exp(-alpha * dist(last_k, l)),
                  with last_k updated to the capture location whenever the
                  fused posterior picks k
  time decay      p(k) proportional to exp(-beta * |last_seen_k - t|)

Distances are measured in grid cells (km divided by the cell size) and time
gaps in configurable units, 30-day months by default, so alpha and beta keep
the same meaning across datasets. The state holds the one anchor per identity
that the prior decays from; only the migrating and time priors move it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .classifier import PitsModel
from .data import GridSpec, IdentityCatalog, Location, Observation, _labels, check_finite
from .errors import ConfigError

HOME_LOCATION = "home_location"
MIGRATING_LOCATION = "migrating_location"
TIME_DECAY = "time_decay"
UNIFORM = "uniform"
PRIOR_KINDS = (UNIFORM, HOME_LOCATION, MIGRATING_LOCATION, TIME_DECAY)

LOCATION_SOURCES = ("metadata", "background_model")


@dataclass(frozen=True)
class PriorConfig:
    """Which prior runs and with what decay constants.

    A zero decay constant is legal and makes the corresponding prior uniform.
    A run fuses one prior kind, with distances in grid cells: ``distance_unit``
    and ``combine_with`` accept only ``"cells"`` and empty, and stay fields
    only so that run records keep their keys.
    """

    kind: str = UNIFORM
    location_source: str = "metadata"
    alpha: float = 2.5
    beta: float = 3.0
    time_unit_days: float = 30.0
    cell_size_km: float = 5.0
    distance_unit: str = "cells"
    combine_with: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "combine_with", tuple(self.combine_with))
        if self.kind not in PRIOR_KINDS:
            raise ConfigError(f"prior kind must be one of {PRIOR_KINDS}, got {self.kind!r}")
        if self.location_source not in LOCATION_SOURCES:
            raise ConfigError(
                f"location_source must be one of {LOCATION_SOURCES}, got {self.location_source!r}"
            )
        if self.distance_unit != "cells":
            raise ConfigError(f"distance_unit must be 'cells', got {self.distance_unit!r}")
        if self.combine_with:
            raise ConfigError(f"combine_with must be empty, got {list(self.combine_with)!r}")
        check_finite(self, positive=("time_unit_days", "cell_size_km"),
                     non_negative=("alpha", "beta"))

    def to_dict(self) -> dict:
        return {**asdict(self), "combine_with": list(self.combine_with)}


@dataclass
class PriorState:
    """Mutable per-identity state threaded through sequential inference.

    ``labels`` are distinct non-negative ints, stored as a tuple. ``anchors``
    holds, ordered like ``labels``, what ``config``'s prior decays from: (K,)
    last-seen times for the time prior, else (K, 2) locations, the homes for the
    home and uniform priors and the last capture locations for the migrating
    prior. The migrating and time priors move a winner's row.
    """

    labels: tuple[int, ...]
    anchors: np.ndarray
    config: PriorConfig

    def __post_init__(self) -> None:
        self.labels = _labels(self.labels, "prior state")
        self.anchors = np.asarray(self.anchors, dtype=np.float64)
        shape = (len(self.labels),) + (() if self.config.kind == TIME_DECAY else (2,))
        if self.anchors.shape != shape or not np.isfinite(self.anchors).all():
            raise ValueError(f"the {self.config.kind} prior's anchors must be finite and of shape"
                             f" {shape}, got shape {self.anchors.shape}")


def init_state(catalog: IdentityCatalog, config: PriorConfig) -> PriorState:
    """Fresh state: each identity's final training sighting for the time prior,
    else its home."""
    labels = catalog.identities
    if config.kind == TIME_DECAY:
        anchors = [catalog.last_train_time[k] for k in labels]
    else:
        anchors = [(catalog.home_locations[k].x, catalog.home_locations[k].y) for k in labels]
    return PriorState(labels=labels, anchors=np.array(anchors), config=config)


def decay(offsets: np.ndarray, rate: float) -> np.ndarray:
    """Normalized exp(-rate * offset) along the last axis, written over
    ``offsets``; rate 0 gives the uniform prior."""
    # Subtracting the min before exponentiating changes nothing after the
    # normalization but keeps exp() away from underflow at large rates.
    # exp(-746) is already 0, so clamping at 746 / rate moves no bit and
    # keeps rate * offset from overflowing.
    offsets -= offsets.min(axis=-1, keepdims=True)
    if rate > 0:
        np.minimum(offsets, 746.0 / rate, out=offsets)
    offsets *= -rate
    weights = np.exp(offsets, out=offsets)
    weights /= weights.sum(axis=-1, keepdims=True)
    return weights


def decay_offsets(config: PriorConfig, anchors: np.ndarray, points: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """(n, K) offsets of ``points`` from ``anchors``, into ``out`` if given: for the time
    prior the gaps in time units between (n,) and (K,) times, else the distances in cells
    between (n, 2) and (K, 2) locations; one point gives one (K,) row. Each entry is
    ``anchor - point``, then abs or hypot, then the unit, so its bits hold in any shape,
    a point as anchor too."""
    if config.kind == TIME_DECAY:
        gaps = np.abs(np.subtract(anchors, points[..., None], out=out), out=out)
        gaps /= config.time_unit_days
        return gaps
    dx = np.subtract(anchors[:, 0], points[..., :1], out=out)
    dist = np.hypot(dx, anchors[:, 1] - points[..., 1:], out=dx)
    dist /= config.cell_size_km
    return dist


def decay_terms(state: PriorState, xy: np.ndarray, timestamps: np.ndarray) -> tuple:
    """The state's anchors, the points of sightings ``xy`` (n, 2) at ``timestamps`` (n,),
    and the rate of the state's decaying prior; writing a point to an anchor writes the state."""
    if state.config.kind == TIME_DECAY:
        return state.anchors, timestamps, state.config.beta
    return state.anchors, xy, state.config.alpha


def prior_rows(state: PriorState, xy: np.ndarray, timestamps) -> np.ndarray:
    """The configured prior from the current state, at sightings given by
    ``xy`` (n, 2) and ``timestamps`` (n,) or an (n, 1) column: one normalized
    (n, K) row each. A single sighting may come as ``xy`` (2,) and a timestamp
    of shape () or (1,), giving one (K,) row.

    Every step works along the label axis alone, so a row has the same bits
    whichever block it is evaluated in, ``sequential_infer``'s included.
    """
    if state.config.kind == UNIFORM:
        return np.full(np.shape(xy)[:-1] + (len(state.labels),), 1.0 / len(state.labels))
    anchors, points, rate = decay_terms(state, xy, np.reshape(timestamps, np.shape(xy)[:-1]))
    return decay(decay_offsets(state.config, anchors, points), rate)


def update_location(state: PriorState, label: int, loc: Location) -> None:
    """Move ``label``'s anchor in a migrating prior's state to ``loc``."""
    state.anchors[state.labels.index(label)] = (loc.x, loc.y)


def update_last_seen(state: PriorState, label: int, timestamp: float) -> None:
    """Stamp ``label`` as seen at ``timestamp`` in a time prior's state."""
    state.anchors[state.labels.index(label)] = timestamp


def check_background_model(model: PitsModel, grid: GridSpec, what: str = "background model") -> None:
    """ConfigError naming ``what`` unless ``model`` scores ``grid``'s cells 0 .. n_cells - 1
    from background features, as ``classifier.train_background_model`` trains it."""
    if model.input_kind != "background" or model.labels != tuple(range(grid.n_cells)):
        raise ConfigError(f"{what} must score the grid's {grid.n_cells} cells from background"
                          f" features, not {model.n_classes} labels from {model.input_kind} features")


def resolve_locations(observations: Sequence[Observation], config: PriorConfig,
                      background_model: PitsModel | None = None,
                      grid: GridSpec | None = None) -> list[Location]:
    """Capture location used by the spatial priors, for each observation.

    Either the trusted metadata location or, when coordinates cannot be
    trusted or are absent, the centre of the cell that the background model
    scores highest from scene features, ties to the lowest cell: one check of
    the model and one ``forward_rows`` call over the background rows, so a
    sighting resolves to the same cell alone or in a block.
    """
    if config.location_source == "metadata":
        return [o.location for o in observations]
    if background_model is None or grid is None:
        raise ConfigError("location_source='background_model' requires a background model and the grid")
    check_background_model(background_model, grid)
    logits, _ = background_model.forward_rows(np.array([o.bg_features for o in observations]))
    return list(map(Location, *grid.cell_centers(logits.argmax(axis=1)).T.tolist()))


def resolve_location(obs: Observation, config: PriorConfig, background_model: PitsModel | None = None,
                     grid: GridSpec | None = None) -> Location:
    """:func:`resolve_locations` for one observation."""
    return resolve_locations((obs,), config, background_model, grid)[0]


def prior_vector(
    state: PriorState,
    obs: Observation,
    background_model: PitsModel | None = None,
    grid: GridSpec | None = None,
) -> tuple[np.ndarray, Location]:
    """Evaluate the configured prior at one observation. Returns the
    normalized prior and the location it used."""
    loc = resolve_location(obs, state.config, background_model, grid)
    return prior_rows(state, np.array([loc.x, loc.y]), obs.timestamp), loc
