"""Background priors over identities: where and when each animal tends to be.

Three prior families share one exponential-decay shape:

  home location   p(k) proportional to exp(-alpha * dist(home_k, l))
  migrating       p(k) proportional to exp(-alpha * dist(last_k, l)),
                  with last_k updated to the capture location whenever the
                  fused posterior picks k
  time decay      p(k) proportional to exp(-beta * |last_seen_k - t|)

Distances are measured in grid cells (km divided by the cell size) and time
gaps in configurable units, 30-day months by default, so alpha and beta keep
the same meaning across datasets.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .classifier import PitsModel
from .data import GridSpec, IdentityCatalog, Location, Observation, check_finite
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

    Arrays are ordered like ``labels``. The migrating prior mutates
    ``last_loc_xy``; the time-decay prior mutates ``last_seen``.
    """

    labels: tuple[int, ...]
    home_xy: np.ndarray
    last_loc_xy: np.ndarray
    last_seen: np.ndarray
    config: PriorConfig
    # A labels tuple sequential_infer found equal to ``labels``; tuples never change.
    _matched_labels: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.home_xy = np.asarray(self.home_xy, dtype=np.float64)
        self.last_loc_xy = np.asarray(self.last_loc_xy, dtype=np.float64)
        self.last_seen = np.asarray(self.last_seen, dtype=np.float64)
        k = len(self.labels)
        if self.home_xy.shape != (k, 2) or self.last_loc_xy.shape != (k, 2):
            raise ValueError("location arrays must be (n_labels, 2)")
        if self.last_seen.shape != (k,):
            raise ValueError("last_seen must have one entry per label")
        for name in ("home_xy", "last_loc_xy", "last_seen"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")


def init_state(catalog: IdentityCatalog, config: PriorConfig) -> PriorState:
    """Fresh state: last-known locations start at the homes, times at the
    final training sighting of each identity."""
    labels = catalog.identities
    home_xy = np.array(
        [[catalog.home_locations[k].x, catalog.home_locations[k].y] for k in labels]
    )
    last_seen = np.array([catalog.last_train_time[k] for k in labels])
    return PriorState(
        labels=labels,
        home_xy=home_xy,
        last_loc_xy=home_xy.copy(),
        last_seen=last_seen,
        config=config,
    )


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
    """The anchors, the points of sightings ``xy`` (n, 2) at ``timestamps`` (n,), and the
    rate of the state's decaying prior; writing a point to an anchor writes the state."""
    config = state.config
    if config.kind == TIME_DECAY:
        return state.last_seen, timestamps, config.beta
    anchors = state.home_xy if config.kind == HOME_LOCATION else state.last_loc_xy
    return anchors, xy, config.alpha


def prior_rows(
    state: PriorState, xy: np.ndarray, timestamps, out: np.ndarray | None = None
) -> np.ndarray:
    """The configured prior from the current state, at sightings given by
    ``xy`` (n, 2) and ``timestamps`` (n,) or an (n, 1) column: one normalized
    (n, K) row each, written to ``out`` when it is given. A single sighting may
    come as ``xy`` (2,) and a timestamp of shape () or (1,), giving one (K,) row.

    Every step works along the label axis alone, so a row has the same bits
    whichever block it is evaluated in.
    """
    if state.config.kind != UNIFORM:
        anchors, points, rate = decay_terms(state, xy, np.reshape(timestamps, np.shape(xy)[:-1]))
        return decay(decay_offsets(state.config, anchors, points, out), rate)
    k = len(state.labels)
    if out is None:
        return np.full(np.shape(xy)[:-1] + (k,), 1.0 / k)
    out.fill(1.0 / k)
    return out


def update_location(state: PriorState, label: int, loc: Location) -> None:
    state.last_loc_xy[state.labels.index(label)] = (loc.x, loc.y)


def update_last_seen(state: PriorState, label: int, timestamp: float) -> None:
    state.last_seen[state.labels.index(label)] = timestamp


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
