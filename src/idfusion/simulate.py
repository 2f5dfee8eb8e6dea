"""Synthetic sighting generator with a long-tailed identity distribution.

Each identity gets a home cell, an appearance prototype, and its own random
substream, so adding identities or changing one identity's draw count never
perturbs the others. Foreground features are noisy prototypes; background
features blend a per-cell signature (a random embedding of the cell one-hot)
with noise, which controls how much the scenery gives away the location. A
seasonal mode concentrates sightings into one shared recurring active block
per cycle, with each identity attending a random subset of cycles, for
populations that surface in bursts rather than year-round.

An identity's substream draws its sighting times first, then per sighting,
in time order: one uniform that decides whether the home drifts, the two
integer steps of a drift when it does, and one standard-normal row of
2 + feature_dim + bg_feature_dim values (location jitter, foreground noise,
background noise). Everything else is computed a whole array at a time, and
each observation holds one row of the dataset's two feature matrices.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import (
    Dataset, GridSpec, Location, _observations_from_rows, _split_tags, from_fields,
)
from .errors import ConfigError, SimulationError

logger = logging.getLogger(__name__)

COVERAGE_RETRIES = 100


def _default_grid() -> GridSpec:
    return GridSpec(origin=Location(0.0, 0.0), cell_size_km=5.0, n_cells_x=6, n_cells_y=6)


@dataclass(frozen=True)
class SimConfig:
    """Knobs for one synthetic population."""

    n_identities: int = 25
    feature_dim: int = 32
    bg_feature_dim: int = 24
    grid: GridSpec = field(default_factory=_default_grid)
    longtail_exponent: float = 1.0
    home_range_cells: float = 0.5
    migration_prob: float = 0.08
    fg_noise: float = 1.0
    bg_cell_signal: float = 0.8
    obs_rate: float = 40.0
    duration_days: float = 1460.0
    cutoff_quantile: float = 0.7
    seasonal_bursts: int = 0
    season_duty: float = 0.5
    season_attendance: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_identities < 2:
            raise ConfigError("need at least two identities")
        if self.feature_dim < 1 or self.bg_feature_dim < 1:
            raise ConfigError("feature dims must be positive")
        if self.longtail_exponent < 0:
            raise ConfigError("longtail_exponent must be non-negative")
        if self.home_range_cells < 0:
            raise ConfigError("home_range_cells must be non-negative")
        if not 0 <= self.migration_prob <= 1:
            raise ConfigError("migration_prob must lie in [0, 1]")
        if self.fg_noise < 0:
            raise ConfigError("fg_noise must be non-negative")
        if not 0 <= self.bg_cell_signal <= 1:
            raise ConfigError("bg_cell_signal must lie in [0, 1]")
        if not 0 < self.cutoff_quantile < 1:
            raise ConfigError("cutoff_quantile must lie strictly inside (0, 1)")
        if self.obs_rate <= 0 or self.duration_days <= 0:
            raise ConfigError("obs_rate and duration_days must be positive")
        if round(self.obs_rate * self.n_identities) < self.n_identities:
            raise ConfigError(
                f"obs_rate {self.obs_rate} gives {round(self.obs_rate * self.n_identities)}"
                f" sightings for {self.n_identities} identities; every identity needs one"
            )
        if self.seasonal_bursts < 0:
            raise ConfigError("seasonal_bursts must be non-negative")
        if not 0 < self.season_duty <= 1:
            raise ConfigError("season_duty must lie in (0, 1]")
        if not 0 < self.season_attendance <= 1:
            raise ConfigError("season_attendance must lie in (0, 1]")

    def to_dict(self) -> dict:
        return {**asdict(self), "grid": self.grid.to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "SimConfig":
        """Inverse of :meth:`to_dict`; raises ConfigError naming the section."""
        if isinstance(d, dict) and isinstance(d.get("grid"), dict):
            d = {**d, "grid": GridSpec.from_dict(d["grid"], "sim.grid")}
        return from_fields(cls, d, "sim")


def zipf_weights(n: int, exponent: float) -> np.ndarray:
    """Normalized rank weights 1/r^s; exponent 0 is uniform."""
    ranks = np.arange(1, n + 1, dtype=np.float64)
    w = ranks ** -exponent
    return w / w.sum()


def _sample_counts(rng: np.random.Generator, config: SimConfig) -> np.ndarray:
    total = int(round(config.obs_rate * config.n_identities))
    counts = rng.multinomial(total, zipf_weights(config.n_identities, config.longtail_exponent))
    # Every identity must exist in the data; steal from the head for any
    # rank that drew zero.
    for k in range(config.n_identities):
        if counts[k] == 0:
            donor = int(np.argmax(counts))
            counts[donor] -= 1
            counts[k] += 1
    return counts


def _season_times(
    rng: np.random.Generator, count: int, config: SimConfig, phase: float
) -> np.ndarray:
    """Timestamps restricted to a shared recurring active block.

    The duration splits into ``seasonal_bursts`` cycles. Every cycle has one
    active block of ``season_duty`` of its length, placed at the same
    population-wide ``phase`` offset, so the block never spills past the
    cycle end. An identity attends each cycle with probability
    ``season_attendance`` (at least one cycle always), and its sightings
    spread uniformly over the blocks of its attended cycles.
    """
    cycle = config.duration_days / config.seasonal_bursts
    active = cycle * config.season_duty
    offset = phase * (cycle - active)
    attended = rng.uniform(size=config.seasonal_bursts) < config.season_attendance
    if not attended.any():
        attended[rng.integers(0, config.seasonal_bursts)] = True
    choices = np.flatnonzero(attended)
    cycles = choices[rng.integers(0, len(choices), size=count)]
    starts = rng.uniform(0.0, 1.0, size=count)
    return np.maximum(cycles * cycle + offset + starts * active, 1e-6)


def _clamp(v: np.ndarray, lo: float, hi: float) -> np.ndarray:
    # min(max(v, lo), hi) element by element, signed zeros included: each
    # bound replaces v only where it is strictly beyond it.
    v = np.where(lo > v, lo, v)
    return np.where(hi < v, hi, v)


def _identity_stream(
    config: SimConfig, k: int, count: int, attempt: int, home_cell: int, phase: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sightings for one identity: sorted times, x, y and a (count, d + d_bg)
    matrix whose row i holds sighting i's foreground then background
    standard-normal draws.

    The substream key includes the retry attempt so a redraw is a fresh,
    reproducible stream rather than a continuation.
    """
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(1, k, attempt)))
    grid = config.grid

    if config.seasonal_bursts > 0:
        times = _season_times(rng, count, config, phase)
    else:
        times = rng.uniform(1e-6, config.duration_days, size=count)
    times = np.sort(times)

    nx = grid.n_cells_x
    hrow, hcol = divmod(home_cell, nx)
    homes = []
    z = np.empty((count, 2 + config.feature_dim + config.bg_feature_dim))
    for row in z:
        if rng.uniform() < config.migration_prob:
            # The home itself drifts one cell and stays there, so later
            # sightings follow the animal rather than snapping back.
            hrow = min(max(hrow + rng.integers(-1, 2), 0), grid.n_cells_y - 1)
            hcol = min(max(hcol + rng.integers(-1, 2), 0), nx - 1)
        homes.append(hrow * nx + hcol)
        rng.standard_normal(out=row)

    # normal(0, scale) draws 0.0 + scale * z; adding 0.0 last keeps its zero sign.
    jitter = z[:, :2] * (config.home_range_cells * grid.cell_size_km) + 0.0
    rows, cols = np.divmod(np.array(homes, dtype=np.intp), nx)
    x = _clamp(grid.origin.x + (cols + 0.5) * grid.cell_size_km + jitter[:, 0],
               grid.origin.x, grid.origin.x + grid.cell_size_km * nx)
    y = _clamp(grid.origin.y + (rows + 0.5) * grid.cell_size_km + jitter[:, 1],
               grid.origin.y, grid.origin.y + grid.cell_size_km * grid.n_cells_y)
    return times, x, y, z[:, 2:]


def _cell_indices(grid: GridSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """:meth:`GridSpec.cell_index` of every (x, y); numpy's float floor
    division rounds as Python's does."""
    col = np.clip(((x - grid.origin.x) // grid.cell_size_km).astype(np.intp), 0, grid.n_cells_x - 1)
    row = np.clip(((y - grid.origin.y) // grid.cell_size_km).astype(np.intp), 0, grid.n_cells_y - 1)
    return row * grid.n_cells_x + col


def generate(config: SimConfig) -> Dataset:
    """Produce a split dataset satisfying every schema invariant.

    The temporal cutoff sits at the configured quantile of all timestamps on
    the first draw. Any identity that ends up with no sighting before the
    cutoff has its whole stream redrawn from a fresh substream, a bounded
    number of times, leaving every other identity untouched.

    Raises:
        SimulationError: if some identity still lacks train coverage after
            the retry budget.
    """
    global_rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(0,)))
    grid = config.grid
    n_ids, d = config.n_identities, config.feature_dim

    counts = _sample_counts(global_rng, config)
    fg_prototypes = global_rng.normal(0.0, 1.0, size=(n_ids, d))
    cell_signatures = global_rng.normal(0.0, 1.0, size=(grid.n_cells, config.bg_feature_dim))
    home_cells = global_rng.integers(0, grid.n_cells, size=n_ids)
    season_phase = float(global_rng.uniform())

    def stream(k: int, attempt: int) -> tuple[np.ndarray, ...]:
        return _identity_stream(config, k, int(counts[k]), attempt, int(home_cells[k]), season_phase)

    streams = [stream(k, 0) for k in range(n_ids)]
    cutoff = float(np.quantile(np.concatenate([s[0] for s in streams]), config.cutoff_quantile))

    for k in range(n_ids):
        for attempt in range(1, COVERAGE_RETRIES + 1):
            # Times are sorted and every stream holds at least one sighting.
            if streams[k][0][0] < cutoff:
                break
            streams[k] = stream(k, attempt)
        else:
            raise SimulationError(
                f"identity {k} drew no sighting before the cutoff in {COVERAGE_RETRIES}"
                " redraws; raise obs_rate or lower cutoff_quantile"
            )

    # Sightings in (time, identity) order, ties in stream order: a stable sort
    # of the times as the streams list them, identity by identity.
    times, x, y = (np.concatenate(parts) for parts in zip(*(s[:3] for s in streams)))
    owners = np.repeat(np.arange(n_ids), counts)
    order = np.argsort(times, kind="stable")
    slots = np.empty_like(order)
    slots[order] = np.arange(len(order))

    # Each identity's draws go straight to their sorted rows and are freed.
    fg = np.empty((len(order), d))
    bg = np.empty((len(order), config.bg_feature_dim))
    start = 0
    for k in range(n_ids):
        noise = streams[k][3]
        streams[k] = None
        rows = slots[start:start + len(noise)]
        start += len(noise)
        # prototype + normal(0.0, fg_noise) and normal(0.0, 1.0), drawn as the jitter is.
        fg[rows] = noise[:, :d] * config.fg_noise + 0.0 + fg_prototypes[k]
        bg[rows] = noise[:, d:] + 0.0
    del noise

    x, y = x[order], y[order]
    bg *= 1.0 - config.bg_cell_signal
    bg += (config.bg_cell_signal * cell_signatures)[_cell_indices(grid, x, y)]

    timestamps = times[order].tolist()
    observations = _observations_from_rows(
        [f"o{i:06d}" for i in range(len(order))],
        owners[order].tolist(),
        fg,
        bg,
        list(map(Location, x.tolist(), y.tolist())),
        timestamps,
        _split_tags(timestamps, cutoff),
    )
    dataset = Dataset.from_observations(observations, grid)
    if dataset.test_only_identities:
        raise SimulationError(
            f"identities {sorted(dataset.test_only_identities)} missing from train after redraws"
        )
    return dataset


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------


def lynx_like(seed: int = 0) -> SimConfig:
    """Territorial carnivore survey: a compact grid where several animals
    share each cell, strong site fidelity, and rare permanent range shifts
    that leave the static home prior behind."""
    return SimConfig(
        n_identities=25,
        feature_dim=32,
        bg_feature_dim=12,
        grid=GridSpec(origin=Location(0.0, 0.0), cell_size_km=5.0, n_cells_x=3, n_cells_y=3),
        longtail_exponent=1.2,
        home_range_cells=0.35,
        migration_prob=0.02,
        fg_noise=2.8,
        bg_cell_signal=0.2,
        obs_rate=40.0,
        duration_days=1460.0,
        cutoff_quantile=0.7,
        seed=seed,
    )


def turtle_like(seed: int = 0) -> SimConfig:
    """Single nesting site shared by the whole population, so location
    carries no identity signal; everyone surfaces in the same annual season
    but attends only some years, and the late cutoff leaves the tail of the
    final season as the test period."""
    return SimConfig(
        n_identities=30,
        feature_dim=32,
        bg_feature_dim=16,
        grid=GridSpec(origin=Location(0.0, 0.0), cell_size_km=5.0, n_cells_x=1, n_cells_y=1),
        longtail_exponent=0.8,
        home_range_cells=0.1,
        migration_prob=0.0,
        fg_noise=2.8,
        bg_cell_signal=0.0,
        obs_rate=100.0,
        duration_days=1460.0,
        cutoff_quantile=0.93,
        seasonal_bursts=4,
        season_duty=0.3,
        season_attendance=0.45,
        seed=seed,
    )


PRESETS = {
    "lynx": lynx_like,
    "turtle": turtle_like,
}
