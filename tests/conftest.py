import numpy as np
import pytest

from idfusion.data import Dataset, GridSpec, Location, Observation

from oracles import cell_center_ref


@pytest.fixture
def grid2x2() -> GridSpec:
    return GridSpec(origin=Location(0.0, 0.0), cell_size_km=5.0, n_cells_x=2, n_cells_y=2)


def make_obs(
    obs_id: str,
    identity: int,
    t: float,
    loc: Location,
    fg=None,
    bg=None,
    split: str | None = None,
    d: int = 3,
    d_bg: int = 2,
) -> Observation:
    """Tiny observation with deterministic filler features."""
    if fg is None:
        fg = np.full(d, float(identity) + 0.25)
    if bg is None:
        bg = np.full(d_bg, 0.5)
    return Observation(
        obs_id=obs_id,
        identity=identity,
        fg_features=np.asarray(fg, dtype=np.float64),
        bg_features=np.asarray(bg, dtype=np.float64),
        location=loc,
        timestamp=t,
        split=split,
    )


def tiny_dataset(grid: GridSpec) -> Dataset:
    """Two identities, two cells, four train and two test sightings."""
    c0 = cell_center_ref(grid, 0)
    c1 = cell_center_ref(grid, 1)
    observations = [
        make_obs("a1", 0, 1.0, c0, split="train"),
        make_obs("a2", 0, 2.0, c0, split="train"),
        make_obs("b1", 1, 3.0, c1, split="train"),
        make_obs("b2", 1, 4.0, c1, split="train"),
        make_obs("a3", 0, 5.0, c0, split="test"),
        make_obs("b3", 1, 6.0, c1, split="test"),
    ]
    return Dataset.from_observations(observations, grid)
