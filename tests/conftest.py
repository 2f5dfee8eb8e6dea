from collections import Counter
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from idfusion import fusion
from idfusion.classifier import PitsModel
from idfusion.data import Dataset, GridSpec, Location, Observation
from idfusion.priors import TIME_DECAY, PriorConfig, PriorState

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


def make_state(labels, config: PriorConfig, homes=None, last_seen=None) -> PriorState:
    """A state over ``labels`` anchored at a copy of what ``config``'s prior decays
    from: ``last_seen`` for the time prior, else ``homes``; either defaults to zeros."""
    if config.kind == TIME_DECAY:
        anchors = np.zeros(len(labels)) if last_seen is None else last_seen
    else:
        anchors = np.zeros((len(labels), 2)) if homes is None else homes
    return PriorState(labels=labels, anchors=np.array(anchors, dtype=np.float64), config=config)


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


@contextmanager
def draft_spy(forced_rows=()):
    """Counts what ``sequential_infer`` does in a block: its likelihood passes
    (one ``PitsModel.forward_rows`` call each), its verify passes (one
    fuse_rows call over rows each), its drafts, and the drafted rows forced wrong.

    The draft picks another label than it would at each row whose position
    within its block is in ``forced_rows``, each time a draft covers that row:
    an infinite log-likelihood entry ranks that label first in the draft alone,
    so the draft rewrites that label's offsets for the rows after it, as a real
    miss does. The verify pass never sees the forced entry. Yields the Counter.
    """
    draft, fuse_rows, seen = fusion._draft, fusion.fuse_rows, Counter()
    forward_rows = PitsModel.forward_rows

    def forcing_draft(offsets, log_likelihood, points, config, rate):
        # The draft gets views of the block's rows from ``start`` on.
        start = len(log_likelihood.base) - len(log_likelihood)
        forced = [row - start for row in forced_rows if 0 <= row - start < len(points)]
        seen["drafts"] += 1
        if forced:
            seen["forced"] += len(forced)
            honest = draft(offsets.copy(), log_likelihood, points, config, rate)
            log_likelihood = log_likelihood.copy()
            log_likelihood[forced, (honest[forced] + 1) % log_likelihood.shape[1]] = np.inf
        return draft(offsets, log_likelihood, points, config, rate)

    def counting_fuse_rows(likelihood, *args):
        seen["passes"] += 1
        return fuse_rows(likelihood, *args)

    def counting_forward_rows(model, X):
        seen["forwards"] += 1
        return forward_rows(model, X)

    with mock.patch.object(fusion, "_draft", forcing_draft), \
            mock.patch.object(fusion, "fuse_rows", counting_fuse_rows), \
            mock.patch.object(PitsModel, "forward_rows", counting_forward_rows):
        yield seen
