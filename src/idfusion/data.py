"""Domain types, JSON file I/O, temporal splitting, and per-identity training statistics.

All types are immutable after construction and safe to share. Every file the
package reads or writes goes through the JSON helpers here. Observations are
stored one JSON object per line; grid and dataset metadata live in a sidecar
JSON file next to the observation file.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from pathlib import Path
from types import UnionType
from typing import Any, Iterable, Iterator, Mapping, Sequence, get_args, get_origin, get_type_hints

import numpy as np

from .errors import ConfigError, ParseError, SchemaError, SplitError

TRAIN = "train"
TEST = "test"

OBSERVATIONS_FILENAME = "observations.jsonl"
SIDECAR_FILENAME = "dataset.json"
_encode_sorted = json.JSONEncoder(sort_keys=True).encode


@dataclass(frozen=True)
class Location:
    """Point in kilometers east (x) and north (y) of the grid origin."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"location coordinates must be finite, got ({self.x}, {self.y})")


@dataclass(frozen=True)
class GridSpec:
    """Uniform geospatial grid covering the whole monitored region.

    Cells are indexed row-major: index = row * n_cells_x + col, with col
    counting eastwards from the origin and row counting northwards.
    """

    origin: Location
    cell_size_km: float = 5.0
    n_cells_x: int = 1
    n_cells_y: int = 1

    def __post_init__(self) -> None:
        if not (self.cell_size_km > 0 and math.isfinite(self.cell_size_km)):
            raise ValueError(f"cell_size_km must be positive, got {self.cell_size_km}")
        if self.n_cells_x < 1 or self.n_cells_y < 1:
            raise ValueError("grid must have at least one cell per axis")

    def to_dict(self) -> dict:
        """The grid's JSON shape, shared by dataset sidecars and simulator configs."""
        return {**asdict(self), "origin": [self.origin.x, self.origin.y]}

    @classmethod
    def from_dict(cls, d: Mapping, what: str = "grid") -> "GridSpec":
        """Inverse of :meth:`to_dict`; raises SchemaError naming ``what`` and the key
        whose value is missing, of the wrong JSON type (as :func:`from_fields` reads
        types) or out of range."""
        origin = d.get("origin")
        if not (isinstance(origin, (list, tuple)) and len(origin) == 2
                and all(_has_type(v, float) for v in origin)):
            raise SchemaError(f"{what}: origin must be [x, y] numbers, got {origin!r}")
        for key, hint in (("cell_size_km", float), ("n_cells_x", int), ("n_cells_y", int)):
            if not _has_type(d.get(key), hint):
                raise SchemaError(f"{what}: {key} must be {hint.__name__}, got {d.get(key)!r}")
        try:
            return cls(Location(float(origin[0]), float(origin[1])), float(d["cell_size_km"]),
                       d["n_cells_x"], d["n_cells_y"])
        except (OverflowError, ValueError) as exc:
            raise SchemaError(f"{what}: {exc}") from exc

    @property
    def n_cells(self) -> int:
        return self.n_cells_x * self.n_cells_y

    def contains(self, loc: Location) -> bool:
        return (
            self.origin.x <= loc.x <= self.origin.x + self.cell_size_km * self.n_cells_x
            and self.origin.y <= loc.y <= self.origin.y + self.cell_size_km * self.n_cells_y
        )

    def cell_index(self, loc: Location) -> int:
        """Index of the cell containing ``loc``.

        Locations exactly on the far boundary belong to the last cell of the
        axis, so every in-bounds location maps to a valid index.
        """
        col = int((loc.x - self.origin.x) // self.cell_size_km)
        row = int((loc.y - self.origin.y) // self.cell_size_km)
        col = min(max(col, 0), self.n_cells_x - 1)
        row = min(max(row, 0), self.n_cells_y - 1)
        return row * self.n_cells_x + col

    def cell_center(self, index: int) -> Location:
        if not 0 <= index < self.n_cells:
            raise ValueError(f"cell index {index} out of range [0, {self.n_cells})")
        row, col = divmod(index, self.n_cells_x)
        return Location(
            self.origin.x + (col + 0.5) * self.cell_size_km,
            self.origin.y + (row + 0.5) * self.cell_size_km,
        )


def _read_only_copy(values) -> np.ndarray:
    # The observation owns its features: a caller's later write to the array
    # it passed in, or a write through the attribute, cannot reach them.
    a = np.array(values, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Observation:
    """One sighting: features, capture location, capture time, identity label.

    The feature vectors are read-only float64 copies of what was passed in.
    A simulated observation instead holds read-only rows of its dataset's
    private feature matrices, which nothing else can write.
    """

    obs_id: str
    identity: int
    fg_features: np.ndarray
    bg_features: np.ndarray
    location: Location
    timestamp: float
    split: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "fg_features", _read_only_copy(self.fg_features))
        object.__setattr__(self, "bg_features", _read_only_copy(self.bg_features))
        if self.fg_features.ndim != 1 or self.bg_features.ndim != 1:
            raise ValueError(f"{self.obs_id}: feature vectors must be one-dimensional")
        # ndarray.all without its Python wrapper: this runs once per sighting loaded.
        if not (np.logical_and.reduce(np.isfinite(self.fg_features))
                and np.logical_and.reduce(np.isfinite(self.bg_features))):
            raise ValueError(f"{self.obs_id}: feature vectors must contain only finite values")
        self._check_scalars()

    def _check_scalars(self) -> None:
        if self.identity < 0:
            raise ValueError(f"{self.obs_id}: identity label must be non-negative")
        if not (self.timestamp > 0 and math.isfinite(self.timestamp)):
            raise ValueError(f"{self.obs_id}: timestamp must be strictly positive, got {self.timestamp}")
        if self.split not in (None, TRAIN, TEST):
            raise ValueError(f"{self.obs_id}: split must be 'train', 'test', or absent")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Observation):
            return NotImplemented
        return (
            self.obs_id == other.obs_id
            and self.identity == other.identity
            and np.array_equal(self.fg_features, other.fg_features)
            and np.array_equal(self.bg_features, other.bg_features)
            and self.location == other.location
            and self.timestamp == other.timestamp
            and self.split == other.split
        )


@dataclass(frozen=True)
class Dataset:
    """Split observations plus the grid they live on.

    Every observation carries a split tag; identity labels are contiguous in
    [0, n_identities). Identities that only appear in the test split are kept
    (they are legitimate observations) but reported separately downstream.
    """

    observations: tuple[Observation, ...]
    grid: GridSpec
    n_identities: int
    feature_dims: tuple[int, int]

    @classmethod
    def from_observations(cls, observations: Iterable[Observation], grid: GridSpec) -> "Dataset":
        obs = tuple(observations)
        if not obs:
            raise SchemaError("dataset must contain at least one observation")
        n_identities = max(o.identity for o in obs) + 1
        feature_dims = (obs[0].fg_features.shape[0], obs[0].bg_features.shape[0])
        ds = cls(obs, grid, n_identities, feature_dims)
        return validate_dataset(ds)

    # The splits and the new-location subset depend on the data alone, so each
    # is derived once per dataset, on first use.
    @cached_property
    def train(self) -> tuple[Observation, ...]:
        return tuple(o for o in self.observations if o.split == TRAIN)

    @cached_property
    def test(self) -> tuple[Observation, ...]:
        return tuple(o for o in self.observations if o.split == TEST)

    @cached_property
    def new_location_ids(self) -> frozenset[str]:
        """obs_ids of the test sightings whose (identity, cell) pair never occurs in training.

        Membership depends only on the data, never on any prediction.
        """
        cell = self.grid.cell_index
        train_pairs = frozenset((o.identity, cell(o.location)) for o in self.train)
        return frozenset(
            o.obs_id for o in self.test if (o.identity, cell(o.location)) not in train_pairs
        )


def validate_dataset(dataset: Dataset) -> Dataset:
    """Check dataset invariants, returning the dataset unchanged if they hold.

    Raises:
        SchemaError: on duplicate obs_ids, dimension mismatches,
            non-contiguous identity labels, missing split tags, or
            out-of-bounds locations.
    """
    d, d_bg = dataset.feature_dims
    labels_seen: set[int] = set()
    ids_seen: set[str] = set()
    for o in dataset.observations:
        if o.obs_id in ids_seen:
            raise SchemaError(f"{o.obs_id}: obs_id appears more than once")
        ids_seen.add(o.obs_id)
        if o.fg_features.shape[0] != d or o.bg_features.shape[0] != d_bg:
            raise SchemaError(
                f"{o.obs_id}: feature dims ({o.fg_features.shape[0]}, {o.bg_features.shape[0]})"
                f" differ from dataset dims ({d}, {d_bg})"
            )
        if o.split is None:
            raise SchemaError(f"{o.obs_id}: observation has no split tag")
        if not 0 <= o.identity < dataset.n_identities:
            raise SchemaError(f"{o.obs_id}: identity {o.identity} outside [0, {dataset.n_identities})")
        if not dataset.grid.contains(o.location):
            raise SchemaError(f"{o.obs_id}: location {o.location} outside the grid bounds")
        labels_seen.add(o.identity)
    if labels_seen != set(range(dataset.n_identities)):
        missing = sorted(set(range(dataset.n_identities)) - labels_seen)
        raise SchemaError(f"identity labels are not contiguous; missing {missing}")
    return dataset


_OBSERVATION_FIELDS = tuple(f.name for f in fields(Observation))


def _assembled(values: Iterable) -> Observation:
    # An observation from field values in __init__ order, set in that order to
    # keep the shared-key dict; __post_init__ does not run.
    obs = object.__new__(Observation)
    for name, value in zip(_OBSERVATION_FIELDS, values):
        object.__setattr__(obs, name, value)
    return obs


def _observations_from_rows(
    obs_ids: Sequence[str],
    identities: Sequence[int],
    fg: np.ndarray,
    bg: np.ndarray,
    locations: Sequence[Location],
    timestamps: Sequence[float],
    splits: Sequence[str],
) -> list[Observation]:
    """Observations that hold row ``i`` of ``fg`` and ``bg``, which they take over.

    The caller hands over matrices nothing else refers to; they are checked
    once (two-dimensional, all finite) and made read-only, so no observation's
    features can change. The scalars are checked per sighting, as
    :class:`Observation` checks them.
    """
    for m in (fg, bg):
        if m.ndim != 2:
            raise ValueError("feature matrices must be two-dimensional")
        finite = np.isfinite(m).all(axis=1)
        if not finite.all():
            raise ValueError(
                f"{obs_ids[int(np.argmin(finite))]}: feature vectors must contain only finite values"
            )
        m.setflags(write=False)
    rows = zip(obs_ids, identities, fg, bg, locations, timestamps, splits, strict=True)
    observations = list(map(_assembled, rows))
    for obs in observations:
        obs._check_scalars()
    return observations


def _split_tags(timestamps: Iterable[float], cutoff: float) -> list[str]:
    """TRAIN for each timestamp before ``cutoff``, TEST for the rest.

    Raises:
        SplitError: if either side of the cutoff is empty.
    """
    tags = [TRAIN if t < cutoff else TEST for t in timestamps]
    n_train = tags.count(TRAIN)
    if n_train == 0:
        raise SplitError(f"no observations before cutoff {cutoff}")
    if n_train == len(tags):
        raise SplitError(f"no observations at or after cutoff {cutoff}")
    return tags


def target_temperature(n_k: float, n_max: float) -> float:
    """Class-count temperature target: 1 - ln(n_k / n_max).

    Equals 1 for the most frequent identity and grows as the identity gets
    rarer. Natural log, matching the exp convention of the softmax.
    """
    if n_k <= 0 or n_max <= 0:
        raise ValueError("sample counts must be positive")
    if n_k > n_max:
        raise ValueError(f"n_k={n_k} exceeds n_max={n_max}")
    return 1.0 - math.log(n_k / n_max)


@dataclass(frozen=True)
class IdentityCatalog:
    """Per-identity training statistics derived from the train split."""

    counts: dict[int, int]
    home_locations: dict[int, Location]
    target_temperatures: dict[int, float]
    last_train_time: dict[int, float]

    @property
    def identities(self) -> tuple[int, ...]:
        return tuple(sorted(self.counts))


def build_catalog(dataset: Dataset) -> IdentityCatalog:
    """Compute counts, home locations, temperature targets, and last-seen times.

    The home location is the center of the grid cell holding the most train
    sightings of the identity; ties break to the lowest cell index.
    """
    train = dataset.train
    if not train:
        raise SplitError("cannot build a catalog from an empty train split")

    counts: dict[int, int] = {}
    cells: dict[int, Counter] = {}
    last_time: dict[int, float] = {}
    for o in train:
        counts[o.identity] = counts.get(o.identity, 0) + 1
        cells.setdefault(o.identity, Counter())[dataset.grid.cell_index(o.location)] += 1
        last_time[o.identity] = max(last_time.get(o.identity, 0.0), o.timestamp)

    n_max = max(counts.values())
    homes: dict[int, Location] = {}
    temps: dict[int, float] = {}
    for k, cell_counts in cells.items():
        best = max(cell_counts.values())
        modal_cell = min(c for c, n in cell_counts.items() if n == best)
        homes[k] = dataset.grid.cell_center(modal_cell)
        temps[k] = target_temperature(counts[k], n_max)

    return IdentityCatalog(counts, homes, temps, last_time)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def write_json(path: str | Path, obj: Any) -> None:
    """Sorted keys, indent 2, trailing newline; exact float reprs round-trip bit for bit."""
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def read_json(path: str | Path) -> dict:
    """The JSON object in ``path``; SchemaError naming the file on invalid JSON or a non-object."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON ({exc.msg})") from exc
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: file must hold a JSON object, not {type(obj).__name__}")
    return obj


def write_jsonl(path: str | Path, records: Iterable[Mapping]) -> None:
    """Write one sorted-key JSON object per line, all through one shared encoder."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(_encode_sorted(rec))
            fh.write("\n")


def read_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield ``(line number, record)`` per non-blank line; ParseError naming the file and
    the line on invalid JSON or a non-object."""
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}: line {lineno}: invalid JSON ({exc.msg})") from exc
            if not isinstance(rec, dict):
                raise ParseError(f"{path}: line {lineno}: record is not a JSON object")
            yield lineno, rec


def _has_type(value: Any, hint: Any) -> bool:
    # JSON's view of a field type: ints pass as floats, lists as tuples, and
    # booleans as neither number.
    if hint in (int, float):
        return isinstance(value, (int, hint)) and not isinstance(value, bool)
    origin = get_origin(hint)
    if origin is UnionType:
        return any(_has_type(value, arg) for arg in get_args(hint))
    if origin is tuple:
        return isinstance(value, (list, tuple))
    return isinstance(value, origin or hint)


def from_fields(cls: type, d: Any, what: str) -> Any:
    """``cls(**d)`` for a dataclass read from JSON; ConfigError naming ``what`` when ``d``
    is not an object, a key is not a field, a value has the wrong type or ``cls`` rejects it."""
    if not isinstance(d, dict):
        raise ConfigError(f"{what}: expected a JSON object, got {type(d).__name__}")
    hints = get_type_hints(cls)
    names = [f.name for f in fields(cls)]
    for key, value in d.items():
        if key not in names:
            raise ConfigError(f"{what}: unknown key {key!r}; expected one of {names}")
        if not _has_type(value, hints[key]):
            kind = getattr(hints[key], "__name__", hints[key])
            raise ConfigError(f"{what}: {key} must be {kind}, got {value!r}")
    try:
        return cls(**d)
    except (TypeError, ConfigError) as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _record_from(obs: Observation) -> dict:
    rec = {
        "obs_id": obs.obs_id,
        "identity": int(obs.identity),
        "fg": obs.fg_features.tolist(),
        "bg": obs.bg_features.tolist(),
        "loc": [float(obs.location.x), float(obs.location.y)],
        "t": float(obs.timestamp),
    }
    if obs.split is not None:
        rec["split"] = obs.split
    return rec


_NUMBERS = (int, float)


def _observation_from(rec: dict, lineno: int, path: Path) -> Observation:
    """The observation in record ``rec``, each field read by its JSON type, as
    :func:`_has_type` reads types: an identity of 1.9 or ``true`` is no int
    and ``"1.09"`` no time. ParseError names the file, the line and the
    missing or mistyped field."""
    try:
        obs_id, identity, fg, bg, loc, t = (
            rec["obs_id"], rec["identity"], rec["fg"], rec["bg"], rec["loc"], rec["t"])
    except KeyError as exc:
        raise ParseError(f"{path}: line {lineno}: record has no {exc.args[0]!r}") from exc
    if type(obs_id) is not str:
        key, kind = "obs_id", "a string"
    elif type(identity) is not int:
        key, kind = "identity", "an int"
    elif type(loc) is not list or len(loc) != 2 or type(loc[0]) not in _NUMBERS \
            or type(loc[1]) not in _NUMBERS:
        key, kind = "loc", "[x, y] numbers"
    elif type(t) not in _NUMBERS:
        key, kind = "t", "a number"
    else:
        try:
            return Observation(obs_id, identity, fg, bg, Location(float(loc[0]), float(loc[1])),
                               float(t), rec.get("split"))
        except (TypeError, ValueError) as exc:
            # Only the features are left unchecked: name the one that does not convert.
            key = next((k for k in ("fg", "bg") if type(rec[k]) is not list
                        or any(type(v) not in _NUMBERS for v in rec[k])), None)
            field = "" if key is None else f"field {key!r}: "
            raise ParseError(f"{path}: line {lineno}: {field}{exc}") from exc
    raise ParseError(f"{path}: line {lineno}: field {key!r}: must be {kind}, got {rec[key]!r}")


def save_dataset(dataset: Dataset, directory: str | Path, extra_meta: Mapping | None = None) -> None:
    """Write ``observations.jsonl`` plus the ``dataset.json`` sidecar."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_jsonl(directory / OBSERVATIONS_FILENAME, map(_record_from, dataset.observations))
    meta = {**dataset.grid.to_dict(), "n_identities": dataset.n_identities, **(extra_meta or {})}
    write_json(directory / SIDECAR_FILENAME, meta)


def load_dataset(directory: str | Path) -> Dataset:
    """Load a dataset directory written by :func:`save_dataset`; ParseError naming the file,
    the line and the field of a malformed record, SchemaError on a bad sidecar or
    observations that break an invariant."""
    directory = Path(directory)
    sidecar = directory / SIDECAR_FILENAME
    if not sidecar.is_file():
        raise SchemaError(f"missing sidecar file {sidecar}")
    meta = read_json(sidecar)
    grid = GridSpec.from_dict(meta, str(sidecar))
    path = directory / OBSERVATIONS_FILENAME
    records = read_jsonl(path)
    dataset = Dataset.from_observations((_observation_from(rec, n, path) for n, rec in records),
                                        grid)
    if dataset.n_identities != meta.get("n_identities"):
        raise SchemaError(
            f"{sidecar}: declares {meta.get('n_identities')!r} identities but observations"
            f" imply {dataset.n_identities}"
        )
    return dataset
