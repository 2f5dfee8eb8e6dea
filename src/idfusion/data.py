"""Domain types, JSON file I/O, and per-identity training statistics.

All types are immutable after construction and safe to share. Every file the
package reads or writes goes through the JSON helpers here. Observations are
stored one JSON object per line; grid and dataset metadata live in a sidecar
JSON file next to the observation file.
"""

from __future__ import annotations

import json
import math
import operator
import reprlib
from collections import Counter
from dataclasses import asdict, dataclass, fields
from functools import cache, cached_property
from itertools import islice
from operator import itemgetter
from pathlib import Path
from types import NoneType, UnionType
from typing import Any, Iterable, Iterator, Mapping, Sequence, get_args, get_origin, get_type_hints

import numpy as np
import orjson

from .errors import ConfigError, ParseError, SchemaError, SplitError

TRAIN = "train"
TEST = "test"

OBSERVATIONS_FILENAME = "observations.jsonl"
SIDECAR_FILENAME = "dataset.json"
# Observations per chunk of save_dataset: only one chunk's text is held at a
# time. Formatting a K=500 dataset's 10,000 records at once held about 25 MB of
# text and raised the population benchmarks' peak RSS by 6-7%.
WRITE_ROWS = 256


@dataclass(frozen=True)
class Location:
    """Point in kilometers east (x) and north (y) of the grid origin, each stored as a finite float."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (is_finite(self.x, "location x") and is_finite(self.y, "location y")):
            raise ValueError(f"location coordinates must be finite, got ({self.x}, {self.y})")
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))


@dataclass(frozen=True)
class GridSpec:
    """Uniform geospatial grid covering the whole monitored region.

    Cells are indexed row-major: index = row * n_cells_x + col, with col counting
    eastwards from the origin and row counting northwards. The cell size is stored
    as a float and the cell counts as ints, the JSON types the grid reads back.
    """

    origin: Location
    cell_size_km: float = 5.0
    n_cells_x: int = 1
    n_cells_y: int = 1

    def __post_init__(self) -> None:
        check_finite(self, positive=("cell_size_km",))
        object.__setattr__(self, "cell_size_km", float(self.cell_size_km))
        for name in ("n_cells_x", "n_cells_y"):
            object.__setattr__(self, name, _index(getattr(self, name), "grid", name))
        if self.n_cells_x < 1 or self.n_cells_y < 1:
            raise ValueError("grid must have at least one cell per axis")

    def to_dict(self) -> dict:
        """The grid's JSON shape, shared by dataset sidecars and simulator configs."""
        return {**asdict(self), "origin": [self.origin.x, self.origin.y]}

    @classmethod
    def from_dict(cls, d: Mapping, what: str = "grid") -> "GridSpec":
        """Inverse of :meth:`to_dict`; SchemaError naming ``what`` and a missing (read as
        null), mistyped or out-of-range key."""
        _GRID.check({**dict.fromkeys(_GRID.tests), **d}, what, SchemaError)
        try:
            return cls(Location(*d["origin"]), d["cell_size_km"], d["n_cells_x"], d["n_cells_y"])
        except (OverflowError, ValueError) as exc:
            raise SchemaError(f"{what}: {exc}") from exc

    @property
    def n_cells(self) -> int:
        return self.n_cells_x * self.n_cells_y

    @property
    def far_corner(self) -> tuple[float, float]:
        """(x, y) of the corner opposite the origin, the grid's upper bound on each axis."""
        return (self.origin.x + self.cell_size_km * self.n_cells_x,
                self.origin.y + self.cell_size_km * self.n_cells_y)

    def contains(self, loc: Location) -> bool:
        far_x, far_y = self.far_corner
        return self.origin.x <= loc.x <= far_x and self.origin.y <= loc.y <= far_y

    def cell_indices(self, xy: np.ndarray) -> np.ndarray:
        """Index of the cell containing each point of ``xy`` (n, 2).

        Points on the far boundary belong to the last cell of the axis, and a
        point outside the grid to the nearest cell of each axis; the clamp
        runs on the floored floats, before the cast, so far-off points clamp
        too. numpy's float floor division rounds as Python's does.
        """
        steps = np.asarray(xy, dtype=np.float64).reshape(-1, 2) - (self.origin.x, self.origin.y)
        np.floor_divide(steps, self.cell_size_km, out=steps)
        np.clip(steps, 0, (self.n_cells_x - 1, self.n_cells_y - 1), out=steps)
        col, row = steps.astype(np.intp).T
        del steps  # freed before the index arithmetic, which reads only the cast
        return row * self.n_cells_x + col

    def cell_centers(self, cells) -> np.ndarray:
        """(n, 2) centres of the cells indexed by ``cells``, which must be in range."""
        row, col = np.divmod(np.asarray(cells, dtype=np.intp), self.n_cells_x)
        return np.stack([self.origin.x + (col + 0.5) * self.cell_size_km,
                         self.origin.y + (row + 0.5) * self.cell_size_km], axis=-1)


def _index(value: Any, where: str, what: str, error: type[Exception] = ValueError) -> int:
    """``value`` as an int (np.int64 and bool too); else ``error`` naming ``where`` and ``what``."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{where}: {what} must be an integer, got {value!r}") from None


def _labels(values: Iterable, where: str) -> tuple[int, ...]:
    """``values`` as a tuple of ints; ValueError naming ``where`` and the first label that is
    not an integer, is negative or repeats."""
    labels: dict[int, None] = {}
    for label in (_index(value, where, "label") for value in values):
        if label < 0 or label in labels:
            raise ValueError(f"{where}: label {label} is {'negative' if label < 0 else 'repeated'}")
        labels[label] = None
    return tuple(labels)


def _read_only_copy(values) -> np.ndarray:
    # The observation owns its features: a caller's later write to the array
    # it passed in, or a write through the attribute, cannot reach them.
    a = np.array(values, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Observation:
    """One sighting: features, capture location, capture time, identity label.

    The identity is stored as an ``int`` and the timestamp as a ``float``.
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
        identity = _index(self.identity, self.obs_id, "identity label")
        if identity < 0:
            raise ValueError(f"{self.obs_id}: identity label must be non-negative")
        if not (is_finite(self.timestamp, self.obs_id, "timestamp") and self.timestamp > 0):
            raise ValueError(f"{self.obs_id}: timestamp must be strictly positive, got {self.timestamp}")
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "timestamp", float(self.timestamp))
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

    @classmethod
    def from_observations(cls, observations: Iterable[Observation], grid: GridSpec) -> "Dataset":
        """The dataset of ``observations`` on ``grid``.

        Raises:
            SchemaError: on no observations, duplicate obs_ids, dimension
                mismatches, non-contiguous identity labels, missing split tags,
                or out-of-bounds locations.
        """
        obs = tuple(observations)
        if not obs:
            raise SchemaError("dataset must contain at least one observation")
        n_identities = max(o.identity for o in obs) + 1
        d, d_bg = obs[0].fg_features.shape[0], obs[0].bg_features.shape[0]
        labels_seen: set[int] = set()
        ids_seen: set[str] = set()
        for o in obs:
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
            if not grid.contains(o.location):
                raise SchemaError(f"{o.obs_id}: location {o.location} outside the grid bounds")
            labels_seen.add(o.identity)
        if len(labels_seen) != n_identities:  # every label is in [0, n_identities)
            n_missing = n_identities - len(labels_seen)
            first = list(islice((k for k in range(n_identities) if k not in labels_seen), 5))
            more = f" and {n_missing - len(first)} more" if n_missing > len(first) else ""
            raise SchemaError(f"identity labels are not contiguous; missing {first}{more}")
        return cls(obs, grid, n_identities)

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
        cells = self.grid.cell_indices(location_xy(self.train + self.test)).tolist()
        train_pairs = frozenset(zip((o.identity for o in self.train), cells))
        return frozenset(o.obs_id for o, cell in zip(self.test, cells[len(self.train):])
                         if (o.identity, cell) not in train_pairs)


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


def location_xy(observations: Sequence[Observation]) -> np.ndarray:
    """(n, 2) x and y of each observation's location, built from two lists of the
    floats the locations hold, with no tuple per sighting."""
    return np.array([[o.location.x for o in observations], [o.location.y for o in observations]]).T


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
    for o, cell in zip(train, dataset.grid.cell_indices(location_xy(train)).tolist()):
        counts[o.identity] = counts.get(o.identity, 0) + 1
        cells.setdefault(o.identity, Counter())[cell] += 1
        last_time[o.identity] = max(last_time.get(o.identity, 0.0), o.timestamp)

    n_max = max(counts.values())
    modal_cells = []
    for cell_counts in cells.values():
        best = max(cell_counts.values())
        modal_cells.append(min(c for c, n in cell_counts.items() if n == best))
    centers = dataset.grid.cell_centers(modal_cells).tolist()
    homes = {k: Location(*xy) for k, xy in zip(cells, centers)}
    temps = {k: target_temperature(counts[k], n_max) for k in cells}
    return IdentityCatalog(counts, homes, temps, last_time)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def write_json(path: str | Path, obj: Any) -> None:
    """Sorted keys, indent 2, trailing newline; exact float reprs round-trip bit for bit."""
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def decode_json(text: str) -> Any:
    """``orjson.loads(text)``; for what orjson refuses (NaN, infinities, a number past a
    double's range, a lone surrogate), json's value or json's error, a RecursionError on
    nesting past its limit included. Both read every float to the same bits; orjson reads
    an integer outside [-2**63, 2**64) as a float, and nesting of any depth."""
    try:
        return orjson.loads(text)
    except orjson.JSONDecodeError:
        return json.loads(text)


def read_json(path: str | Path) -> dict:
    """The JSON object in ``path``; SchemaError naming the file on invalid JSON or a non-object."""
    try:
        obj = decode_json(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # also an int past Python's digit limit
        raise SchemaError(f"{path}: invalid JSON ({getattr(exc, 'msg', exc)})") from exc
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: file must hold a JSON object, not {type(obj).__name__}")
    return obj


def json_rows(values: np.ndarray, labels: np.ndarray | None = None) -> list[str]:
    """json's text of each row of ``values``, an (n, m) float64 matrix of finite floats, or,
    with ``labels``, an (n, m) object array of ints, of the row's m ``[label, value]`` pairs.

    orjson formats, in one call, the rows whose floats are all 0 or of a magnitude in
    [1e-4, 1e16): there it writes the digits float.__repr__ writes, and json's ``", "`` is
    put back for its ``","``. A row with any other float, which repr writes in exponent form
    and orjson does not, is formatted as json formats it, floats by float.__repr__ and ints
    by ``%d``; so is every row when orjson refuses an int outside [-2**63, 2**64).
    """
    magnitude = np.abs(values)
    plain = (((magnitude >= 1e-4) & (magnitude < 1e16)) | (magnitude == 0)).all(axis=1)
    if labels is None:
        rows, between, entry = values, b"],[", "%r"
    else:
        rows, between, entry = np.stack((labels, values), axis=2), b"]],[[", "[%d, %r]"
    fast: list[str] = []
    if plain.any():
        try:
            text = orjson.dumps(rows[plain] if labels is None else rows[plain].tolist(),
                                option=orjson.OPT_SERIALIZE_NUMPY)
        except orjson.JSONEncodeError:  # an int outside [-2**63, 2**64)
            plain[:] = False
        else:
            # A newline where orjson separates two rows, to split on; json's ", " for every other ",".
            newline = between.replace(b",", b"\n")
            fast = text[1:-1].replace(between, newline).replace(b",", b", ").decode().split("\n")
    if plain.all():
        return fast
    row_text = "[" + ", ".join([entry] * values.shape[1]) + "]"
    slow = rows[~plain]
    slow_text = iter([row_text % tuple(row) for row in slow.reshape(len(slow), -1).tolist()])
    fast_text = iter(fast)
    return [next(fast_text) if p else next(slow_text) for p in plain.tolist()]


def read_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield ``(line number, record)`` per non-blank line; ParseError naming the file and
    the line on invalid UTF-8, invalid JSON or a non-object."""
    # Each line is decoded on its own, so a byte that is not UTF-8 fails on its own line.
    with Path(path).open("rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                rec = decode_json(line)
            except (ValueError, RecursionError) as exc:
                raise ParseError(
                    f"{path}: line {lineno}: invalid JSON ({getattr(exc, 'msg', exc)})") from exc
            if not isinstance(rec, dict):
                raise ParseError(f"{path}: line {lineno}: record is not a JSON object")
            yield lineno, rec


# The types a JSON value of each scalar hint may have: no bool is a number.
_SCALARS = {float: (int, float), int: (int,), bool: (bool,), str: (str,), NoneType: (NoneType,)}


def _json_source(hint: Any, v: str, consts: list) -> str:
    """Python source that tests the JSON value named ``v`` against ``hint``; the type
    sets and classes it names are appended to ``consts`` and read as ``c<index>``."""
    def const(value: Any) -> str:
        consts.append(value)
        return f"c{len(consts) - 1}"

    origin, args = get_origin(hint), get_args(hint)
    if hint in _SCALARS or origin is UnionType:  # unions of scalars, such as int | None
        return f"type({v}) in {const(frozenset().union(*(_SCALARS[a] for a in args or (hint,))))}"
    if origin is tuple and args[-1] is not ...:
        entries = "".join(f" and {_json_source(a, f'{v}[{i}]', consts)}" for i, a in enumerate(args))
        return f"(type({v}) in (list, tuple) and len({v}) == {len(args)}{entries})"
    if origin not in (list, tuple, dict):
        return f"isinstance({v}, {const(origin or hint)})"
    outer = f"type({v}) is dict" if origin is dict else f"type({v}) in (list, tuple)"
    values, entry = (f"{v}.values()", args[1]) if origin is dict else (v, args[0])
    if entry in _SCALARS:  # all entries tested in one C-level pass over their types
        return f"({outer} and {const(frozenset(_SCALARS[entry]))}.issuperset(map(type, {values})))"
    x = f"x{len(consts)}"
    return f"({outer} and all({_json_source(entry, x, consts)} for {x} in {values}))"


class JsonSpec:
    """The JSON type of each key of one file or config section, by one rule: ints pass
    as floats and booleans as neither number, ``list[X]`` and ``tuple[X, ...]`` test
    every entry, ``tuple[X, Y]`` the length too, ``dict[str, V]`` every value, and
    ``X | None`` is a union. A failure reads ``<where>: <key> must be <type>, got
    <value>``, a long value shortened. Each hint compiles once into Python source, as
    dataclasses compiles ``__init__``, so a record's check costs what hand-written tests do."""

    def __init__(self, hints: Mapping[str, Any]) -> None:
        self.hints = dict(hints)
        consts: list = []
        tests = [_json_source(hint, "v", consts) for hint in self.hints.values()]
        row = [_json_source(hint, f"v[{i}]", consts) for i, hint in enumerate(self.hints.values())]
        scope = {f"c{i}": value for i, value in enumerate(consts)}
        self.tests = {key: eval(f"lambda v: {test}", scope) for key, test in zip(self.hints, tests)}
        # All keys at once, over a sequence of values in key order.
        self._holds = eval(f"lambda v: {' and '.join(row)}", scope)

    def _message(self, key: str, value: Any) -> str:
        hint = self.hints[key]
        if get_origin(hint) is dict:  # JSON object keys are strings
            hint = dict[str, get_args(hint)[1]]
        name = hint.__name__ if isinstance(hint, type) else hint
        return f"{key} must be {name}, got {reprlib.repr(value)}"

    def check_values(self, values: Sequence) -> None:
        """ValueError for the first of ``values``, one per key in order, that fails its test."""
        if not self._holds(values):
            raise ValueError(next(self._message(key, value) for (key, test), value
                                  in zip(self.tests.items(), values) if not test(value)))

    def check(self, d: Mapping, where: str, error: type[Exception], closed: bool = False) -> None:
        """``error`` for the first key of ``d`` that fails its test or, when ``closed``, that
        the spec does not name; a key ``d`` lacks is left to the reader."""
        for key, value in d.items():
            if closed and key not in self.tests:
                raise error(f"{where}: unknown key {key!r}; expected one of {list(self.tests)}")
            if key in self.tests and not self.tests[key](value):
                raise error(f"{where}: {self._message(key, value)}")


_GRID = JsonSpec({"origin": tuple[float, float], "cell_size_km": float, "n_cells_x": int,
                  "n_cells_y": int})
_SIDECAR = JsonSpec({"n_identities": int})  # its other keys are the grid's, for GridSpec.from_dict


def is_finite(value: Any, *what: str, error: type[Exception] = ValueError) -> bool:
    """``math.isfinite(value)``, but ``error`` naming ``what`` for an int past a double's range."""
    try:
        return math.isfinite(value)
    except OverflowError:
        raise error(f"{': '.join(what)} is an int too large for a float") from None


def check_finite(config: Any, positive: Sequence[str] = (), non_negative: Sequence[str] = ()) -> None:
    """ConfigError naming the first field of ``config`` that is NaN, infinite or out of
    range: not positive for a name in ``positive``, negative for one in ``non_negative``."""
    for name in (*positive, *non_negative):
        value, kind = getattr(config, name), "positive" if name in positive else "non-negative"
        if not (is_finite(value, name, error=ConfigError) and (value > 0 if name in positive else value >= 0)):
            raise ConfigError(f"{name} must be finite and {kind}, got {value}")


_fields_spec = cache(lambda cls: JsonSpec(get_type_hints(cls)))


def from_fields(cls: type, d: Any, what: str, error: type[Exception] = ConfigError) -> Any:
    """``cls(**d)`` for a dataclass read from JSON; ``error`` naming ``what`` when ``d`` is
    not an object, a key is no field, a value not of its field's type or ``cls`` rejects it."""
    if not isinstance(d, dict):
        raise error(f"{what}: expected a JSON object, got {type(d).__name__}")
    _fields_spec(cls).check(d, what, error, closed=True)
    try:
        return cls(**d)
    except (TypeError, OverflowError, ConfigError) as exc:
        raise error(f"{what}: {exc}") from exc


_RECORD = JsonSpec({"obs_id": str, "identity": int, "fg": list[float], "bg": list[float],
                    "loc": tuple[float, float], "t": float, "split": str | None})
_required_fields = itemgetter("obs_id", "identity", "fg", "bg", "loc", "t")


def _observation_from(rec: dict, lineno: int, path: Path) -> Observation:
    """The observation in record ``rec``; ParseError naming the file, the line and the
    missing, mistyped or out-of-range field."""
    try:
        values = (*_required_fields(rec), rec.get("split"))
        _RECORD.check_values(values)
        obs_id, identity, fg, bg, (x, y), t, split = values
        return Observation(obs_id, identity, fg, bg, Location(x, y), t, split)
    except KeyError as exc:
        raise ParseError(f"{path}: line {lineno}: record has no {exc.args[0]!r}") from exc
    except (OverflowError, ValueError) as exc:
        raise ParseError(f"{path}: line {lineno}: {exc}") from exc


def save_dataset(dataset: Dataset, directory: str | Path, extra_meta: Mapping | None = None) -> None:
    """Write ``observations.jsonl`` plus the ``dataset.json`` sidecar."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    # json's text of each record, keys in sorted order; no split key for an observation without one.
    record = '{"bg": %s, "fg": %s, "identity": %d, "loc": [%r, %r], "obs_id": %s, %s"t": %r}\n'
    quote, observations = json.encoder.encode_basestring_ascii, dataset.observations
    with (directory / OBSERVATIONS_FILENAME).open("w", encoding="utf-8") as fh:
        for start in range(0, len(observations), WRITE_ROWS):
            chunk = observations[start : start + WRITE_ROWS]
            # The feature text is held by the generator alone, so it is freed before the next chunk's.
            fh.writelines(
                record % (b, f, o.identity, o.location.x, o.location.y, quote(o.obs_id),
                          "" if o.split is None else '"split": %s, ' % quote(o.split), o.timestamp)
                for o, f, b in zip(chunk, json_rows(np.array([o.fg_features for o in chunk])),
                                   json_rows(np.array([o.bg_features for o in chunk])))
            )
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
    _SIDECAR.check({"n_identities": meta.get("n_identities")}, str(sidecar), SchemaError)
    path = directory / OBSERVATIONS_FILENAME
    observations = [_observation_from(rec, n, path) for n, rec in read_jsonl(path)]
    if not observations:
        raise SchemaError(f"{path}: file holds no observations")
    dataset = Dataset.from_observations(observations, grid)
    if dataset.n_identities != meta["n_identities"]:
        raise SchemaError(f"{sidecar}: declares {meta['n_identities']} identities but"
                          f" observations imply {dataset.n_identities}")
    return dataset
