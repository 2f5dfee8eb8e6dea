"""Experiment harness: accuracy metrics, calibration reporting, and the
standard grid of likelihood/prior combinations.

A "new location" test observation is one whose (identity, grid cell) pair
never occurs in training; accuracy over that subset isolates how much a
configuration leans on where an animal was photographed rather than what it
looks like.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .calibration import ece_from_top_predictions
from .classifier import PitsModel, TrainConfig, train, train_background_model
from .data import Dataset, JsonSpec, build_catalog, decode_json, from_fields, read_json, write_json
from .errors import ConfigError, SchemaError
from .fusion import (PREDICTIONS_FILENAME, PREDICTIONS_META_FILENAME, Prediction,
                     prediction_lines, sequential_infer)
from .priors import (HOME_LOCATION, MIGRATING_LOCATION, TIME_DECAY, UNIFORM, PriorConfig,
                     init_state)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ExperimentReport:
    """Everything a single likelihood+prior run produced, JSON-serializable."""

    overall_accuracy: float
    new_location_accuracy: float | None
    ece_fused: float
    ece_likelihood: float
    n_test: int
    n_new_location: int
    n_unknown_identity: int
    seed: int
    train_config: dict
    prior_config: dict
    per_identity: dict[int, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        # String keys, so sorted-key JSON orders per_identity as strings.
        return {**asdict(self), "per_identity": {str(k): v for k, v in self.per_identity.items()}}

    @classmethod
    def from_dict(cls, d: dict, what: str = "report") -> "ExperimentReport":
        """Inverse of :meth:`to_dict`; raises ConfigError naming ``what``."""
        report = from_fields(cls, d, what)
        for key, config in (("train_config", TrainConfig), ("prior_config", PriorConfig)):
            from_fields(config, d[key], f"{what}: {key}")  # kept as written, checked as configs
        try:  # the keys are identity labels, written as strings
            return replace(report, per_identity={int(k): v for k, v in report.per_identity.items()})
        except ValueError as exc:
            raise ConfigError(f"{what}: per_identity key is not an identity label: {exc}") from None


def overall_accuracy(predictions: Sequence[Prediction]) -> float:
    """Fraction of predictions matching their ground truth.

    Truths outside the label space simply never match, so unknown
    identities count as errors.
    """
    if not predictions:
        raise ValueError("cannot score an empty prediction list")
    return sum(p.correct for p in predictions) / len(predictions)


def infer(
    dataset: Dataset,
    model: PitsModel,
    train_config: TrainConfig,
    prior_config: PriorConfig,
    background_model: PitsModel | None = None,
) -> tuple[list[Prediction], dict]:
    """Sequential fusion over the test split from a fresh prior state, and the
    run's record: ``labels``, ``seed``, ``train_config`` (the run that trained
    ``model``) and ``prior_config``, whose cell size is synced to the dataset
    grid so distances always come out in this dataset's cell units. The
    library and the CLI both infer and record runs through here.
    """
    prior_config = replace(prior_config, cell_size_km=dataset.grid.cell_size_km)
    state = init_state(build_catalog(dataset), prior_config)
    predictions = sequential_infer(model, state, dataset.test, dataset.grid, background_model)
    meta = {"labels": list(model.labels), "seed": train_config.seed,
            "train_config": train_config.to_dict(), "prior_config": prior_config.to_dict()}
    return predictions, meta


def run_experiment(
    dataset: Dataset,
    train_config: TrainConfig,
    prior_config: PriorConfig,
    model: PitsModel | None = None,
) -> tuple[ExperimentReport, list[Prediction]]:
    """Train (or reuse) a model, run :func:`infer`, and score the predictions
    through the lines ``write_predictions`` writes, decoded as from disk.

    The background location model only trains when the prior actually
    resolves locations through it, with a shifted seed so it never shares a
    random stream with the classifier.
    """
    if model is None:
        model = train(dataset, build_catalog(dataset), train_config)

    background_model = None
    if prior_config.location_source == "background_model":
        bg_config = replace(train_config, seed=train_config.seed + 1)
        background_model = train_background_model(dataset, dataset.grid, bg_config)

    predictions, meta = infer(dataset, model, train_config, prior_config, background_model)
    lines = prediction_lines(predictions, model.labels, prior_config.kind)
    return score_predictions(list(map(decode_json, lines)), meta, dataset), predictions


_META = JsonSpec({"labels": list[int], "seed": int, "train_config": dict, "prior_config": dict})
# What scoring reads of a prediction record; only the top entry of each top-5 list.
_SCORED = JsonSpec({"obs_id": str, "true": int | None, "predicted": int,
                    "posterior_top5[0]": tuple[int, float], "likelihood_top5[0]": tuple[int, float]})


def score_predictions(
    records: Sequence[Mapping],
    meta: Mapping,
    dataset: Dataset,
) -> ExperimentReport:
    """Score prediction records, read back from disk or built in memory by
    :func:`run_experiment`; every report comes from here.

    A record's truth is the identity of the dataset's test sighting with its
    obs_id, which no other record may repeat; its own ``true`` must be null
    or that identity. Works from the stored top-5 entries: top-1 confidence
    and correctness are all that top-label calibration and accuracy need. A
    run record (``meta``) key of the wrong JSON type (its train and prior
    configs checked as config sections), or a malformed record, raises
    SchemaError naming its file, and the key or the record's obs_id.
    """
    _META.check({**dict.fromkeys(_META.tests), **meta}, PREDICTIONS_META_FILENAME, SchemaError)
    for key, config in (("train_config", TrainConfig), ("prior_config", PriorConfig)):
        from_fields(config, meta[key], f"{PREDICTIONS_META_FILENAME}: {key}", SchemaError)
    if not records:
        raise SchemaError(f"{PREDICTIONS_FILENAME}: file holds no records")
    # Each record takes its sighting's truth out, so a repeated obs_id finds none.
    truth = {o.obs_id: o.identity for o in dataset.test}
    new_ids = dataset.new_location_ids
    scored = []  # per record: truth, fused hit, likelihood hit, new location, top confidences
    for i, rec in enumerate(records):
        try:
            values = (rec["obs_id"], rec["true"], rec["predicted"], rec["posterior_top5"][0],
                      rec["likelihood_top5"][0])
            _SCORED.check_values(values)
            obs_id, stored, predicted, (_, p), (like_label, q) = values
            identity = truth.pop(obs_id, None)
            if identity is None:
                first = next((j for j in range(i) if records[j]["obs_id"] == obs_id), None)
                raise ValueError(f"obs_id {obs_id!r} is not a test sighting of the dataset"
                                 if first is None else f"obs_id {obs_id!r} repeats record {first + 1}")
            if stored is not None and stored != identity:
                raise ValueError(f"true {stored!r} is not the dataset's identity {identity}")
            if not (0 < p <= 1 and 0 < q <= 1):  # NaN fails both comparisons
                raise ValueError("confidences must lie in (0, 1]")
            # The likelihood is scored as its own predictor: its top entry's
            # label, not the fused prediction, decides correctness here.
            scored.append((identity, predicted == identity, like_label == identity,
                           obs_id in new_ids, p, q))
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            name = f" ({rec['obs_id']})" if "obs_id" in rec else ""
            reason = f"has no {exc.args[0]!r}" if isinstance(exc, KeyError) else exc
            raise SchemaError(f"{PREDICTIONS_FILENAME}: record {i + 1}{name}: {reason}") from exc
    true, hit, like_hit, new, p, q = map(np.array, zip(*scored))
    conf = np.array((p, q), dtype=np.float64)  # top fused and top likelihood confidence

    ids, inverse = np.unique(true, return_inverse=True)
    per_identity = np.bincount(inverse, weights=hit) / np.bincount(inverse)
    return ExperimentReport(
        overall_accuracy=float(hit.mean()),
        new_location_accuracy=float(hit[new].mean()) if new.any() else None,
        ece_fused=ece_from_top_predictions(conf[0], hit).ece,
        ece_likelihood=ece_from_top_predictions(conf[1], like_hit).ece,
        n_test=len(scored),
        n_new_location=int(new.sum()),
        n_unknown_identity=int(np.count_nonzero(~np.isin(true, meta["labels"]))),
        seed=meta["seed"],
        train_config=dict(meta["train_config"]),
        prior_config=dict(meta["prior_config"]),
        per_identity=dict(zip(ids.tolist(), per_identity.tolist())),
    )


# ---------------------------------------------------------------------------
# Standard comparison grid
# ---------------------------------------------------------------------------

STANDARD_ROWS: tuple[tuple[str, str, str, str, str], ...] = (
    # (row name, input kind, loss kind, prior kind, location source)
    ("bg_ce_uniform", "background", "ce", UNIFORM, "metadata"),
    ("whole_ce_uniform", "whole", "ce", UNIFORM, "metadata"),
    ("fg_ce_uniform", "foreground", "ce", UNIFORM, "metadata"),
    ("fg_pits_uniform", "foreground", "pits", UNIFORM, "metadata"),
    ("fg_pits_home", "foreground", "pits", HOME_LOCATION, "metadata"),
    ("fg_pits_migrating", "foreground", "pits", MIGRATING_LOCATION, "metadata"),
    ("fg_pits_migrating_bg", "foreground", "pits", MIGRATING_LOCATION, "background_model"),
    ("fg_pits_time", "foreground", "pits", TIME_DECAY, "metadata"),
)


def run_row_suite(
    dataset: Dataset,
    rows: Sequence[tuple[str, str, str, str, str]] = STANDARD_ROWS,
    base_train: TrainConfig | None = None,
    base_prior: PriorConfig | None = None,
) -> dict[str, ExperimentReport]:
    """Run each named row, training each distinct (input, loss) model once
    with ``base_train``'s settings, its seed included. A model, and the
    likelihood blocks it keeps for the test split, is dropped after its last row."""
    if base_train is None:
        base_train = TrainConfig()
    if base_prior is None:
        base_prior = PriorConfig()
    models: dict[tuple[str, str], PitsModel] = {}
    reports: dict[str, ExperimentReport] = {}
    last_row = {(row[1], row[2]): i for i, row in enumerate(rows)}
    for i, (name, input_kind, loss_kind, prior_kind, location_source) in enumerate(rows):
        key = (input_kind, loss_kind)
        tc = replace(base_train, input_kind=input_kind, loss_kind=loss_kind)
        if key not in models:
            models[key] = train(dataset, build_catalog(dataset), tc)
        pc = replace(base_prior, kind=prior_kind, location_source=location_source)
        model = models[key] if last_row[key] > i else models.pop(key)
        report, _ = run_experiment(dataset, tc, pc, model=model)
        reports[name] = report
        logger.info("row %-22s accuracy %.3f", name, report.overall_accuracy)
    return reports


def render_report_table(reports: Mapping[str, ExperimentReport]) -> str:
    """Fixed-width text table, one row per experiment; the name column fits the longest name."""
    width = max([24, *map(len, reports)])
    header = f"{'row':<{width}} {'acc':>7} {'new-loc':>8} {'ece':>7} {'n':>6}"
    lines = [header, "-" * len(header)]
    for name, rep in reports.items():
        nl = f"{rep.new_location_accuracy:.3f}" if rep.new_location_accuracy is not None else "n/a"
        lines.append(
            f"{name:<{width}} {rep.overall_accuracy:>7.3f} {nl:>8} {rep.ece_fused:>7.3f} {rep.n_test:>6d}"
        )
    return "\n".join(lines) + "\n"


def write_report_csv(reports: Mapping[str, ExperimentReport], path: str | Path) -> None:
    """One row per report: its name, then every scalar field (None as an empty cell)."""
    columns = [f.name for f in fields(ExperimentReport) if not f.type.startswith("dict")]
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", *columns])
        for name, rep in reports.items():
            writer.writerow([name, *(getattr(rep, c) for c in columns)])


def save_report(report: ExperimentReport, path: str | Path) -> None:
    write_json(path, report.to_dict())


def load_report(path: str | Path) -> ExperimentReport:
    return ExperimentReport.from_dict(read_json(path), str(path))
