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
from .classifier import BackgroundLocationModel, PitsModel, TrainConfig, train, train_background_model
from .data import Dataset, IdentityCatalog, build_catalog, from_fields, read_json, write_json
from .errors import ConfigError, SchemaError
from .fusion import Prediction, prediction_records, sequential_infer
from .priors import (
    HOME_LOCATION,
    MIGRATING_LOCATION,
    TIME_DECAY,
    UNIFORM,
    PriorConfig,
    init_state,
)

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
        per_identity = {}
        for key, value in report.per_identity.items():
            try:
                per_identity[int(key)] = value
            except ValueError:
                raise ConfigError(f"{what}: per_identity key {key!r} is not an identity label") from None
        return replace(report, per_identity=per_identity)


def overall_accuracy(predictions: Sequence[Prediction]) -> float:
    """Fraction of predictions matching their ground truth.

    Truths outside the label space simply never match, so unknown
    identities count as errors.
    """
    if not predictions:
        raise ValueError("cannot score an empty prediction list")
    flags = [p.correct for p in predictions]
    if any(f is None for f in flags):
        raise ValueError("all predictions need ground-truth identities to score accuracy")
    return float(sum(flags)) / len(flags)


def infer(
    dataset: Dataset,
    model: PitsModel,
    prior_config: PriorConfig,
    catalog: IdentityCatalog | None = None,
    background_model: BackgroundLocationModel | None = None,
) -> tuple[list[Prediction], PriorConfig]:
    """Sequential fusion over the test split from a fresh prior state.

    The prior's cell size is synced to the dataset grid so distances always
    come out in this dataset's cell units; the synced config is returned with
    the predictions. The library and the CLI both infer through here.
    """
    if prior_config.cell_size_km != dataset.grid.cell_size_km:
        prior_config = replace(prior_config, cell_size_km=dataset.grid.cell_size_km)
    if catalog is None:
        catalog = build_catalog(dataset)
    state = init_state(catalog, prior_config)
    predictions = sequential_infer(model, state, dataset.test, dataset.grid, background_model)
    return predictions, prior_config


def run_experiment(
    dataset: Dataset,
    train_config: TrainConfig,
    prior_config: PriorConfig,
    model: PitsModel | None = None,
    catalog: IdentityCatalog | None = None,
) -> tuple[ExperimentReport, list[Prediction]]:
    """Train (or reuse) a model, run :func:`infer`, and score the predictions
    through the same records :func:`score_predictions` reads from disk.

    The background location model only trains when the prior actually
    resolves locations through it, with a shifted seed so it never shares a
    random stream with the classifier.
    """
    if catalog is None:
        catalog = build_catalog(dataset)
    if model is None:
        model = train(dataset, catalog, train_config)

    background_model = None
    if prior_config.location_source == "background_model":
        bg_config = replace(train_config, seed=train_config.seed + 1)
        background_model = train_background_model(dataset, dataset.grid, bg_config)

    predictions, prior_config = infer(dataset, model, prior_config, catalog, background_model)
    records = list(prediction_records(predictions, model.labels, prior_config.kind))
    meta = {
        "labels": list(model.labels),
        "seed": train_config.seed,
        "train_config": train_config.to_dict(),
        "prior_config": prior_config.to_dict(),
    }
    return score_predictions(records, meta, dataset), predictions


def score_predictions(
    records: Sequence[Mapping],
    meta: Mapping,
    dataset: Dataset,
) -> ExperimentReport:
    """Score prediction records, read back from disk or built in memory by
    :func:`run_experiment`; every report comes from here.

    Works from the stored top-5 entries: top-1 confidence and correctness are
    all that top-label calibration and accuracy need. A malformed record
    raises SchemaError naming its position and obs_id.
    """
    if not records:
        raise ValueError("prediction file holds no records")
    by_id = {o.obs_id: o for o in dataset.test}
    labels = set(int(v) for v in meta.get("labels", ()))

    correct = []
    post_conf = []
    like_conf = []
    like_correct = []
    n_unknown = 0
    n_hits_new = 0
    n_new = 0
    new_ids = dataset.new_location_ids
    per_identity: dict[int, list[int]] = {}
    try:
        for rec in records:
            obs = by_id.get(rec["obs_id"])
            true = rec["true"] if rec["true"] is not None else (obs.identity if obs else None)
            if true is None:
                raise ValueError("no ground truth available")
            hit = int(rec["predicted"]) == int(true)
            correct.append(hit)
            post_conf.append(float(rec["posterior_top5"][0][1]))
            # The likelihood is scored as its own predictor: its top entry's
            # label, not the fused prediction, decides correctness here.
            like_conf.append(float(rec["likelihood_top5"][0][1]))
            like_correct.append(int(rec["likelihood_top5"][0][0]) == int(true))
            if labels and int(true) not in labels:
                n_unknown += 1
            if rec["obs_id"] in new_ids:
                n_new += 1
                n_hits_new += 1 if hit else 0
            entry = per_identity.setdefault(int(true), [0, 0])
            entry[0] += 1 if hit else 0
            entry[1] += 1
        rec = None
        correct_arr = np.array(correct, dtype=np.float64)
        ece_fused = ece_from_top_predictions(np.array(post_conf), correct_arr).ece
        ece_likelihood = ece_from_top_predictions(
            np.array(like_conf), np.array(like_correct, dtype=np.float64)
        ).ece
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        if rec is None:  # Every record parsed: a top confidence lies outside (0, 1].
            rec = next(r for r, p, q in zip(records, post_conf, like_conf)
                       if not (0 < p <= 1 and 0 < q <= 1))
        index = next(i for i, r in enumerate(records) if r is rec)
        name = f" ({rec['obs_id']})" if "obs_id" in rec else ""
        reason = f"has no {exc.args[0]!r}" if isinstance(exc, KeyError) else exc
        raise SchemaError(f"record {index + 1}{name}: {reason}") from exc

    return ExperimentReport(
        overall_accuracy=float(correct_arr.mean()),
        new_location_accuracy=None if n_new == 0 else n_hits_new / n_new,
        ece_fused=ece_fused,
        ece_likelihood=ece_likelihood,
        n_test=len(records),
        n_new_location=n_new,
        n_unknown_identity=n_unknown,
        seed=int(meta.get("seed", 0)),
        train_config=dict(meta.get("train_config", {})),
        prior_config=dict(meta.get("prior_config", {})),
        per_identity={k: h / n for k, (h, n) in sorted(per_identity.items())},
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
    with ``base_train``'s settings, its seed included."""
    if base_train is None:
        base_train = TrainConfig()
    if base_prior is None:
        base_prior = PriorConfig()
    catalog = build_catalog(dataset)
    models: dict[tuple[str, str], PitsModel] = {}
    reports: dict[str, ExperimentReport] = {}
    for name, input_kind, loss_kind, prior_kind, location_source in rows:
        key = (input_kind, loss_kind)
        tc = replace(base_train, input_kind=input_kind, loss_kind=loss_kind)
        if key not in models:
            models[key] = train(dataset, catalog, tc)
        pc = replace(base_prior, kind=prior_kind, location_source=location_source)
        report, _ = run_experiment(dataset, tc, pc, model=models[key], catalog=catalog)
        reports[name] = report
        logger.info("row %-22s accuracy %.3f", name, report.overall_accuracy)
    return reports


def render_report_table(reports: Mapping[str, ExperimentReport]) -> str:
    """Fixed-width text table, one row per experiment."""
    header = f"{'row':<24} {'acc':>7} {'new-loc':>8} {'ece':>7} {'n':>6}"
    lines = [header, "-" * len(header)]
    for name, rep in reports.items():
        nl = f"{rep.new_location_accuracy:.3f}" if rep.new_location_accuracy is not None else "n/a"
        lines.append(
            f"{name:<24} {rep.overall_accuracy:>7.3f} {nl:>8} {rep.ece_fused:>7.3f} {rep.n_test:>6d}"
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
