"""Command-line entry point.

Subcommands cover the full workflow: simulate a population, train a model,
fit and inspect a post-hoc global temperature, run fused inference over the
test split, score a predictions file, and render the standard comparison
table. Every command exits 0 on success and 1 with a single diagnostic line
on expected failures.
"""

from __future__ import annotations

import argparse
import errno
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .calibration import ece_from_top_predictions, fit_global_temperature, tempered_softmax
from .classifier import (
    TrainConfig,
    features_from,
    load_model,
    load_model_and_config,
    save_model,
    train,
    train_background_model,
)
from .data import (JsonSpec, build_catalog, from_fields, load_dataset, read_json, save_dataset,
                   write_json)
from .errors import ConfigError, SchemaError, SimulationError, TrainingError
from .evaluation import (
    infer,
    load_report,
    render_report_table,
    run_row_suite,
    save_report,
    score_predictions,
    write_report_csv,
)
from .fusion import read_predictions, write_predictions
from .priors import PRIOR_KINDS, PriorConfig, check_background_model
from .simulate import PRESETS, SimConfig, generate

logger = logging.getLogger(__name__)

# Every package error is a ValueError or one of the two RuntimeErrors; a file
# that is missing, a directory or in the way is an OSError naming its path.
_EXPECTED = (ValueError, OSError, TrainingError, SimulationError)


_CONFIG_FILE = JsonSpec({"seed": int, "sim": dict, "train": dict, "prior": dict})


def _check_out(path: str, directory: bool) -> None:
    """The OSError that writing the output ``path`` would raise, raised before any work:
    a directory output that is an existing file, or a file output that is a directory
    or whose parent directory is missing."""
    p = Path(path)
    if directory:
        code = errno.EEXIST if p.exists() and not p.is_dir() else 0
    else:
        code = errno.EISDIR if p.is_dir() else 0 if p.parent.is_dir() else errno.ENOENT
    if code:
        raise OSError(code, os.strerror(code), path)


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    cfg = read_json(path)
    _CONFIG_FILE.check(cfg, path, ConfigError, closed=True)
    return cfg


_SECTIONS = {
    "sim": SimConfig.from_dict,
    "train": lambda d: from_fields(TrainConfig, d, "train"),
    "prior": lambda d: from_fields(PriorConfig, d, "prior"),
}


def _section(args: argparse.Namespace, cfg: dict, name: str, base: dict | None = None,
             **flags):
    """Config section ``name``, built by the one rule every command follows:
    ``base`` (a preset's fields without its seed), then the file's section
    as written, so a ``null`` fails like any wrongly typed value, then each
    flag that was given. A seeded section takes ``--seed``, else its own
    seed, else the file's top-level one."""
    section = {**(base or {}), **cfg.get(name, {}),
               **{k: v for k, v in flags.items() if v is not None}}
    if name != "prior":
        section["seed"] = args.seed if args.seed is not None else section.get(
            "seed", cfg.get("seed", 0))
    return _SECTIONS[name](section)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load_config_file(args.config)
    base = None
    if args.preset:
        base = PRESETS[args.preset]().to_dict()
        del base["seed"]
    sim = _section(args, cfg, "sim", base)
    dataset = generate(sim)
    save_dataset(dataset, args.out, extra_meta={"sim_config": sim.to_dict(), "seed": sim.seed})
    print(
        f"wrote {len(dataset.observations)} observations "
        f"({len(dataset.train)} train / {len(dataset.test)} test, "
        f"{dataset.n_identities} identities) to {args.out}"
    )
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    cfg = _load_config_file(args.config)
    dataset = load_dataset(args.data)
    tc = _section(args, cfg, "train", loss_kind=args.loss, input_kind=args.input,
                  epochs=args.epochs, learning_rate=args.learning_rate)
    if args.model_kind == "background":
        model = train_background_model(dataset, dataset.grid, tc)
        # The run it was: plain cross-entropy on background features, whatever tc says.
        tc = replace(tc, loss_kind="ce", input_kind="background")
        what = f"background location model ({model.n_classes} cells)"
    else:
        model = train(dataset, build_catalog(dataset), tc)
        what = (f"{tc.loss_kind}/{tc.input_kind} model ({model.n_classes} classes,"
                f" final loss {model.loss_history[-1]:.4f})")
    save_model(model, args.out, config=tc)
    print(f"wrote {what} to {args.out}")
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.data)
    model, tc = load_model_and_config(args.model)
    label_pos = {k: i for i, k in enumerate(model.labels)}

    def logits_and_labels(observations) -> tuple[np.ndarray, np.ndarray]:
        # One block call; each row has the bits a one-row forward gives it.
        logits, _ = model.forward_rows(
            np.array([features_from(o, model.input_kind) for o in observations])
        )
        labels = np.array([label_pos.get(o.identity, -1) for o in observations], dtype=np.int64)
        return logits, labels

    # Fit on train, score on test: ECE after fitting stays out-of-sample.
    fit_logits, fit_labels = logits_and_labels(dataset.train)
    known = fit_labels >= 0
    if not known.any():
        print("error: no train observation has an identity the model was trained on",
              file=sys.stderr)
        return 1
    t_star = fit_global_temperature(fit_logits[known], fit_labels[known])

    logits, labels = logits_and_labels(dataset.test)

    def ece(temperature: float) -> float:
        # Top-1 confidence and hit, as score_predictions scores them; label -1 is a miss.
        p = tempered_softmax(logits, temperature)
        return ece_from_top_predictions(p.max(axis=1), p.argmax(axis=1) == labels).ece

    before, after = ece(1.0), ece(t_star)
    print(f"fitted global temperature: {t_star:.4f}")
    print(f"ece before: {before:.4f}")
    print(f"ece after:  {after:.4f}")
    if args.out:
        payload = {
            "temperature": t_star,
            "ece_before": before,
            "ece_after": after,
            "n_evaluated": int(labels.shape[0]),
            # The model's own seed, as infer records it.
            "seed": tc.seed,
        }
        write_json(args.out, payload)
    return 0


def _cmd_infer(args: argparse.Namespace) -> int:
    cfg = _load_config_file(args.config)
    dataset = load_dataset(args.data)
    model, tc = load_model_and_config(args.model)
    pc = _section(args, cfg, "prior", kind=args.prior,
                  location_source="background_model" if args.background_model else None)
    background_model = None
    if args.background_model:
        background_model = load_model(args.background_model)
        check_background_model(background_model, dataset.grid, args.background_model)
    elif pc.location_source == "background_model":
        raise ConfigError("location_source 'background_model' needs --background-model,"
                          " a checkpoint from 'train --model-kind background'")
    predictions, meta = infer(dataset, model, tc, pc, background_model=background_model)
    n_correct = sum(1 for p in predictions if p.correct)
    write_predictions(predictions, args.out, model.labels, pc.kind, meta)
    print(
        f"wrote {len(predictions)} predictions ({n_correct} correct, prior={pc.kind}) to {args.out}"
    )
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.data)
    records, meta = read_predictions(args.predictions)
    try:
        report = score_predictions(records, meta, dataset)
    except SchemaError as exc:  # The message starts with the file's name.
        raise SchemaError(os.path.join(args.predictions, str(exc))) from exc
    if args.out:
        save_report(report, args.out)
    nl = ("n/a" if report.new_location_accuracy is None
          else f"{report.new_location_accuracy:.4f}")
    print(f"overall accuracy:       {report.overall_accuracy:.4f}")
    print(f"new-location accuracy:  {nl} (n={report.n_new_location})")
    print(f"ece (fused):            {report.ece_fused:.4f}")
    print(f"ece (likelihood only):  {report.ece_likelihood:.4f}")
    return 0


def _row_name(report) -> str:
    tc, pc = report.train_config, report.prior_config
    parts = [tc.get("input_kind", "?"), tc.get("loss_kind", "?"), pc.get("kind", "?")]
    if pc.get("location_source") == "background_model":
        parts.append("bg")
    return "_".join(parts)


def _cmd_report(args: argparse.Namespace) -> int:
    if args.reports:
        if args.data:
            print("error: pass either report files or --data, not both", file=sys.stderr)
            return 1
        if args.config or args.seed is not None:
            print("error: --config and --seed apply only to --data, not to report files",
                  file=sys.stderr)
            return 1
        reports = {}
        for path in args.reports:
            rep = load_report(path)
            name, stem = _row_name(rep), Path(path).stem  # one candidate more than names taken
            names = [name, f"{name}_{stem}", *(f"{name}_{stem}_{n}" for n in range(2, len(reports) + 2))]
            reports[next(c for c in names if c not in reports)] = rep
    elif args.data:
        cfg = _load_config_file(args.config)
        dataset = load_dataset(args.data)
        reports = run_row_suite(dataset, base_train=_section(args, cfg, "train"),
                                base_prior=_section(args, cfg, "prior"))
    else:
        print("error: give report files to compare or --data to run the standard grid",
              file=sys.stderr)
        return 1
    sys.stdout.write(render_report_table(reports))
    if args.out:
        write_report_csv(reports, args.out)
        print(f"wrote csv to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idfusion",
        description="Calibrated identity classification fused with spatiotemporal priors.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="enable debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, out_required: bool = True, seed: bool = True) -> None:
        p.add_argument("--config", help="JSON config file with sim/train/prior sections")
        if seed:
            p.add_argument("--seed", type=int, help="override the run seed")
        p.add_argument("--out", required=out_required, help="output path")

    p = sub.add_parser("simulate", help="generate a synthetic sighting dataset")
    p.add_argument("--preset", choices=sorted(PRESETS), help="start from a named population preset")
    common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("train", help="fit a model on a dataset directory")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--model-kind", choices=("identity", "background"), default="identity")
    p.add_argument("--loss", choices=("ce", "pits"), help="training objective")
    p.add_argument("--input", choices=("foreground", "background", "whole"),
                   help="feature source")
    p.add_argument("--epochs", type=int)
    p.add_argument("--learning-rate", type=float, dest="learning_rate")
    common(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("calibrate", help="fit a global temperature to a trained model")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--model", required=True, help="model checkpoint path")
    p.add_argument("--out", help="calibration JSON path")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("infer", help="run fused inference over the test split")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--model", required=True, help="model checkpoint path")
    p.add_argument("--prior", choices=PRIOR_KINDS, help="prior kind")
    p.add_argument("--background-model", help="checkpoint from 'train --model-kind background';"
                   " spatial priors then take capture locations from it, not the metadata")
    common(p, seed=False)
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("evaluate", help="score a predictions directory against a dataset")
    p.add_argument("--predictions", required=True, help="predictions directory from infer")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", help="report JSON path")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("report", help="compare runs in an aligned table")
    p.add_argument("reports", nargs="*", help="report JSON files to compare")
    p.add_argument("--data", help="dataset directory: run the standard grid instead")
    common(p, out_required=False)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if args.out:
            _check_out(args.out, directory=args.command in ("simulate", "infer"))
        return args.func(args)
    except _EXPECTED as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
