"""The three benchmark workloads, driven through idfusion's public functions.

Each workload builds its inputs from the workload seed during set-up, then
runs timed operations: one pipeline (``lynx-loop``, ``population-replay``)
or one pass of single-sighting calls (``online-stream``). Correctness checks
run inside an operation but outside its timed share.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from time import perf_counter_ns

import numpy as np

from idfusion import (
    GridSpec,
    Location,
    PriorConfig,
    TrainConfig,
    build_catalog,
    features_from,
    generate,
    init_state,
    load_dataset,
    load_model,
    lynx_like,
    overall_accuracy,
    read_predictions,
    resolve_location,
    save_dataset,
    save_model,
    score_predictions,
    sequential_infer,
    train,
    train_background_model,
    write_predictions,
)
from idfusion.priors import HOME_LOCATION, MIGRATING_LOCATION, TIME_DECAY, UNIFORM
from idfusion.simulate import SimConfig
from oracles import brute_force_sequential

from tracing import probe_stream

# name -> (prior kind, location source); the five lynx-loop configurations.
CONFIGS = {
    "uniform": (UNIFORM, "metadata"),
    "home_location": (HOME_LOCATION, "metadata"),
    "migrating_location": (MIGRATING_LOCATION, "metadata"),
    "time_decay": (TIME_DECAY, "metadata"),
    "migrating_location_bg": (MIGRATING_LOCATION, "background_model"),
}
PRIOR_SPANS = tuple(f"priors.prior_vector.{name}" for name in CONFIGS)
STATEFUL = (MIGRATING_LOCATION, TIME_DECAY)

# The acceptance recipe: pits loss on foreground features, lr 1e-2, batch 8.
RECIPE = TrainConfig(loss_kind="pits", input_kind="foreground", learning_rate=1e-2, batch_size=8)

ORACLE_PREFIX = 100
COUNT_NAMES = (
    "data.dataset_bytes",
    "fusion.obs_fused",
    "fusion.flips",
    "fusion.fallbacks",
    "fusion.prediction_mem_bytes",
    "fusion.predictions_bytes",
    "priors.state_updates",
)


class FallbackCounter(logging.Handler):
    """Counts fusion's fall-back-to-likelihood warnings."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        if "falling back" in record.getMessage():
            self.count += 1


def stream_order(observations) -> list:
    """Observations in the order ``sequential_infer`` processes them."""
    order = sorted(range(len(observations)),
                   key=lambda i: (observations[i].timestamp, observations[i].obs_id, i))
    return [observations[i] for i in order]


def directory_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.iterdir() if f.is_file())


def population_config(seed: int) -> SimConfig:
    """K=500 identities on a 20x20 grid of 5 km cells; about 3,000 test sightings."""
    return SimConfig(
        n_identities=500,
        feature_dim=32,
        bg_feature_dim=24,
        grid=GridSpec(origin=Location(0.0, 0.0), cell_size_km=5.0, n_cells_x=20, n_cells_y=20),
        obs_rate=20.0,
        cutoff_quantile=0.7,
        seed=seed,
    )


def oracle_check(model, catalog, config, stream, grid, background_model, predictions) -> str | None:
    """Compare the first ORACLE_PREFIX predictions of a stream with the
    brute-force reference: argmax exactly, posteriors within 1e-12."""
    ref_obs = []
    for obs in stream[:ORACLE_PREFIX]:
        loc = resolve_location(obs, config, background_model, grid)
        ref_obs.append({"obs_id": obs.obs_id, "x": list(features_from(obs, model.input_kind)),
                        "loc": (loc.x, loc.y), "t": obs.timestamp})
    homes = [(catalog.home_locations[k].x, catalog.home_locations[k].y) for k in model.labels]
    last_seen = [catalog.last_train_time[k] for k in model.labels]
    posts, winners = brute_force_sequential(
        model.W.tolist(), model.b.tolist(), model.w_T.tolist(), model.b_T,
        ref_obs, config.kind, homes, last_seen,
        alpha=config.alpha, beta=config.beta, cell_size=config.cell_size_km,
        time_unit=config.time_unit_days,
    )
    for pred, post, winner in zip(predictions, posts, winners):
        if pred.predicted != model.labels[winner]:
            return f"{pred.obs_id}: winner {pred.predicted}, oracle {model.labels[winner]}"
        diff = float(np.max(np.abs(pred.posterior - np.asarray(post))))
        if not diff <= 1e-12:
            return f"{pred.obs_id}: posterior differs from the oracle by {diff:.3g}"
    return None


class Workload:
    """Set-up, operations and the bookkeeping the runner reads afterwards."""

    name = ""
    ops_per_pass = 1
    setup_repeats = 3
    train_epochs = 1

    def __init__(self, seed: int, work: Path, tracer) -> None:
        self.seed = seed
        self.work = work
        self.tracer = tracer
        self.fallbacks = FallbackCounter()
        logging.getLogger("idfusion.fusion").addHandler(self.fallbacks)
        # Program time in ns; the runner swaps in a clock that leaves out the
        # speed sampler's interruptions.
        self.clock = perf_counter_ns
        # The runner's speed sampler position, taken around each timed call.
        self.mark = lambda: 0
        self.excluded_ns = 0
        self.failures: list[str] = []
        # (prior configuration, ns, sightings, start mark, end mark) of every
        # untraced sequential_infer call.
        self.infer_calls: list[tuple[str, int, int, int, int]] = []
        self.setup_counts: dict[str, int] = {}
        # op key -> (accuracies, counts) from the first pass; later passes
        # must reproduce them exactly.
        self.first_pass: dict[int, tuple[list[float], dict[str, int]]] = {}

    @contextmanager
    def excluded(self):
        start = self.clock()
        try:
            yield
        finally:
            self.excluded_ns += self.clock() - start

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def call_times(self) -> dict[str, tuple[np.ndarray, ...]]:
        """Per prior configuration: (ns, sightings, start marks, end marks)
        of each untraced sequential_infer call."""
        by_config: dict[str, list[tuple]] = {}
        for config, *row in self.infer_calls:
            by_config.setdefault(config, []).append(row)
        return {config: tuple(map(np.array, zip(*rows))) for config, rows in by_config.items()}

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> tuple[int, int]:
        """Untimed work between set-up and the first operation."""
        return 0, 0

    def run_op(self, index: int, traced: bool) -> tuple[int, int]:
        """Run one operation; returns (attempted, failed)."""
        raise NotImplementedError

    def record_op(self, key: int, accuracies: list[float], counts: dict[str, int]) -> bool:
        if key not in self.first_pass:
            self.first_pass[key] = (accuracies, counts)
            return True
        if self.first_pass[key] != (accuracies, counts):
            self.fail(f"op {key}: results differ from the first pass over the same inputs")
            return False
        return True

    def pass_results(self) -> tuple[float, dict[str, int]]:
        """Mean accuracy and summed counts over the first pass."""
        accuracies = [a for accs, _ in self.first_pass.values() for a in accs]
        counts = {name: self.setup_counts.get(name, 0) for name in COUNT_NAMES}
        for _, op_counts in self.first_pass.values():
            for name, value in op_counts.items():
                counts[name] += value
        return sum(accuracies) / len(accuracies), counts

    def infer_and_score(self, ds, catalog, model, background_model, config_name, traced,
                        check_oracle, counts) -> tuple[bool, float]:
        """One prior configuration: infer over the test split, write, read and
        score the predictions. Returns (checks passed, scored accuracy)."""
        call = self.tracer.call
        kind, source = CONFIGS[config_name]
        config = PriorConfig(kind=kind, location_source=source,
                             cell_size_km=ds.grid.cell_size_km)
        state = call("priors.init_state", init_state, catalog, config)
        test = ds.test
        self.fallbacks.count = 0
        if traced:
            preds = call("fusion.sequential_infer", sequential_infer, model, state, test,
                         ds.grid, background_model, items=len(test))
        else:
            mark, start = self.mark(), self.clock()
            preds = sequential_infer(model, state, test, ds.grid, background_model)
            self.infer_calls.append((config_name, self.clock() - start, len(test),
                                     mark, self.mark()))
        fallbacks = self.fallbacks.count
        out = self.work / "predictions" / config_name
        meta = {"prior_config": config.to_dict(), "seed": self.seed,
                "train_config": {"input_kind": model.input_kind, "loss_kind": "pits"}}
        call("fusion.write_predictions", write_predictions, preds, out, model.labels, kind, meta)
        records, read_meta = call("fusion.read_predictions", read_predictions, out)
        report = call("evaluation.score_predictions", score_predictions, records, read_meta, ds)

        with self.excluded():
            ok = True
            if [r["predicted"] for r in records] != [p.predicted for p in preds]:
                ok = False
                self.fail(f"{config_name}: predictions read back differ from those written")
            if report.overall_accuracy != overall_accuracy(preds):
                ok = False
                self.fail(f"{config_name}: scored accuracy differs from the predictions")
            counts["fusion.obs_fused"] += len(preds)
            counts["fusion.flips"] += sum(
                int(np.argmax(p.posterior)) != int(np.argmax(p.likelihood)) for p in preds)
            counts["fusion.fallbacks"] += fallbacks
            counts["fusion.prediction_mem_bytes"] += sum(
                p.posterior.nbytes + p.likelihood.nbytes + p.prior.nbytes for p in preds)
            counts["fusion.predictions_bytes"] += directory_bytes(out)
            counts["priors.state_updates"] += len(preds) if kind in STATEFUL else 0
            if check_oracle or traced:
                stream = stream_order(test)
            if check_oracle:
                problem = oracle_check(model, catalog, config, stream, ds.grid,
                                       background_model, preds)
                if problem:
                    ok = False
                    self.fail(f"{config_name}: oracle mismatch: {problem}")
            if traced:
                fresh = init_state(catalog, config)
                mismatches = probe_stream(self.tracer, model, fresh, stream, ds.grid,
                                          background_model, f"priors.prior_vector.{config_name}",
                                          [p.predicted for p in preds])
                if mismatches:
                    ok = False
                    self.fail(f"{config_name}: probe picked another winner on {mismatches} sightings")
        return ok, report.overall_accuracy


def _empty_counts() -> dict[str, int]:
    return {name: 0 for name in COUNT_NAMES if name != "data.dataset_bytes"}


class LynxLoop(Workload):
    """The paper-scale loop over several lynx-preset datasets."""

    name = "lynx-loop"
    ops_per_pass = 4  # datasets per run; one pipeline each per pass
    setup_repeats = 9
    train_epochs = RECIPE.epochs

    def __init__(self, seed, work, tracer) -> None:
        super().__init__(seed, work, tracer)
        self.sim_seeds = [seed * self.ops_per_pass + i for i in range(self.ops_per_pass)]

    def setup(self) -> None:
        total = 0
        for s in self.sim_seeds:
            ds = self.tracer.call("simulate.generate", generate, lynx_like(s))
            path = self.work / "data" / str(s)
            self.tracer.call("data.save_dataset", save_dataset, ds, path)
            total += directory_bytes(path)
        self.n_obs = len(ds.observations)
        self.setup_counts = {"data.dataset_bytes": total}

    def run_op(self, index, traced):
        call = self.tracer.call
        key = index % self.ops_per_pass
        s = self.sim_seeds[key]
        first = key not in self.first_pass
        ds = call("data.load_dataset", load_dataset, self.work / "data" / str(s), items=self.n_obs)
        catalog = call("data.build_catalog", build_catalog, ds)
        tc = replace(RECIPE, seed=s)
        model = call("classifier.train", train, ds, catalog, tc,
                     items=tc.epochs * len(ds.train))
        path = self.work / "model.json"
        call("classifier.save_model", save_model, model, path, tc)
        model = call("classifier.load_model", load_model, path)
        background = call("classifier.train_background", train_background_model,
                          ds, ds.grid, replace(tc, seed=s + 1))
        counts = _empty_counts()
        accuracies = []
        ok = True
        for name in CONFIGS:
            bg = background if CONFIGS[name][1] == "background_model" else None
            good, acc = self.infer_and_score(ds, catalog, model, bg, name, traced, first, counts)
            ok &= good
            accuracies.append(acc)
        with self.excluded():
            ok &= self.record_op(key, accuracies, counts)
        return 1, 0 if ok else 1


class PopulationReplay(Workload):
    """K=500 population; every prior kind replays the whole test stream."""

    name = "population-replay"
    train_epochs = 4
    configs = ("uniform", "home_location", "migrating_location", "time_decay")

    def setup(self) -> None:
        call = self.tracer.call
        ds = call("simulate.generate", generate, population_config(self.seed))
        data = self.work / "data"
        call("data.save_dataset", save_dataset, ds, data)
        catalog = call("data.build_catalog", build_catalog, ds)
        tc = replace(RECIPE, epochs=self.train_epochs, seed=self.seed)
        model = call("classifier.train", train, ds, catalog, tc,
                     items=tc.epochs * len(ds.train))
        call("classifier.save_model", save_model, model, self.work / "model.json", tc)
        self.n_obs = len(ds.observations)
        self.setup_counts = {"data.dataset_bytes": directory_bytes(data)}

    def run_op(self, index, traced):
        call = self.tracer.call
        first = not self.first_pass
        ds = call("data.load_dataset", load_dataset, self.work / "data", items=self.n_obs)
        catalog = call("data.build_catalog", build_catalog, ds)
        model = call("classifier.load_model", load_model, self.work / "model.json")
        counts = _empty_counts()
        accuracies = []
        ok = True
        for name in self.configs:
            good, acc = self.infer_and_score(ds, catalog, model, None, name, traced, first, counts)
            ok &= good
            accuracies.append(acc)
        with self.excluded():
            ok &= self.record_op(0, accuracies, counts)
        return 1, 0 if ok else 1


class OnlineStream(PopulationReplay):
    """The population's test stream sent one sighting per call, in stream
    order, to the two stateful priors. Closed loop, one caller."""

    name = "online-stream"
    configs = ("migrating_location", "time_decay")

    def setup(self) -> None:
        super().setup()
        call = self.tracer.call
        self.ds = call("data.load_dataset", load_dataset, self.work / "data", items=self.n_obs)
        self.model = call("classifier.load_model", load_model, self.work / "model.json")
        self.catalog = call("data.build_catalog", build_catalog, self.ds)
        self.stream = stream_order(self.ds.test)

    def call_times(self):
        """Per prior: (latency ns, sightings, start marks, end marks) of each
        untraced single-sighting call."""
        out = {}
        for name, passes in self.latencies.items():
            ns = np.concatenate([latency for latency, _ in passes])
            marks = np.concatenate([m for _, m in passes])
            out[name] = (ns, np.ones_like(ns), marks[:, 0], marks[:, 1])
        return out

    def _config(self, name: str) -> PriorConfig:
        kind, source = CONFIGS[name]
        return PriorConfig(kind=kind, location_source=source,
                           cell_size_km=self.ds.grid.cell_size_km)

    def prepare(self):
        """Replay each prior over the whole stream once; every online call is
        checked against these predictions bit for bit."""
        self.reference = {}
        # prior -> (latency ns, (start, end) marks) of each untraced pass
        self.latencies: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}
        counts = _empty_counts()
        accuracies = []
        failed = 0
        for name in self.configs:
            config = self._config(name)
            state = self.tracer.call("priors.init_state", init_state, self.catalog, config)
            self.fallbacks.count = 0
            preds = self.tracer.call("fusion.sequential_infer", sequential_infer, self.model,
                                     state, self.ds.test, self.ds.grid, None,
                                     items=len(self.stream))
            self.reference[name] = ([p.predicted for p in preds],
                                    [hash(p.posterior.tobytes()) for p in preds])
            accuracies.append(overall_accuracy(preds))
            counts["fusion.obs_fused"] += len(preds)
            counts["fusion.flips"] += sum(
                int(np.argmax(p.posterior)) != int(np.argmax(p.likelihood)) for p in preds)
            counts["fusion.fallbacks"] += self.fallbacks.count
            counts["fusion.prediction_mem_bytes"] += sum(
                p.posterior.nbytes + p.likelihood.nbytes + p.prior.nbytes for p in preds)
            counts["priors.state_updates"] += len(preds)
            problem = oracle_check(self.model, self.catalog, config, self.stream, self.ds.grid,
                                   None, preds)
            if problem:
                failed = 1
                self.fail(f"{name}: oracle mismatch: {problem}")
            if self.tracer.enabled:
                mismatches = probe_stream(self.tracer, self.model,
                                          init_state(self.catalog, config), self.stream,
                                          self.ds.grid, None, f"priors.prior_vector.{name}",
                                          self.reference[name][0])
                if mismatches:
                    failed = 1
                    self.fail(f"{name}: probe picked another winner on {mismatches} sightings")
            del preds
        self.record_op(0, accuracies, counts)
        return 1, failed

    def run_op(self, index, traced):
        model, grid, stream = self.model, self.ds.grid, self.stream
        clock, mark = self.clock, self.mark
        if traced:
            def infer(*args):
                return self.tracer.call("fusion.sequential_infer.call", sequential_infer, *args,
                                        items=1)
        else:
            infer = sequential_infer
        attempted = failed = 0
        accuracies = []
        for name in self.configs:
            state = self.tracer.call("priors.init_state", init_state, self.catalog,
                                     self._config(name))
            latency_ns = []
            marks = []
            winners = []
            digests = []
            hits = 0
            for obs in stream:
                first, start = mark(), clock()
                pred = infer(model, state, [obs], grid, None)[0]
                latency_ns.append(clock() - start)
                marks.append((first, mark()))
                winners.append(pred.predicted)
                digests.append(hash(pred.posterior.tobytes()))
                hits += pred.predicted == obs.identity
            with self.excluded():
                ref_winners, ref_digests = self.reference[name]
                bad = sum(w != rw or d != rd for w, rw, d, rd in
                          zip(winners, ref_winners, digests, ref_digests))
                if bad:
                    self.fail(f"{name}: {bad} online calls differ from the replay")
                attempted += len(stream)
                failed += bad
                accuracies.append(hits / len(stream))
                if not traced:
                    self.latencies.setdefault(name, []).append(
                        (np.array(latency_ns), np.array(marks)))
        with self.excluded():
            if accuracies != self.first_pass[0][0]:
                # A changed result: every call of the pass counts as failed.
                self.fail("online accuracy differs from the replay accuracy")
                failed = attempted
        return attempted, failed


WORKLOADS = {w.name: w for w in (LynxLoop, PopulationReplay, OnlineStream)}
