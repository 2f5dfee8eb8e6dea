"""Spans recorded from the benchmark's side of each call into the library.

A span is (name, start_ns, end_ns, parent index, op id, items). Spans live in
memory and are written out once, when the run ends. With tracing disabled,
``call`` is a plain function call and ``span`` records nothing, so the
untraced run pays no bookkeeping.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

import numpy as np

from idfusion import (
    features_from,
    fuse,
    per_instance_softmax,
    prior_vector,
    update_last_seen,
    update_location,
)
from idfusion.priors import MIGRATING_LOCATION, TIME_DECAY


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.clock = perf_counter_ns  # the runner swaps in its sampler's clock
        self.op = ""
        self.spans: list[tuple] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, items: int = 0):
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op, items)

    def call(self, name: str, fn, *args, items: int = 0):
        """``fn(*args)`` inside a span whose interval holds little but the call."""
        if not self.enabled:
            return fn(*args)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = self.clock()
        try:
            return fn(*args)
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op, items)

    def self_times(self, slowdown: dict[str, float]) -> dict[str, list[tuple[float, int]]]:
        """Per span name: (self time in seconds, items) for every span.

        Self time is the span's duration minus the durations of its direct
        children, which never overlap because calls nest on one thread,
        divided by the slowdown measured over the span's set-up or operation
        (1 where none was measured).
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _op, _items in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, list[tuple[float, int]]] = {}
        for i, (name, start, end, _parent, op, items) in enumerate(self.spans):
            seconds = (end - start - child_ns[i]) / 1e9 / slowdown.get(op, 1.0)
            out.setdefault(name, []).append((seconds, items))
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op, items) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op, "items": items}))
                fh.write("\n")


def probe_stream(tracer, model, state, stream, grid, background_model, prior_span, winners):
    """Replay ``sequential_infer``'s per-observation steps through the public
    functions, in its order, with a span around each call.

    ``stream`` is already in stream order and ``state`` is fresh. Returns the
    number of observations whose winner differs from ``winners``, the labels
    that ``sequential_infer`` picked; any difference means the probe does not
    time what the library runs.
    """
    track_location = state.config.kind == MIGRATING_LOCATION
    track_time = state.config.kind == TIME_DECAY
    mismatches = 0
    for obs, expected in zip(stream, winners):
        with tracer.span("probe.observation", 1):
            out = tracer.call("classifier.forward", model.forward,
                              features_from(obs, model.input_kind))
            likelihood = tracer.call("calibration.softmax", per_instance_softmax, out)
            prior, loc = tracer.call(prior_span, prior_vector, state, obs, background_model, grid)
            posterior = tracer.call("fusion.fuse", fuse, likelihood, prior)
            winner = state.labels[int(np.argmax(posterior))]
            if track_location:
                tracer.call("priors.update", update_location, state, winner, loc)
            if track_time:
                tracer.call("priors.update", update_last_seen, state, winner, obs.timestamp)
        mismatches += winner != expected
    return mismatches


def layer_metrics(tracer: Tracer, train_epochs: int, prior_spans: tuple[str, ...],
                  slowdown: dict[str, float]) -> dict:
    """Per-layer timings from the recorded spans, scaled by ``slowdown`` (op
    id -> factor); 0 where no span of that kind ran on this workload."""
    st = tracer.self_times(slowdown)

    def per_call(name: str) -> float:
        rows = st.get(name, [])
        return statistics.median(s for s, _ in rows) if rows else 0.0

    def total(name: str) -> tuple[float, int, int]:
        rows = st.get(name, [])
        return sum(s for s, _ in rows), sum(n for _, n in rows), len(rows)

    def mean_us(*names: str) -> float:
        secs = calls = 0
        for name in names:
            s, _, c = total(name)
            secs, calls = secs + s, calls + c
        return secs / calls * 1e6 if calls else 0.0

    load_s, load_obs, _ = total("data.load_dataset")
    train_s, train_samples, _ = total("classifier.train")
    probe_obs = total("probe.observation")[2]
    parts_s = sum(total(n)[0] for n in ("classifier.forward", "calibration.softmax",
                                        "fusion.fuse", "priors.update", *prior_spans))
    replay_s, replay_obs, _ = total("fusion.sequential_infer")
    replay_us = replay_s / replay_obs * 1e6 if replay_obs else 0.0
    calls_us = mean_us("fusion.sequential_infer.call")

    m = {
        "simulate.generate_s": per_call("simulate.generate"),
        "data.save_dataset_s": per_call("data.save_dataset"),
        "data.load_dataset_s": per_call("data.load_dataset"),
        "data.load_obs_per_s": load_obs / load_s if load_s else 0.0,
        "data.build_catalog_s": per_call("data.build_catalog"),
        "classifier.train_s": per_call("classifier.train"),
        "classifier.train_epoch_ms": per_call("classifier.train") / train_epochs * 1e3,
        "classifier.train_samples_per_s": train_samples / train_s if train_s else 0.0,
        "classifier.train_background_s": per_call("classifier.train_background"),
        "classifier.checkpoint_s": per_call("classifier.save_model")
        + per_call("classifier.load_model"),
        "classifier.forward_us": mean_us("classifier.forward"),
        "calibration.softmax_us": mean_us("calibration.softmax"),
        "priors.update_us": mean_us("priors.update"),
        "fusion.fuse_us": mean_us("fusion.fuse"),
        "fusion.overhead_us": (
            replay_us - parts_s / probe_obs * 1e6 if probe_obs and replay_obs else 0.0
        ),
        "fusion.call_overhead_us": calls_us - replay_us if calls_us and replay_us else 0.0,
        "fusion.write_predictions_s": per_call("fusion.write_predictions"),
        "fusion.read_predictions_s": per_call("fusion.read_predictions"),
        "evaluation.score_s": per_call("evaluation.score_predictions"),
    }
    for name in prior_spans:
        m[name.replace("priors.prior_vector.", "priors.prior_us.")] = mean_us(name)
    return m
