"""Tier-1 smoke runs of the benchmark: the set-up and first pass of the
lynx-loop (K=25), population-replay (K=500, so fusion's log-space branch)
and online-stream (the same population, one sighting per call) workloads at
seed 0 must reproduce the counts and the accuracy recorded in
bench/reference.json exactly. Catches a dataset or prediction byte drift
before a benchmark run does; makes no timing assertion. The lynx-loop pass
runs its first op traced, as ``bench/run.py --trace 1`` does: the one-row
functions the benchmark probes must pick every winner sequential_infer picks."""

import json
import logging
import sys
from pathlib import Path


BENCH = Path(__file__).resolve().parent.parent / "bench"


def _first_pass(name, tmp_path, monkeypatch, traced_ops=()):
    # Read-only on bench/: no bytecode cache is written next to its sources.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import Tracer
    from workloads import WORKLOADS

    reference = json.loads((BENCH / "reference.json").read_text())["workloads"][name]["0"]
    workload = WORKLOADS[name](0, tmp_path, Tracer(False))
    try:
        workload.setup()
        _, failed = workload.prepare()
        for index in range(workload.ops_per_pass):
            _, bad = workload.run_op(index, index in traced_ops)
            failed += bad
        accuracy, counts = workload.pass_results()
    finally:
        logging.getLogger("idfusion.fusion").removeHandler(workload.fallbacks)
    assert (failed, workload.failures) == (0, [])
    assert {"fused_accuracy": accuracy, "counts": counts} == reference


def test_lynx_loop_first_pass_matches_the_reference(tmp_path, monkeypatch):
    _first_pass("lynx-loop", tmp_path, monkeypatch, traced_ops=(0,))


def test_population_replay_first_pass_matches_the_reference(tmp_path, monkeypatch):
    _first_pass("population-replay", tmp_path, monkeypatch)


def test_online_stream_first_pass_matches_the_reference(tmp_path, monkeypatch):
    _first_pass("online-stream", tmp_path, monkeypatch)
