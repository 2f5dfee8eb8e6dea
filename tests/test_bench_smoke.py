"""Tier-1 smoke run of the benchmark: the lynx-loop workload's set-up and
first pass at seed 0 must reproduce the counts and the accuracy recorded in
bench/reference.json exactly. Catches a dataset or prediction byte drift
before a benchmark run does; makes no timing assertion."""

import json
import logging
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_lynx_loop_first_pass_matches_the_reference(tmp_path, monkeypatch):
    # Read-only on bench/: no bytecode cache is written next to its sources.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import Tracer
    from workloads import LynxLoop

    reference = json.loads((BENCH / "reference.json").read_text())["workloads"]["lynx-loop"]["0"]
    workload = LynxLoop(0, tmp_path, Tracer(False))
    try:
        workload.setup()
        _, failed = workload.prepare()
        for index in range(workload.ops_per_pass):
            _, bad = workload.run_op(index, False)
            failed += bad
        accuracy, counts = workload.pass_results()
    finally:
        logging.getLogger("idfusion.fusion").removeHandler(workload.fallbacks)
    assert (failed, workload.failures) == (0, [])
    assert {"fused_accuracy": accuracy, "counts": counts} == reference
