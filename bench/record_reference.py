"""Record fused_accuracy and every count per workload and seed in reference.json.

    python3 bench/record_reference.py 0-30

Run from the repository root on code whose results are known to be right.
For each seed it sets up each workload once and runs its first pass, which is
where run.py takes the values it checks against this file. Entries for other
seeds are kept.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def first_pass(workload_cls, seed: int) -> dict:
    from tracing import Tracer

    (run.BENCH / "work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=run.BENCH / "work", prefix="reference-"))
    try:
        workload = workload_cls(seed, work, Tracer(False))
        workload.setup()
        _, failed = workload.prepare()
        for index in range(workload.ops_per_pass):
            _, bad = workload.run_op(index, False)
            failed += bad
        if failed or workload.failures:
            sys.exit(f"error: {workload.name} seed {seed} failed a check: {workload.failures}")
        accuracy, counts = workload.pass_results()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"fused_accuracy": accuracy, "counts": counts}


def main() -> int:
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    run.import_library()
    from workloads import WORKLOADS

    path = run.BENCH / "reference.json"
    reference = json.loads(path.read_text())
    for seed in parse_seeds(sys.argv[1]):
        for name, workload_cls in WORKLOADS.items():
            reference["workloads"].setdefault(name, {})[str(seed)] = first_pass(workload_cls, seed)
            print(f"{name} seed {seed}: {reference['workloads'][name][str(seed)]}", flush=True)
    for entries in reference["workloads"].values():
        ordered = sorted(entries.items(), key=lambda item: int(item[0]))
        entries.clear()
        entries.update(ordered)
    path.write_text(json.dumps(reference, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
