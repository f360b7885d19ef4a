"""Repository benchmark: run one workload with one seed.

    python3 perfbench/run.py --workload run-clean --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  Every raw duration, the seed, the inputs and a host
stamp go to ``.perfbench/results/``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import isolation  # noqa: E402


def parse_args(argv):
    from scenarios import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'repro'}; run from the "
              "root of a repository checkout", file=sys.stderr)
        return 2
    work = OUT / "work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    pinned = isolation.pin_environment(work)
    sys.path.insert(0, str(SRC))
    from metrics import E2E_UNITS, LAYER_UNITS, counts
    from oracle import Oracle, source_digest
    from scenarios import Settings, run_workload

    settings = Settings(workload=args.workload, seed=args.seed,
                        seconds=args.seconds, trace=bool(args.trace),
                        src=SRC, work=work, results=OUT / "results")
    digest = source_digest(SRC)
    # Determinism signatures also depend on the benchmark's own inputs.
    signature_digest = hashlib.sha256(digest.encode() + b"".join(
        p.read_bytes() for p in sorted(HERE.glob("*.py")))).hexdigest()
    started = time.time()
    oracle = Oracle(OUT / "refs", digest)
    try:
        run, values = run_workload(settings, oracle, signature_digest)
    finally:
        isolation.stop_children()
        shutil.rmtree(work, ignore_errors=True)
    run.info["refs_in_table"] = oracle.table_checked
    attempted, failed = counts(run)
    units = LAYER_UNITS if settings.trace else E2E_UNITS
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "started_unix": started, "host": isolation.host_stamp(),
        "source_digest": digest, "environment": pinned,
        "inputs": {p: {"train": inputs.train_args(p, args.seed),
                       "run": inputs.run_args(p, args.seed)}
                   for p in inputs.PROGRAMS},
        "setup_s_samples": run.setup_samples, "info": run.info,
        "jobs": sum(1 for op in run.ops if op["kind"] == "job"),
        "ops": run.ops, "errors": run.errors, "metrics": metrics,
    }
    settings.results.mkdir(parents=True, exist_ok=True)
    path = settings.results / (f"{args.workload}-seed{args.seed}-"
                               f"trace{args.trace}-{int(started)}.json")
    path.write_text(json.dumps(record, indent=1, default=str))
    if settings.trace:
        (path.with_suffix(".spans.json")).write_text(json.dumps(
            [sp.to_json() for sp in run.tracer.spans + run.server_spans]))

    kinds = {}
    for op in run.ops:
        kinds[op["kind"]] = kinds.get(op["kind"], 0) + 1
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"samples={kinds} record={path.relative_to(ROOT)}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
    for name, value in run.info.get("wall_clock", {}).items():
        print(f"  {name + ' (wall clock)':32s} {value:14.6g}")
    for op in run.ops:
        if "error" in op:
            print(f"  FAILED {op['kind']} {op['program']}: {op['error']}")
    for err in run.errors:
        print(f"  ERROR {err}")
    correct = failed == 0 and not run.errors
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
