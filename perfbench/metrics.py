"""Metrics of one benchmark run: end-to-end, per-layer, and the
determinism guard.

End-to-end metrics come from untraced operations; per-layer metrics from
the spans of traced ones (see README.md in this directory for the map of
each layer metric to the end-to-end metric it should move).
"""

from __future__ import annotations

import json
import math
import statistics
from collections import defaultdict
from typing import TYPE_CHECKING, Dict, List, Tuple

import inputs
import isolation
from spans import LAYERS, Span, breakdown, nesting_errors

if TYPE_CHECKING:
    from scenarios import Run

#: Op fields that must repeat exactly for the same program and input:
#: across rounds, between traced and untraced rounds, and across runs of
#: one seed.
SIGNATURE_FIELDS: Dict[str, Tuple[str, ...]] = {
    "compile": ("seq_cycles", "selected", "period"),
    "seq": ("steps", "cycles"),
    "execute": ("checkpoints", "misspeculations", "squashed", "wall_cycles"),
    "job": ("wall_cycles", "misspeculations"),
}

#: End-to-end metrics and their units.
E2E_UNITS = {"setup_s": "s", "op_s_p50": "s", "ops_per_s": "1/s",
             "ok_frac": "frac", "peak_rss_mb": "MB"}


PRIMARY = {"compile-cold": "compile", "run-clean": "execute",
           "run-misspec": "execute", "serve-mixed": "job"}


def _timed_ops(run: Run, traced: bool) -> List[Dict]:
    """The workload's primary operations (untimed population jobs
    excluded), untraced or traced."""
    kind = PRIMARY[run.settings.workload]
    return [op for op in run.ops
            if op["kind"] == kind and not op.get("population")
            and bool(op.get("traced")) == traced]


def _pct(values: List[float], q: int) -> float:
    """The q-th percentile (inclusive method); the sample itself for one."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _geomean(values: List[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def counts(run: Run) -> Tuple[int, int]:
    """(attempted, failed) over every checked operation of the run."""
    attempted = len(run.ops)
    failed = sum(1 for op in run.ops if "error" in op)
    return attempted, failed


def end_to_end(run: Run) -> Dict[str, float]:
    """Timings are in reference seconds (README.md, "Noise"): each wall
    time scaled by the host speed measured next to it.  The wall-clock
    values go to ``run.info["wall_clock"]``.

    The median is taken per program and averaged geometrically, so
    every program weighs the same whatever its speed: a pooled median
    would sit on whichever program happens to straddle it."""
    ops = _timed_ops(run, traced=False)
    attempted, failed = counts(run)
    reported, wall = {}, {}
    for values, scaled in ((reported, True), (wall, False)):
        def seconds(rec: Dict) -> float:
            return (isolation.reference_s(rec["wall_s"], rec["cal_s"])
                    if scaled else rec["wall_s"])

        by_program = defaultdict(list)
        for op in ops:
            by_program[op["program"]].append(seconds(op))
        if run.settings.workload == "serve-mixed":
            loop = run.info["untraced_loop_s"]
            if scaled:
                loop = isolation.reference_s(loop, statistics.median(
                    op["cal_s"] for op in ops))
            per_s = len(ops) / loop
        else:
            per_s = len(ops) / sum(seconds(op) for op in ops)
        values.update(
            setup_s=statistics.median(map(seconds, run.setup_samples)),
            op_s_p50=_geomean([_pct(v, 50) for v in by_program.values()]),
            ops_per_s=per_s)
    run.info["wall_clock"] = wall
    return {**reported,
            "ok_frac": 1.0 - failed / attempted,
            "peak_rss_mb": isolation.peak_rss_mb()}


#: Per-layer metrics and units, in the order README.md describes them.
LAYER_UNITS: Dict[str, str] = {
    "frontend.compile_s": "s", "frontend.ir_insts": "count",
    "interp.seq_s": "s", "interp.instructions": "count", "interp.ips": "1/s",
    "profiling.timeprof_s": "s", "profiling.loopprof_s": "s",
    "profiling.loops_profiled": "count",
    "classify.s": "s", "transform.s": "s", "bench.cache_hit_frac": "frac",
    "parallel.worker_cpu_s": "s", "parallel.worker_util": "frac",
    "parallel.work_inflation": "x", "parallel.parent_cpu_s": "s",
    "parallel.epochs": "count", "parallel.sim_speedup": "x",
    "parallel.speedup_geo": "x", "parallel.squashed_iterations": "count",
    "parallel.useful_frac": "frac",
    "runtime.checkpoint_s": "s", "runtime.checkpoints": "count",
    "runtime.private_bytes_copied": "B", "runtime.redux_bytes_merged": "B",
    "runtime.recovery_s": "s", "runtime.misspeculations": "count",
    "runtime.recoveries": "count",
    "adapt.grows": "count", "adapt.shrinks": "count",
    "adapt.fallbacks": "count", "adapt.sequential_iterations": "count",
    "adapt.final_epoch": "count",
    "service.job_s_p90": "s",
    "service.submit_s_p50": "s", "service.submit_s_p90": "s",
    "service.cache_hit_s_p50": "s", "service.queue_wait_s_p50": "s",
    "service.queue_wait_s_p90": "s", "service.warm_s_p50": "s",
    "service.cold_s_p50": "s", "service.batch_size_mean": "count",
    "service.refused": "count", "service.cache_hit_frac": "frac",
    "service.warm_frac": "frac", "service.cold_frac": "frac",
    **{f"self.{layer}_s": "s" for layer in LAYERS},
    "self.unattributed_s": "s", "trace.op_wall_s": "s",
    "trace.spans": "count", "trace.overhead_frac": "frac",
}


def _by_program_ratio(num: List[Dict], den: List[Dict]) -> float:
    """Geometric mean over programs of median(num wall)/median(den wall)."""
    a, b = defaultdict(list), defaultdict(list)
    for op in num:
        a[op["program"]].append(op["wall_s"])
    for op in den:
        b[op["program"]].append(op["wall_s"])
    return _geomean([statistics.median(a[p]) / statistics.median(b[p])
                     for p in a if p in b])


def per_layer(run: Run) -> Dict[str, float]:
    m = {name: 0.0 for name in LAYER_UNITS}
    serve = run.settings.workload == "serve-mixed"
    traced = _timed_ops(run, traced=True)
    n = max(1, len(traced))
    if serve:
        # perf_counter is CLOCK_MONOTONIC, shared with the server process.
        loop_start = run.info.get("traced_loop_start", 0.0)
        spans = [sp for sp in run.server_spans if sp.t0 >= loop_start]
        roots = {sp.op for sp in spans if sp.parent is None}
        spans = [sp for sp in spans if sp.op in roots]
    else:
        traced_ids = {op["span"] for op in run.ops if op.get("span")}
        spans = [sp for sp in run.tracer.spans if sp.op in traced_ids]
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for sp in spans:
        by_name[sp.name].append(sp)

    def total(name: str) -> float:
        return sum(sp.duration for sp in by_name[name])

    compiles = by_name["compile_minic"]
    m["frontend.compile_s"] = total("compile_minic") / n
    if compiles:
        m["frontend.ir_insts"] = statistics.mean(
            sp.attrs["ir_insts"] for sp in compiles)
    seq_runs = [sp for sp in by_name["Interpreter.run"]
                if sp.layer == "interp"]
    seq_s = sum(sp.duration for sp in seq_runs)
    instructions = sum(sp.attrs["instructions"] for sp in seq_runs)
    m["interp.seq_s"] = seq_s / n
    m["interp.instructions"] = instructions / n
    m["interp.ips"] = instructions / seq_s if seq_s else 0.0
    m["profiling.timeprof_s"] = total("profile_execution_time") / n
    m["profiling.loopprof_s"] = total("profile_loop") / n
    m["profiling.loops_profiled"] = len(by_name["profile_loop"]) / n
    m["classify.s"] = total("classify") / n
    m["transform.s"] = total("PrivateerTransform.run") / n
    loads = by_name["load_entry"]
    if loads:
        m["bench.cache_hit_frac"] = (
            sum(1 for sp in loads if sp.attrs.get("hit")) / len(loads))
    m["runtime.checkpoint_s"] = total("RuntimeSystem.checkpoint") / n
    m["runtime.recovery_s"] = total("runtime.recovery") / n

    if run.settings.workload == "compile-cold" and m["bench.cache_hit_frac"]:
        run.errors.append("compile-cold hit the profile cache: "
                          f"bench.cache_hit_frac {m['bench.cache_hit_frac']}")

    # Self times add up to each operation's wall time only if the spans
    # nest: children inside their parent, siblings apart.
    run.errors.extend(nesting_errors(spans)[:10])
    rows = breakdown(spans)
    for op_id, row in rows.items():
        for layer in LAYERS + ("unattributed",):
            m[f"self.{layer}_s"] += row[layer] / n
        m["trace.op_wall_s"] += row["wall"] / n
    m["trace.spans"] = len(spans) / n

    if serve:
        _service_metrics(run, traced, m)
        untraced = _timed_ops(run, traced=False)
        ratios = []
        for tier in ("cache_hit", "warm", "cold"):
            a = [op["wall_s"] for op in traced if op.get("served") == tier]
            b = [op["wall_s"] for op in untraced if op.get("served") == tier]
            if a and b:
                ratios.append(statistics.median(a) / statistics.median(b))
        m["trace.overhead_frac"] = _geomean(ratios) - 1.0 if ratios else 0.0
        return m

    untraced = _timed_ops(run, traced=False)
    m["trace.overhead_frac"] = _by_program_ratio(traced, untraced) - 1.0
    if PRIMARY[run.settings.workload] == "execute":
        _parallel_metrics(run, m)
    return m


def _parallel_metrics(run: Run, m: Dict[str, float]) -> None:
    """Counts and CPU of the execute operations (all rounds: the counts
    are deterministic, and CPU is measured without spans)."""
    ex = [op for op in run.ops if op["kind"] == "execute" and "error" not in op]
    seq = [op for op in run.ops if op["kind"] == "seq" and "error" not in op]
    if not ex:
        return
    n = len(ex)
    worker_cpu = sum(op["worker_cpu_s"] for op in ex)
    m["parallel.worker_cpu_s"] = worker_cpu / n
    m["parallel.parent_cpu_s"] = sum(op["parent_cpu_s"] for op in ex) / n
    m["parallel.worker_util"] = worker_cpu / sum(
        op["wall_s"] * inputs.POOL_WORKERS for op in ex)
    seq_cpu = sum(op["cpu_s"] for op in seq)
    m["parallel.work_inflation"] = (
        worker_cpu / n) / (seq_cpu / len(seq)) if seq else 0.0
    for key, name in (("checkpoints", "runtime.checkpoints"),
                      ("misspeculations", "runtime.misspeculations"),
                      ("recoveries", "runtime.recoveries"),
                      ("squashed", "parallel.squashed_iterations"),
                      ("private_bytes_copied", "runtime.private_bytes_copied"),
                      ("redux_bytes_merged", "runtime.redux_bytes_merged")):
        m[name] = sum(op[key] for op in ex) / n
    m["parallel.epochs"] = m["runtime.checkpoints"] + m["runtime.recoveries"]
    trips = sum(op["trips"] for op in ex)
    squashed = sum(op["squashed"] for op in ex)
    m["parallel.useful_frac"] = trips / (trips + squashed) if trips else 0.0
    for key in ("grows", "shrinks", "fallbacks", "sequential_iterations",
                "final_epoch"):
        m[f"adapt.{key}"] = sum(op.get(f"adapt_{key}", 0) for op in ex) / n
    cycles = {op["program"]: op["cycles"] for op in seq}
    m["parallel.sim_speedup"] = _geomean(
        [cycles[op["program"]] / op["wall_cycles"] for op in ex
         if op["program"] in cycles])
    m["parallel.speedup_geo"] = _by_program_ratio(seq, ex)


def _service_metrics(run: Run, jobs: List[Dict], m: Dict[str, float]) -> None:
    ok = [op for op in jobs if "error" not in op]
    served = defaultdict(list)
    for op in ok:
        served[op["served"]].append(op)
    # All jobs, failed ones included: a failure misses any latency limit.
    m["service.job_s_p90"] = _pct([op["wall_s"] for op in jobs], 90)
    m["service.submit_s_p50"] = _pct([op["submit_s"] for op in ok], 50)
    m["service.submit_s_p90"] = _pct([op["submit_s"] for op in ok], 90)
    m["service.cache_hit_s_p50"] = _pct(
        [op["wall_s"] for op in served["cache_hit"]], 50)
    queued = served["warm"] + served["cold"]
    m["service.queue_wait_s_p50"] = _pct(
        [op["queue_wait_s"] for op in queued], 50)
    m["service.queue_wait_s_p90"] = _pct(
        [op["queue_wait_s"] for op in queued], 90)
    m["service.warm_s_p50"] = _pct([op["lane_s"] for op in served["warm"]], 50)
    m["service.cold_s_p50"] = _pct([op["lane_s"] for op in served["cold"]], 50)
    batches = defaultdict(int)
    for op in queued:
        batches[op["batch"]] += 1
    if batches:
        m["service.batch_size_mean"] = statistics.mean(batches.values())
    m["service.refused"] = float(sum(1 for op in jobs if op.get("refused")))
    for tier in ("cache_hit", "warm", "cold"):
        m[f"service.{tier}_frac"] = len(served[tier]) / max(1, len(jobs))


# -- determinism guard -------------------------------------------------------------

def determinism_errors(run: Run) -> Tuple[List[str], Dict[str, list]]:
    """Signature fields must repeat exactly for each program and input
    within the run, traced and untraced rounds alike.  Returns the errors
    and the signature of every key."""
    errors: List[str] = []
    seen: Dict[str, list] = {}
    for op in run.ops:
        if "error" in op:
            continue
        key = (f"{op['kind']}:{op['program']}:{list(op['args'])}"
               f":{op.get('workers', '')}")
        sig = [op.get(f) for f in SIGNATURE_FIELDS[op["kind"]]]
        if seen.setdefault(key, sig) != sig:
            errors.append(f"{key}: {sig} != {seen[key]}")
    return errors, seen


def compare_with_previous(run: Run, seen: Dict[str, list],
                          digest: str) -> List[str]:
    """Across runs of one seed: compare with the signatures the last run
    of this workload and seed stored for the same package source."""
    s = run.settings
    path = s.results / f"signature-{s.workload}-seed{s.seed}.json"
    errors = []
    try:
        previous = json.loads(path.read_text())
    except (OSError, ValueError):
        previous = {}
    if previous.get("source") == digest:
        for key, sig in seen.items():
            old = previous["signatures"].get(key)
            if old is not None and old != sig:
                errors.append(f"{key}: {sig} != {old} in an earlier run")
    merged = dict(previous.get("signatures", {})
                  if previous.get("source") == digest else {})
    merged.update(seen)
    s.results.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"source": digest, "signatures": merged}))
    return errors


def traced_instruction_errors(run: Run) -> List[str]:
    """Interpreter instructions per traced compile must repeat."""
    per_op: Dict[int, int] = defaultdict(int)
    for sp in run.tracer.spans:
        if sp.name == "Interpreter.run":
            per_op[sp.op] += sp.attrs.get("instructions", 0)
    seen: Dict[str, int] = {}
    errors = []
    for op in run.ops:
        if op["kind"] == "compile" and op.get("span") and "error" not in op:
            count = per_op.get(op["span"], 0)
            op["instructions"] = count
            if seen.setdefault(op["program"], count) != count:
                errors.append(f"compile:{op['program']}: {count} "
                              f"instructions != {seen[op['program']]}")
    return errors
