"""The four benchmark workloads.

* ``compile-cold`` — cold ``prepare()`` of the five programs, one thread.
* ``run-clean`` — pool ``execute()`` at 2 workers, paired with the
  sequential fast path of the unmodified program.
* ``run-misspec`` — the same with injected misspeculation and adaptation.
* ``serve-mixed`` — two closed-loop clients against ``repro serve``.

Every timed operation is checked against :class:`oracle.Oracle`.  A
``--trace 0`` run measures untraced operations only; a ``--trace 1`` run
alternates untraced and traced rounds (phases, for serve-mixed) so
:mod:`metrics` can report the per-layer metrics, the self-time breakdown
and the tracing overhead.
"""

from __future__ import annotations

import json
import os
import re
import resource
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import inputs
import isolation
import metrics
from oracle import Oracle
from spans import Instrumentation, Span, Tracer

HERE = Path(__file__).resolve().parent

WORKLOADS = ("compile-cold", "run-clean", "run-misspec", "serve-mixed")

#: An operation still running after this long is abandoned and counted
#: as failed.
OP_TIMEOUT_S = 60.0
#: serve-mixed runs whole cycles of this many jobs: five blocks, so every
#: program is submitted equally often at every tier.
CYCLE = len(inputs.BLOCK) * len(inputs.PROGRAMS)
#: Seconds one round over the five programs (serve-mixed: one cycle) takes
#: on a 2-core host.  A run does ``--seconds`` worth of whole rounds, so
#: the same ``--seconds`` always measures the same operations.
ROUND_S = {"compile-cold": 4.0, "run-clean": 4.0, "run-misspec": 4.0,
           "serve-mixed": 8.0}
#: Set-ups per run; ``setup_s`` is their median.  A run-* set-up prepares
#: all five programs (about 2 s), the others start one process (about
#: 0.4 s), so those can afford more samples.
SETUP_REPS = {"compile-cold": 9, "run-clean": 3, "run-misspec": 3,
              "serve-mixed": 9}
#: serve-mixed: closed-loop clients (the host has two cores).
CLIENTS = 2
#: serve-mixed: interval between ``GET /jobs/<id>`` polls.
POLL_S = 0.02
#: A closed loop stops issuing work after this long, so a stalled system
#: still ends within the run's time limit.
LOOP_CAP_S = 100.0
SERVER_START_TIMEOUT_S = 60.0
SERVER_STOP_TIMEOUT_S = 30.0


@dataclass
class Settings:
    """One run's command line plus where it may write."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    src: Path
    work: Path
    results: Path


@dataclass
class Run:
    """Everything one benchmark run measures."""

    settings: Settings
    oracle: Oracle
    ops: List[Dict[str, object]] = field(default_factory=list)
    #: One ``{"wall_s", "cal_s"}`` per set-up.
    setup_samples: List[Dict[str, float]] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    tracer: Tracer = field(default_factory=Tracer)
    #: Spans recorded inside the traced server process (serve-mixed).
    server_spans: List[Span] = field(default_factory=list)
    info: Dict[str, object] = field(default_factory=dict)
    speed: isolation.HostSpeed = field(default_factory=isolation.HostSpeed)
    _dirs: int = 0

    def fresh_dir(self, name: str) -> Path:
        self._dirs += 1
        path = self.settings.work / f"{name}-{self._dirs}"
        path.mkdir(parents=True)
        return path

    @contextmanager
    def timed(self, op: Dict[str, object], traced: bool) -> Iterator[None]:
        """Time one operation; an exception or a timeout marks it failed
        instead of ending the run."""
        scope = (self.tracer.operation(str(op["kind"]),
                                       program=op.get("program"))
                 if traced else nullcontext())
        op["traced"] = traced
        with self.speed.around(op):
            t0 = time.perf_counter()
            try:
                with scope as span, isolation.deadline(OP_TIMEOUT_S):
                    if span is not None:
                        op["span"] = span.id
                    yield
            except Exception as exc:  # counted as a failed operation
                op["error"] = f"{type(exc).__name__}: {exc}"
            finally:
                op["wall_s"] = time.perf_counter() - t0
        self.ops.append(op)

    @contextmanager
    def setup(self) -> Iterator[Dict[str, float]]:
        """Time one set-up; the caller may set ``wall_s`` itself."""
        rec: Dict[str, float] = {}
        with self.speed.around(rec):
            t0 = time.perf_counter()
            yield rec
            rec.setdefault("wall_s", time.perf_counter() - t0)
        self.setup_samples.append(rec)

    def verify(self, op: Dict[str, object], output, return_value) -> None:
        problem = self.oracle.check(str(op["program"]), op["args"],
                                    output, return_value)
        if problem:
            op["error"] = problem

    def units(self) -> int:
        """Rounds (serve-mixed: cycles) this run measures; even when
        traced, so untraced and traced halves are the same size."""
        s = self.settings
        n = max(1, round(s.seconds / ROUND_S[s.workload]))
        return max(2, n + n % 2) if s.trace else n

    def rounds(self, one_round: Callable[[int, bool], None]) -> None:
        """Whole rounds over the five programs, so every program weighs
        the same in every run.  Traced runs alternate untraced and traced
        rounds."""
        for r in range(self.units()):
            traced = self.settings.trace and r % 2 == 1
            instr = Instrumentation(self.tracer) if traced else None
            if instr:
                instr.install()
            try:
                one_round(r, traced)
            finally:
                if instr:
                    instr.uninstall()


def _source(program: str) -> str:
    from repro.workloads import BY_NAME

    return BY_NAME[program].source


# -- compile-cold ---------------------------------------------------------------

def compile_cold(run: Run) -> None:
    from repro.bench import pipeline

    s = run.settings
    # Set-up is what a compile pays before it starts: a fresh interpreter
    # importing the toolchain.  The deadline, not ``timeout=``, guards the
    # child: a timeout makes ``wait`` poll in steps of up to 50 ms.
    env = dict(os.environ, PYTHONPATH=str(s.src))
    for _ in range(SETUP_REPS[s.workload]):
        with run.setup(), isolation.deadline(OP_TIMEOUT_S):
            subprocess.run([sys.executable, "-c",
                            "import repro.bench.pipeline, repro.workloads"],
                           env=env, check=True)

    args = {p: (inputs.train_args(p, s.seed), inputs.run_args(p, s.seed))
            for p in inputs.PROGRAMS}
    for p, (_, ref) in args.items():
        run.oracle.prepare(p, ref)

    def one_round(r: int, traced: bool) -> None:
        for p in inputs.PROGRAMS:
            train, ref = args[p]
            os.environ["REPRO_CACHE_DIR"] = str(run.fresh_dir("cache"))
            op = {"kind": "compile", "program": p, "args": ref, "round": r}
            with run.timed(op, traced):
                prog = pipeline.prepare(_source(p), p, args=train,
                                        ref_args=ref)
            if "error" in op:
                continue
            op.update(seq_cycles=prog.sequential.cycles,
                      selected=str(prog.plan.ref),
                      period=prog.plan.checkpoint_period)
            run.verify(op, prog.sequential.output,
                       prog.sequential.return_value)

    run.rounds(one_round)


# -- run-clean / run-misspec ------------------------------------------------------

def run_programs(run: Run, misspec: bool) -> None:
    from repro.bench import pipeline
    from repro.frontend.lower import compile_minic
    from repro.interp.interpreter import Interpreter

    s = run.settings
    train = {p: inputs.train_args(p, s.seed) for p in inputs.PROGRAMS}
    ref = {p: inputs.run_args(p, s.seed) for p in inputs.PROGRAMS}
    for _ in range(SETUP_REPS[s.workload]):
        os.environ["REPRO_CACHE_DIR"] = str(run.fresh_dir("cache"))
        with run.setup():
            # The baseline inside prepare() runs on the train input; the
            # timed sequential runs below measure the ref input.
            programs = {p: pipeline.prepare(_source(p), p, args=train[p],
                                            ref_args=train[p])
                        for p in inputs.PROGRAMS}
            modules = {p: compile_minic(_source(p), p)
                       for p in inputs.PROGRAMS}
    for p in inputs.PROGRAMS:
        run.oracle.prepare(p, ref[p])

    knobs = dict(workers=inputs.POOL_WORKERS, backend="pool",
                 misspec_period=inputs.MISSPEC_PERIOD if misspec else 0,
                 adapt=misspec)

    def one_round(r: int, traced: bool) -> None:
        for p in inputs.PROGRAMS:
            op = {"kind": "seq", "program": p, "args": ref[p], "round": r}
            with run.timed(op, traced):
                interp = Interpreter(modules[p])
                c0 = time.process_time()
                rv = interp.run("main", ref[p])
                op["cpu_s"] = time.process_time() - c0
            if "error" not in op:
                op.update(steps=interp.steps, cycles=interp.cycles)
                run.verify(op, interp.output, rv)

            if misspec:  # a fresh policy store: no warm start across runs
                os.environ["REPRO_ADAPT_DIR"] = str(run.fresh_dir("adapt"))
            op = {"kind": "execute", "program": p, "args": ref[p],
                  "round": r}
            with run.timed(op, traced):
                children0 = isolation.cpu_seconds(resource.RUSAGE_CHILDREN)
                self0 = isolation.cpu_seconds(resource.RUSAGE_SELF)
                result = programs[p].execute(args=ref[p], **knobs)
                op["parent_cpu_s"] = (isolation.cpu_seconds(
                    resource.RUSAGE_SELF) - self0)
                op["worker_cpu_s"] = (isolation.cpu_seconds(
                    resource.RUSAGE_CHILDREN) - children0)
            if "error" not in op:
                op.update(_execution_counts(result))
                run.verify(op, result.output, result.return_value)

    run.rounds(one_round)


def _execution_counts(result) -> Dict[str, object]:
    stats = result.runtime_stats
    records = stats.checkpoint_records
    counts = {
        "checkpoints": stats.checkpoints,
        "misspeculations": stats.misspec_count(),
        "recoveries": stats.recoveries,
        "squashed": sum(i.recovered_iterations for i in result.invocations),
        "trips": sum(i.trips for i in result.invocations),
        "wall_cycles": result.total_wall_cycles,
        "private_bytes_copied": sum(c.private_bytes_copied for c in records),
        "redux_bytes_merged": sum(c.redux_bytes_merged for c in records),
    }
    if result.adapt:
        for key in ("grows", "shrinks", "fallbacks", "sequential_iterations",
                    "final_epoch"):
            counts[f"adapt_{key}"] = result.adapt.get(key, 0)
    return counts


# -- serve-mixed -----------------------------------------------------------------

@dataclass
class Server:
    proc: subprocess.Popen
    url: str
    setup_s: float
    out: Path
    spans: Optional[Path]


def start_server(run: Run, traced: bool) -> Server:
    """Start ``repro serve --port 0`` in its own process and wait until
    ``/health`` answers."""
    from repro.service.client import ServiceClient, ServiceError

    s = run.settings
    out = run.fresh_dir("serve") / "serve.out"
    spans = out.with_name("spans.json") if traced else None
    cmd = ([sys.executable, str(HERE / "serve_traced.py"), str(spans)]
           if traced else [sys.executable, "-m", "repro", "serve"])
    cmd += ["--port", "0"]
    # Each server starts cold: its own profile cache and policy store.
    env = dict(os.environ, PYTHONPATH=str(s.src))
    for key in isolation.SCRATCH_ENV:
        env[key] = str(out.parent / key.lower())
    t0 = time.perf_counter()
    with open(out, "wb") as stdout, open(out.with_suffix(".err"), "wb") as err:
        proc = subprocess.Popen(cmd, stdout=stdout, stderr=err, env=env,
                                cwd=str(out.parent))
    url = None
    while time.perf_counter() - t0 < SERVER_START_TIMEOUT_S:
        if proc.poll() is not None:
            break
        if url is None:
            found = re.search(r"job API on (http://\S+)", out.read_text())
            url = found.group(1) if found else None
        if url is not None:
            try:
                ServiceClient(url, timeout=2.0).health()
                return Server(proc, url, time.perf_counter() - t0, out, spans)
            except ServiceError:
                pass
        time.sleep(0.002)
    proc.kill()
    proc.wait()
    raise RuntimeError(f"server did not answer /health: {out.read_text()}"
                       f"{out.with_suffix('.err').read_text()}")


def stop_server(run: Run, server: Server) -> None:
    """SIGTERM the server; it must drain and exit 0."""
    server.proc.send_signal(signal.SIGTERM)
    try:
        rc = server.proc.wait(timeout=SERVER_STOP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        server.proc.kill()
        server.proc.wait()
        run.errors.append("server did not exit on SIGTERM")
        return
    if rc != 0 or "drained and stopped" not in server.out.read_text():
        run.errors.append(f"server exited {rc} without a drained stop")
    if server.spans is not None:
        run.server_spans.extend(
            Span(**row) for row in json.loads(server.spans.read_text()))


def _submit_and_wait(client, job: inputs.Job) -> Dict[str, object]:
    from repro.service.client import ServiceError
    from repro.service.jobstore import TERMINAL_STATES

    rec: Dict[str, object] = {"kind": "job", "tier": job.tier,
                              "program": job.program, "args": job.args,
                              "workers": job.workers}
    t0 = time.perf_counter()
    try:
        j = client.submit(job.payload())
        rec["submit_s"] = time.perf_counter() - t0
        if j["state"] not in TERMINAL_STATES:
            j = client.wait(j["id"], timeout=OP_TIMEOUT_S, poll_s=POLL_S)
    except ServiceError as exc:
        rec["error"] = str(exc)
        rec["refused"] = exc.status == 429
    except (TimeoutError, OSError) as exc:
        rec["error"] = f"{type(exc).__name__}: {exc}"
    else:
        result = j.get("result") or {}
        rec.update(
            state=j["state"],
            served=("cache_hit" if j["cache_hit"]
                    else "warm" if j["warm"] else "cold"),
            queue_wait_s=((j["started_unix"] or j["submitted_unix"])
                          - j["submitted_unix"]),
            lane_s=((j["finished_unix"] or 0) - (j["started_unix"] or 0)
                    if j["started_unix"] else 0.0),
            batch=j["batch"],
            output=result.get("output"),
            return_value=result.get("return_value"),
            wall_cycles=(result.get("table1") or {}).get("wall_cycles"),
            misspeculations=result.get("misspeculations"))
        if j["state"] != "done":
            rec["error"] = f"job ended {j['state']}: {j.get('error')}"
    rec["wall_s"] = time.perf_counter() - t0
    return rec


def serve_phase(run: Run, server: Server, cycles: int, traced: bool) -> None:
    """Population jobs (untimed), then the closed loop, then SIGTERM."""
    from repro.service.client import ServiceClient

    s = run.settings
    phase = "traced" if traced else "untraced"
    records: List[Dict[str, object]] = []
    try:
        client = ServiceClient(server.url, timeout=OP_TIMEOUT_S)
        t0 = time.perf_counter()
        for job in inputs.population(s.seed):
            rec = _submit_and_wait(client, job)
            rec.update(population=True, traced=traced)
            records.append(rec)
        run.info[f"{phase}_population_s"] = time.perf_counter() - t0

        blocks = inputs.job_blocks(s.seed)
        pending: List[inputs.Job] = []
        lock = threading.Lock()
        issued = 0
        start = time.perf_counter()

        def next_job() -> Optional[inputs.Job]:
            nonlocal issued
            with lock:
                if (issued >= cycles * CYCLE
                        or time.perf_counter() - start >= LOOP_CAP_S):
                    return None
                if not pending:
                    pending.extend(next(blocks))
                issued += 1
                return pending.pop(0)

        def client_loop() -> None:
            speed = isolation.HostSpeed()
            while True:
                job = next_job()
                if job is None:
                    return
                cal: Dict[str, object] = {}
                try:
                    with speed.around(cal):
                        rec = _submit_and_wait(client, job)
                except Exception as exc:  # keep the loop; count the job
                    rec = {"kind": "job", "tier": job.tier,
                           "program": job.program, "args": job.args,
                           "workers": job.workers, "wall_s": 0.0,
                           "error": f"{type(exc).__name__}: {exc}"}
                rec.update(cal, traced=traced)
                with lock:
                    records.append(rec)

        threads = [threading.Thread(target=client_loop, daemon=True)
                   for _ in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(LOOP_CAP_S + 2 * OP_TIMEOUT_S)
            if t.is_alive():
                run.errors.append("a serve client thread did not finish")
        run.info[f"{phase}_loop_s"] = time.perf_counter() - start
        run.info[f"{phase}_loop_start"] = start
    finally:
        stop_server(run, server)
    # Check every job against the reference, outside the timed loop.
    for rec in records:
        if "error" in rec:
            continue
        run.oracle.prepare(rec["program"], rec["args"])
        problem = run.oracle.check(rec["program"], rec["args"],
                                   rec["output"] or [], rec["return_value"])
        if problem:
            rec["error"] = problem
    for rec in records:
        rec.pop("output", None)
    run.ops.extend(records)


def serve_mixed(run: Run) -> None:
    server = None
    for _ in range(SETUP_REPS[run.settings.workload]):
        if server is not None:
            stop_server(run, server)
        with run.setup() as rec:
            server = start_server(run, traced=False)
            rec["wall_s"] = server.setup_s
    if not run.settings.trace:
        serve_phase(run, server, run.units(), traced=False)
        return
    # Traced runs compare an untraced and a traced server, half each.
    serve_phase(run, server, run.units() // 2, traced=False)
    serve_phase(run, start_server(run, traced=True), run.units() // 2,
                traced=True)


SCENARIOS: Dict[str, Callable[[Run], None]] = {
    "compile-cold": compile_cold,
    "run-clean": lambda run: run_programs(run, misspec=False),
    "run-misspec": lambda run: run_programs(run, misspec=True),
    "serve-mixed": serve_mixed,
}


def run_workload(settings: Settings, oracle: Oracle,
                 digest: str) -> Tuple[Run, Dict[str, float]]:
    """Run one workload; returns the run and its reported metrics."""
    run = Run(settings, oracle)
    shm_before = isolation.shm_segments()
    SCENARIOS[settings.workload](run)
    run.errors.extend(isolation.leak_errors(shm_before))
    errors, seen = metrics.determinism_errors(run)
    run.errors.extend(errors)
    run.errors.extend(metrics.traced_instruction_errors(run))
    run.errors.extend(metrics.compare_with_previous(run, seen, digest))
    values = (metrics.per_layer(run) if settings.trace
              else metrics.end_to_end(run))
    return run, values

