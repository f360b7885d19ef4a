"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import isolation  # noqa: E402
import oracle  # noqa: E402
import scenarios  # noqa: E402
from metrics import counts  # noqa: E402
from oracle import Oracle, source_digest  # noqa: E402
from scenarios import Settings, run_workload  # noqa: E402
from spans import (Instrumentation, Span, Tracer, breakdown,  # noqa: E402
                   nesting_errors)


@pytest.fixture
def saved_environ():
    saved = dict(os.environ)
    try:
        yield
    finally:
        os.environ.clear()
        os.environ.update(saved)


def test_job_stream_is_seeded_and_block_shaped():
    def first(seed, n=3):
        blocks = inputs.job_blocks(seed)
        return [next(blocks) for _ in range(n)]

    assert first(7) == first(7)
    assert first(7) != first(8)
    for block in first(7):
        tiers = sorted(job.tier for job in block)
        assert tiers == sorted(inputs.BLOCK)
    population = {(j.program, j.args, j.workers)
                  for j in inputs.population(7)}
    for block in first(7, 10):
        for job in block:
            key = (job.program, job.args, job.workers)
            assert (key in population) == (job.tier == "cache_hit")


def test_self_times_and_unattributed_add_up_to_the_operation():
    tracer = Tracer()
    with tracer.operation("op") as root:
        outer = tracer.open("prepare", "bench")
        inner = tracer.open("compile_minic", "frontend")
        time.sleep(0.002)
        tracer.close(inner)
        time.sleep(0.002)
        tracer.close(outer)
        time.sleep(0.002)
    row = breakdown(tracer.spans)[root.id]
    parts = sum(v for k, v in row.items() if k != "wall")
    assert parts == pytest.approx(row["wall"], abs=1e-9)
    assert row["frontend"] == pytest.approx(inner.duration)
    assert row["bench"] == pytest.approx(outer.duration - inner.duration)
    assert row["unattributed"] > 0


def test_spans_outside_their_parent_are_reported():
    def span(id, parent, t0, t1):
        return Span(id, parent, 1, f"s{id}", "interp", 0, t0, t1)

    nested = [span(1, None, 0.0, 10.0), span(2, 1, 1.0, 4.0),
              span(3, 1, 4.0, 9.0)]
    assert nesting_errors(nested) == []
    assert len(nesting_errors(nested + [span(4, 1, 8.0, 11.0)])) == 2
    assert len(nesting_errors(nested + [span(5, 9, 1.0, 2.0)])) == 1


def test_the_table_is_the_reference_for_covered_seeds(tmp_path):
    program = "blackscholes"
    covered = inputs.train_args(program, 0)
    outside = inputs.train_args(program, max(oracle.TABLE_SEEDS) + 1)
    ref = oracle._step_reference(program, covered)
    checker = Oracle(tmp_path / "refs", source_digest(ROOT / "src"))
    checker.prepare(program, covered)
    assert checker.table_checked == 1
    assert not (tmp_path / "refs").exists()  # nothing computed
    assert checker.check(program, covered, ref["output"],
                         ref["return_value"]) is None
    assert "differs" in checker.check(program, covered, ref["output"][:-1],
                                      ref["return_value"])
    checker.prepare(program, outside)
    assert checker.table_checked == 1
    assert len(list((tmp_path / "refs").iterdir())) == 1


def test_instrumentation_restores_the_public_calls():
    from repro.bench import pipeline
    from repro.frontend import lower
    from repro.interp.interpreter import Interpreter

    originals = (lower.compile_minic, pipeline.compile_minic,
                 Interpreter.run)
    tracer = Tracer()
    instr = Instrumentation(tracer)
    instr.install()
    try:
        assert pipeline.compile_minic is not originals[1]
        with tracer.operation("op"):
            module = pipeline.compile_minic(
                "int main() { return 3; }", "tiny")
            assert Interpreter(module).run("main", ()) == 3
    finally:
        instr.uninstall()
    assert (lower.compile_minic, pipeline.compile_minic,
            Interpreter.run) == originals
    names = [sp.name for sp in tracer.spans]
    assert "compile_minic" in names and "Interpreter.run" in names


def test_a_wrong_answer_is_counted_not_fatal(tmp_path, saved_environ,
                                             monkeypatch):
    monkeypatch.setitem(scenarios.SETUP_REPS, "run-clean", 1)
    isolation.pin_environment(tmp_path / "work")
    settings = Settings(workload="run-clean", seed=3, seconds=0.0,
                        trace=False, src=ROOT / "src",
                        work=tmp_path / "work", results=tmp_path / "results")
    digest = source_digest(ROOT / "src")
    oracle = Oracle(tmp_path / "refs", digest, corrupt="blackscholes")
    run, values = run_workload(settings, oracle, digest)
    attempted, failed = counts(run)
    assert attempted == 10  # one round: a sequential run and an execute each
    assert failed == 2      # blackscholes, both of its operations
    assert values["ok_frac"] == pytest.approx(0.8)
    assert not run.errors
    # The pool started the resource tracker; the run stopped it.
    assert isolation.child_pids() == []


def test_each_reading_is_shared_by_adjacent_operations(monkeypatch):
    readings = iter([0.004, 0.006, 0.010])
    monkeypatch.setattr(isolation, "calibration_s", lambda: next(readings))
    speed = isolation.HostSpeed()
    first, second = {}, {}
    with speed.around(first):
        pass
    with speed.around(second):
        pass
    assert first["cal_s"] == pytest.approx(0.005)
    assert second["cal_s"] == pytest.approx(0.008)
    # Twice the loop time means the host ran at half the reference speed.
    assert isolation.reference_s(1.0, 2 * isolation.CAL_REF_S) == 0.5


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "run-clean",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
