"""Run hygiene: pinned environment, per-operation deadlines, leak checks,
memory, host speed and host stamp.

A run must not be steered by the caller's environment, must turn a hang
into a counted failure, and must leave no shared-memory segment or child
process behind.
"""

from __future__ import annotations

import os
import platform
import resource
import signal
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set

#: Values every run pins, whatever the caller's environment says.
PINNED_ENV: Dict[str, str] = {
    "REPRO_BACKEND": "simulated",
    "REPRO_INTERP": "fast",
    "REPRO_ADAPT": "0",
    "REPRO_LOG": "off",
}

#: Per-run scratch directories, one environment variable each.
SCRATCH_ENV = ("REPRO_CACHE_DIR", "REPRO_ADAPT_DIR", "REPRO_FLIGHT_DIR")

#: Name prefix of the pool backend's shared-memory rings.
SHM_PREFIX = "repro-pool-"


def pin_environment(work: Path) -> Dict[str, str]:
    """Drop every ``REPRO_*`` variable (``REPRO_SHADOW`` unset selects the
    vectorized shadow), then set :data:`PINNED_ENV` and scratch dirs."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update(PINNED_ENV)
    for key in SCRATCH_ENV:
        path = work / key[len("REPRO_"):].lower()
        path.mkdir(parents=True, exist_ok=True)
        os.environ[key] = str(path)
    return {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}


class OperationTimeout(Exception):
    """An operation ran past its deadline."""


@contextmanager
def deadline(seconds: float) -> Iterator[None]:
    """Raise :class:`OperationTimeout` in the main thread after
    ``seconds``.  Interval timers are not inherited across ``fork``, so
    pool workers are unaffected."""
    def _expire(signum, frame):
        raise OperationTimeout(f"operation exceeded {seconds:.0f}s")

    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def shm_segments() -> Set[str]:
    """Pool ring segments currently in ``/dev/shm``."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith(SHM_PREFIX)}
    except OSError:
        return set()


def child_pids() -> List[int]:
    """Live children of this process."""
    pids: List[int] = []
    task_dir = Path("/proc/self/task")
    try:
        for task in task_dir.iterdir():
            text = (task / "children").read_text()
            pids.extend(int(p) for p in text.split())
    except OSError:
        return []
    return sorted(set(pids))


def stop_resource_tracker() -> None:
    """Stop the multiprocessing resource tracker and wait for it to end.

    The pool backend's shared-memory rings start this helper process on
    first use.  Left alone it outlives the benchmark: it only exits once
    it sees the benchmark's end of its pipe close, after the benchmark
    has already exited."""
    from multiprocessing import resource_tracker

    try:
        resource_tracker._resource_tracker._stop()
    except ChildProcessError:  # already reaped
        pass


def stop_children() -> None:
    """Stop the resource tracker, then kill and wait for every other
    child still alive, so no process of the run outlives it."""
    stop_resource_tracker()
    for pid in child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def leak_errors(shm_before: Set[str]) -> List[str]:
    """Leaked shared-memory segments and child processes.  Stops the
    resource tracker first: by then no run operation needs it."""
    errors = []
    leaked = sorted(shm_segments() - shm_before)
    if leaked:
        errors.append(f"leaked shared-memory segments: {leaked}")
    stop_resource_tracker()
    children = child_pids()
    if children:
        errors.append(f"leaked child processes: {children}")
    return errors


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest waited-for
    child (``ru_maxrss`` is in KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


#: Seconds :func:`calibration_s` takes at the reference host speed: about
#: its time on the 2-core Intel Xeon host the bounds were set on, at that
#: host's fastest (its median there was 6 ms).  Timings reported in
#: reference seconds are ``wall * CAL_REF_S / calibration``.
CAL_REF_S = 0.004


def _cal_step(regs: List[int], i: int) -> int:
    return regs[i & 63] + (i ^ 0x5BD1)


def calibration_s() -> float:
    """Seconds of a fixed pure-Python loop that uses nothing of the
    package: calls, list and dict traffic and integer arithmetic, the
    mix an interpreter written in Python spends its time on.  Timed next
    to every operation, it tells how fast the host ran just then."""
    regs = list(range(64))
    mem: Dict[int, int] = {}
    t0 = time.perf_counter()
    for i in range(18_000):
        v = _cal_step(regs, i)
        regs[i & 63] = v & 0xFFFF
        mem[i & 1023] = v
    return time.perf_counter() - t0


def reference_s(wall_s: float, cal_s: float) -> float:
    """``wall_s`` scaled to the reference host speed."""
    return wall_s * CAL_REF_S / cal_s


class HostSpeed:
    """Calibration readings around the consecutive operations of one
    thread.  The reading after one operation is the reading before the
    next, so each operation costs one :func:`calibration_s`."""

    def __init__(self) -> None:
        self.last: Optional[float] = None

    @contextmanager
    def around(self, rec: Dict[str, object]) -> Iterator[None]:
        """Set ``rec["cal_s"]`` to the mean of the readings just before
        and just after the enclosed operation."""
        before = self.last if self.last is not None else calibration_s()
        try:
            yield
        finally:
            self.last = calibration_s()
            rec["cal_s"] = (before + self.last) / 2


def host_stamp() -> Dict[str, object]:
    """Results are only comparable within one host."""
    model = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu_model": model, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform()}
