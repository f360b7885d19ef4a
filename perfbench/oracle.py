"""Reference outputs every timed operation is checked against.

The reference is the ``step`` interpreter (``compiled=False``, the
executable spec) running the *untransformed* program.  Run on the code
under test, that reference would go through the frontend under test, so
a miscompile would reach the reference and the timed run alike.  The
references for seeds 0-99 are therefore committed as ``expected.json``:
a short hash of each input's output and return value, written once by
the step interpreter of a known-good commit.  Only inputs outside that
table get a step-interpreter reference computed on the code under test;
those are computed outside every timed region and kept on disk inside
the checkout, keyed by the digest of the package source.

Every enc_md5 output is also checked against hashlib digests of the same
guest messages, which depends on no code of the package.

To rewrite the table (only when a program or the inputs change on
purpose):

    python3 perfbench/oracle.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
TABLE = HERE / "expected.json"
#: Seeds whose inputs ``expected.json`` covers.
TABLE_SEEDS = range(100)


def source_digest(src: Path) -> str:
    """sha256 over every ``.py`` file of the package, path and content."""
    h = hashlib.sha256()
    for path in sorted((src / "repro").rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def table_key(program: str, args: Sequence[int]) -> str:
    return program + " " + ",".join(str(a) for a in args)


def output_hash(output: Sequence[str], return_value: object) -> str:
    """Short sha256 of an output and a return value."""
    blob = json.dumps([list(output), return_value])
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class Oracle:
    """Expected output hash per program and input."""

    def __init__(self, cache_dir: Path, digest: str,
                 corrupt: Optional[str] = None):
        self.cache_dir = cache_dir
        self.digest = digest
        #: Program whose expected output is deliberately altered (the
        #: benchmark's own tests prove a wrong answer counts as failed).
        self.corrupt = corrupt
        self._table: Dict[str, str] = json.loads(TABLE.read_text())["hashes"]
        #: (program, args) -> expected hash, or the reason there is none.
        self._expected: Dict[Tuple[str, tuple], Dict[str, object]] = {}
        #: Inputs whose reference came from ``expected.json``.
        self.table_checked = 0

    def _path(self, program: str, args: tuple) -> Path:
        # "hash": entries hold an output hash, not the output itself.
        key = hashlib.sha256(repr((self.digest, "hash", program, args))
                             .encode()).hexdigest()[:32]
        return self.cache_dir / f"ref-{key}.json"

    def prepare(self, program: str, args: Sequence[int]) -> None:
        """Look up (or compute) the reference for one input."""
        args = tuple(args)
        if (program, args) in self._expected:
            return
        known = self._table.get(table_key(program, args))
        if known is not None:
            self.table_checked += 1
            ref: Dict[str, object] = {"hash": known, "error": None}
        else:
            ref = self._computed(program, args)
        if program == self.corrupt:
            ref["hash"] = "corrupted"
        self._expected[(program, args)] = ref

    def _computed(self, program: str, args: tuple) -> Dict[str, object]:
        path = self._path(program, args)
        try:
            return json.loads(path.read_text())
        except (OSError, ValueError):
            pass
        ref = _step_reference(program, args)
        ref = {"hash": output_hash(ref["output"], ref["return_value"]),
               "error": ref["error"]}
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(ref))
        tmp.replace(path)
        return ref

    def check(self, program: str, args: Sequence[int], output: List[str],
              return_value: object) -> Optional[str]:
        """None when the output matches the reference, else why not."""
        args = tuple(args)
        ref = self._expected.get((program, args))
        if ref is None:
            return f"no reference computed for {program}{args}"
        if ref["error"]:
            return str(ref["error"])
        if program == "enc_md5":
            problem = _md5_problem(args, output)
            if problem:
                return problem
        if output_hash(output, return_value) != ref["hash"]:
            return (f"{program}{args}: output or return value "
                    f"{return_value!r} differs from the reference")
        return None


def _md5_problem(args: tuple, output: Sequence[str]) -> Optional[str]:
    from repro.workloads import reference_digests

    if "".join(output).split() != reference_digests(*args):
        return f"enc_md5{args}: digests differ from hashlib"
    return None


def _step_reference(program: str, args: tuple) -> Dict[str, object]:
    from repro.frontend.lower import compile_minic
    from repro.interp.interpreter import Interpreter
    from repro.workloads import BY_NAME

    interp = Interpreter(compile_minic(BY_NAME[program].source, program),
                         compiled=False)
    rv = interp.run("main", args)
    output = list(interp.output)
    error = _md5_problem(args, output) if program == "enc_md5" else None
    return {"output": output, "return_value": rv, "error": error}


# -- expected.json -------------------------------------------------------------

def table_inputs(seed: int) -> Iterator[Tuple[str, Tuple[int, ...]]]:
    """Every input a run of ``BENCHMARK.json``'s length checks for one
    seed: the run inputs, the population inputs and the cold jobs of the
    serve stream."""
    import inputs
    from scenarios import CYCLE, ROUND_S

    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())[
        "run_seconds"]
    cycles = max(2, round(seconds / ROUND_S["serve-mixed"]))
    for p in inputs.PROGRAMS:
        yield p, inputs.run_args(p, seed)
        yield p, inputs.train_args(p, seed)
    blocks = inputs.job_blocks(seed)
    for _ in range(cycles * CYCLE // len(inputs.BLOCK)):
        for job in next(blocks):
            if job.tier == "cold":
                yield job.program, job.args


def _table_row(key: Tuple[str, Tuple[int, ...]]) -> Tuple[str, str]:
    program, args = key
    ref = _step_reference(program, args)
    if ref["error"]:
        raise RuntimeError(ref["error"])
    return table_key(program, args), output_hash(ref["output"],
                                                 ref["return_value"])


def write_table() -> int:
    from multiprocessing import Pool

    keys = sorted({key for seed in TABLE_SEEDS for key in table_inputs(seed)})
    with Pool(2) as pool:
        rows = pool.map(_table_row, keys, chunksize=8)
    TABLE.write_text(json.dumps(
        {"seeds": [TABLE_SEEDS.start, TABLE_SEEDS.stop - 1],
         "hashes": dict(sorted(rows))}, indent=0) + "\n")
    print(f"wrote {len(rows)} reference hashes to {TABLE}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.exit(write_table())
