"""``repro serve`` with the benchmark's timing wrappers installed.

    python3 perfbench/serve_traced.py SPANS.json --port 0

Runs the unchanged ``serve`` command; when SIGTERM drains it, the spans
recorded in this process are written to ``SPANS.json``.  ``PYTHONPATH``
must point at the package source.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Instrumentation, Tracer  # noqa: E402


def main(argv) -> int:
    import repro.service.app  # noqa: F401  (bind names before wrapping)
    from repro.__main__ import main as repro_main

    out, serve_args = Path(argv[0]), list(argv[1:])
    tracer = Tracer()
    Instrumentation(tracer).install()
    try:
        return repro_main(["serve"] + serve_args)
    finally:
        out.write_text(json.dumps([sp.to_json() for sp in tracer.spans]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
