"""Run one ldl command under the tracer and write its spans.

    python3 perfbench/traced_cli.py SPANS_OUT ldl-arguments...

Stands in for `python -m ldl.cli` in traced runs of the cli workload: it
times `import ldl.cli` (cli.import_s), wraps the layers, runs cli.main
inside a "cli.main" span and writes the spans to SPANS_OUT at exit.
"""

import sys
import time
from pathlib import Path

import tracer


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import ldl.cli
    trc = tracer.Tracer()
    trc.import_s = time.perf_counter() - t0
    trc.install()
    try:
        return trc.span("cli.main", ldl.cli.main)(argv)
    finally:
        tracer.write_spans(spans_out, [trc.dump()])


if __name__ == "__main__":
    sys.exit(main())
