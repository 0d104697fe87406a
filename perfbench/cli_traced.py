"""Run one eulersums CLI command with term counting and, optionally, spans.

    python3 perfbench/cli_traced.py <eulersums arguments...>

Environment: BENCH_SPANS names the JSON file to write at exit (term counts,
per-layer summary, spans); BENCH_TRACE=1 turns spans on.  With
spans on, the wrappers are installed before ``eulersums.cli`` is imported,
so the bindings it captures at import are traced too.
"""

from __future__ import annotations

import json
import os
import sys

from tracer import Tracer, import_and_install


def main() -> int:
    tracer = Tracer() if os.environ.get("BENCH_TRACE") == "1" else None
    cli = import_and_install(tracer)
    from eulersums.numeric import TermCounter, counting_terms

    counter = TermCounter()
    with counting_terms(counter):
        code = cli.main(sys.argv[1:])
    sys.stdout.flush()
    record = {
        "counts": [counter.series_terms, counter.quad_evals],
        "layers": tracer.summary() if tracer else {},
        "spans": tracer.spans if tracer else [],
    }
    with open(os.environ["BENCH_SPANS"], "w") as handle:
        json.dump(record, handle, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main())
