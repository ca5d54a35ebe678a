"""Run one ``rootrec`` CLI command in this fresh process and report it.

    python3 bench/child.py RESULT.json [--trace SPANS.csv] -- ARGV...

ARGV is passed to ``rootrec.cli.main`` unchanged.  The wall time covers
importing the package and the command itself, the way a user pays for
one ``rootrec`` invocation.  RESULT.json gets the exit code, the wall
and import times, the peak resident memory of this process, the
frequency-test exclusivity counters and, with ``--trace``, the per-span
summary; the spans themselves are written to SPANS.csv after the clock
stops.  ``rootrec`` must be importable (the runner puts ``src`` first on
PYTHONPATH).
"""

from __future__ import annotations

import json
import resource
import sys
from time import perf_counter


def main(argv: list) -> int:
    sep = argv.index("--")
    opts, cmd = argv[:sep], argv[sep + 1:]
    result_path = opts[0]
    spans_path = opts[opts.index("--trace") + 1] if "--trace" in opts else None

    start = perf_counter()
    # bound before tracing starts, so reading the counters adds no span
    from rootrec.estimators import exclusivity_stats
    tracer = None
    if spans_path is not None:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    import rootrec.cli
    imported = perf_counter()
    code = rootrec.cli.main(cmd)
    end = perf_counter()

    out = {
        "exit_code": code,
        "wall_s": end - start,
        "import_s": imported - start,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "exclusivity": exclusivity_stats(),
        "package": rootrec.__file__,
    }
    if tracer is not None:
        out.update(tracer.summary())
        tracer.write_spans(spans_path)
    with open(result_path, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
