"""One benchmark iteration in a fresh process.

    python worker.py --src SRC --result RESULT.json [--trace] [--import-only]
                     -- ARGV_JSON

Times ``import elastic_lens.cli`` (set-up), then, unless ``--import-only``,
runs each ``cli.main`` command line of ARGV_JSON (a JSON list of argv
lists) in the current directory and times them together (wall).  With
``--trace`` the per-layer wrappers are installed after the import and the
per-layer metrics are added to the result.  The result file holds the
times, the peak resident set size, the exit codes and any traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
import traceback


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--src", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--import-only", action="store_true")
    p.add_argument("argv", nargs="?", default="[]")
    a = p.parse_args()
    sys.path.insert(0, a.src)
    commands = json.loads(a.argv)
    result = {"exit_codes": [], "error": None}

    t0 = time.perf_counter()
    import elastic_lens.cli as cli
    result["setup_s"] = time.perf_counter() - t0

    if not a.import_only:
        tracer = None
        if a.trace:
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            import tracing
            tracer = tracing.Tracer()
            tracer.install()
        try:
            t1 = time.perf_counter()
            # the CLI prints its reports; keep them out of the benchmark's
            # own output by sending them to this process's stderr log
            with contextlib.redirect_stdout(sys.stderr):
                for argv in commands:
                    result["exit_codes"].append(cli.main(argv))
            result["wall_s"] = time.perf_counter() - t1
        except Exception:
            result["error"] = traceback.format_exc()
        if tracer is not None:
            result["layers"] = {k: list(v) for k, v in
                                tracing.layer_metrics(tracer).items()}
            result["wrapped"] = tracer.wrapped
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(a.result, "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()
