"""Launcher for one ``injop`` command in a fresh process.

Usage: cli_child.py STATS_PATH TRACE JOB_ID -- injop-arguments...

Times ``import injop`` and the call to ``injop.cli.main``, optionally traces
the call, writes both to STATS_PATH as JSON and exits with main's code.
"""

import json
import sys
import time


def main() -> int:
    stats_path, trace, job_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        print(__doc__, file=sys.stderr)
        return 64
    t0 = time.perf_counter()
    import injop.cli

    import_s = time.perf_counter() - t0
    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t1 = time.perf_counter()
    try:
        if tracer is None:
            code = injop.cli.main(argv)
        else:
            code = tracer.run_job(job_id, injop.cli.main, argv)
    finally:
        main_s = time.perf_counter() - t1
        stats = {"import_s": import_s, "main_s": main_s}
        if tracer is not None:
            tracer.uninstall()
            stats["trace"] = {**tracer.snapshot(), "raw": tracer.raw}
        with open(stats_path, "w") as fh:
            json.dump(stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
