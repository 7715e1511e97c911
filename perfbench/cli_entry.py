"""Traced stand-in for ``python -m periodkit.cli``, one process per op.

Usage: ``python -X importtime cli_entry.py SPANS_FILE ARG...``.  It
imports the tool, installs the benchmark's wrappers, runs
``periodkit.cli.main(ARG...)`` and writes its spans to SPANS_FILE (with
``tracing.Tracer.dump``) for the parent to merge; the exit code is the
tool's.
"""

import time

T_START = time.perf_counter()

import sys  # noqa: E402


def main() -> int:
    t_import = time.perf_counter()
    import periodkit.cli

    t_install = time.perf_counter()
    import tracing

    tracer = tracing.Tracer()
    tracer.add("cli.import", t_import, t_install, -1)
    install = tracer.begin("trace.install", t_install)
    tracing.install(tracer)
    tracer.finish(install)
    try:
        return periodkit.cli.main(sys.argv[2:])
    finally:
        tracer.dump(sys.argv[1], t_start=T_START)


if __name__ == "__main__":
    sys.exit(main())
