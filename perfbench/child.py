"""One benchmark iteration in a fresh interpreter.

    python3 perfbench/child.py RESULT_JSON TRACE_DIR|- [--setup-only] -- CLI_ARGS...

Imports ``mfjump.cli``, loads the scenario named by ``--scenario``, then runs
``mfjump.cli.main(CLI_ARGS)`` and writes its timings and exit code to
RESULT_JSON. ``ready`` is read from CLOCK_MONOTONIC, which is system-wide, so
the parent can subtract its own spawn time from it. With a TRACE_DIR, spans
are recorded there (see spans.py).
"""
import json
import sys
import time

t0 = time.perf_counter()
import mfjump.cli  # noqa: E402
from mfjump.scenario import load_scenario  # noqa: E402

t_import = time.perf_counter()


def main(argv) -> None:
    result_path, trace_dir = argv[0], argv[1]
    setup_only = argv[2] == "--setup-only"
    cli_args = argv[argv.index("--") + 1:]
    tracer = None
    if trace_dir != "-":
        import spans
        tracer = spans.Tracer(trace_dir)
        spans.install(tracer)
        load = mfjump.cli.load_scenario
    else:
        load = load_scenario
    t1 = time.perf_counter()
    load(cli_args[cli_args.index("--scenario") + 1])
    t2 = time.perf_counter()
    result = {"ready": time.clock_gettime(time.CLOCK_MONOTONIC),
              "import_s": t_import - t0, "load_s": t2 - t1}
    if not setup_only:
        t3 = time.perf_counter()
        try:
            code = mfjump.cli.main(cli_args)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        result["run_s"] = time.perf_counter() - t3
        result["exit_code"] = code
    if tracer is not None:
        tracer.dump()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
