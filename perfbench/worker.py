"""One benchmark execution, or one set-up probe, in a fresh interpreter.

    python3 perfbench/worker.py --src SRC --spec SPEC.json
        --mode run --out DIR [--trace --spans FILE --exec-id K]
    python3 perfbench/worker.py --src SRC --spec SPEC.json --mode setup

``SPEC.json`` is a workload entry (see workloads.py) with its config and
the path of the config file for the CLI, as run.py writes it.

``run`` calls ``splitstep.cli.main`` once and prints one line
``PERFBENCH {json}`` with the exit code, the wall seconds of the call,
the process's peak resident memory and, when traced, the per-layer
metrics.  ``setup`` imports ``splitstep.cli``, builds the workload's
registry, problem and initial state through the CLI's own set-up code
(``builtin_registry`` and ``cli._build_problem``), and prints ``ready``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback

import workloads


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--spec", required=True)
    ap.add_argument("--mode", choices=("run", "setup"), required=True)
    ap.add_argument("--out")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans")
    ap.add_argument("--exec-id", type=int, default=0)
    args = ap.parse_args()

    with open(args.spec) as fh:
        entry = json.load(fh)
    splitstep = workloads.import_splitstep(args.src)
    import splitstep.cli as cli

    if args.mode == "setup":
        # the CLI's own set-up path, as its run and converge commands take it
        splitstep.builtin_registry()
        cli._build_problem(entry["config"])
        print("ready", flush=True)
        return 0

    argv = workloads.cli_argv(entry, entry["config_path"], args.out)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    try:
        rc = tracer.root(cli.main, argv) if tracer else cli.main(argv)
    except Exception:  # a crash is a failed execution, reported to the harness
        traceback.print_exc()
        rc = 1
    solve_s = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "rc": rc,
        "solve_s": solve_s,
        # CPU seconds and page faults of the call, recorded to tell host noise
        # (time lost outside the process) from work done
        "user_s": after.ru_utime - before.ru_utime,
        "sys_s": after.ru_stime - before.ru_stime,
        "minor_faults": after.ru_minflt - before.ru_minflt,
        "maxrss_kb": after.ru_maxrss,
        "wrappers": sum(
            hasattr(obj, "perfbench_span")
            for name, mod in list(sys.modules.items()) if name.startswith("splitstep")
            for obj in vars(mod).values()
        ),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["warnings"] = tracer.warnings
        if args.spans:
            tracer.write(args.spans, args.exec_id)
    print("PERFBENCH " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
