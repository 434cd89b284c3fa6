"""The splitstep benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--results DIR]

Run from the root of a checkout; the program is imported from ``src/``.
The seed is recorded but does not reach the program: every workload's
inputs are fixed by its config (see workloads.py).
Every execution is one call of ``splitstep.cli.main`` in a fresh
single-threaded interpreter, one at a time (a closed loop with one client),
until the next execution would end after ``--seconds``.  Each execution's
outputs are checked (see README.md); a failed check, a nonzero exit code or
a trajectory/convergence CSV that differs from the run's first one counts
as a failed execution.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: median
solve time, median set-up time of several fresh interpreters, median peak
resident memory and the accuracy ``final_err``.  ``--trace 1`` alternates
untraced and traced executions and reports the per-layer metrics of the
traced execution with the median traced time, plus the tracing overhead.

The last line of standard output is the JSON result; the full record,
with an environment block and every execution, goes to ``--results``
(default ``.perfbench/results``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_REPEATS = 5  # at least; one more runs before each untraced execution
MIN_EXECS = 3      # untraced executions in an untraced run
MIN_PAIRS = 2      # untraced + traced pairs in a traced run
RUN_LIMIT_S = 170  # whole run, set-up probes included
EXPECTED_TOL = 0.05  # converge: reported vs expected global error, relative
# one thread for any BLAS/OpenMP pool numpy might start
ENV = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
# counts that must repeat exactly between traced executions of one run
EXACT_COUNTS = (
    "spectral.transforms", "problems.flow_evals", "schemes.apply_word_calls",
    "estimators.estimate_calls", "control.steps_accepted", "control.steps_rejected",
    "diagnostics.fixed_solves", "diagnostics.fixed_steps", "cli.bytes_written",
)


class BenchError(RuntimeError):
    """The benchmark cannot produce a result at all."""


class ProbeError(RuntimeError):
    """The program failed to set the workload up."""


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--results", default=str(WORK / "results"))
    args = ap.parse_args(argv)
    try:
        if not (SRC / "splitstep" / "__init__.py").is_file():
            raise BenchError(f"no splitstep package under {SRC}")
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        record = run_benchmark(workloads.spec(args.workload), args.seed, args.seconds,
                               bool(args.trace), bench, WORK)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    save_record(record, Path(args.results))
    print("env " + json.dumps(record["env"], sort_keys=True))
    print(json.dumps(record["result"]))
    return 0


def run_benchmark(entry: dict, seed: int, seconds: float, traced: bool,
                  bench: dict, work: Path, refs: Path = HERE / "refs", log=print) -> dict:
    """Measure one workload; returns the full record with ``result``.

    ``refs`` holds the reference states, one ``<workload>.npz`` each.
    """
    started = time.perf_counter()
    run_dir = work / "runs" / f"{entry['name']}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        config_path = run_dir / "config.json"
        config_path.write_text(json.dumps(entry["config"], indent=1))
        spec_path = run_dir / "spec.json"
        spec_path.write_text(json.dumps({**entry, "config_path": str(config_path)}))
        ref = load_reference(refs / f"{entry['name']}.npz")
        base = [sys.executable, str(HERE / "worker.py"), "--src", str(SRC),
                "--spec", str(spec_path)]
        setups, setup_errors = [], []
        execs = []
        # spans of the latest traced run of this workload
        trace_dir = work / "trace" / entry["name"]
        if traced:
            shutil.rmtree(trace_dir, ignore_errors=True)
            trace_dir.mkdir(parents=True)
        loop_start = time.perf_counter()
        unit = (False, True) if traced else (False,)
        minimum = MIN_PAIRS if traced else MIN_EXECS
        rounds, round_s = 0, []
        while rounds < minimum or (
            time.perf_counter() - loop_start + statistics.median(round_s) <= seconds
            and time.perf_counter() - started + max(round_s) <= RUN_LIMIT_S
        ):
            t0 = time.perf_counter()
            if not traced:
                # probes spread over the run sample the machine as the executions do
                probe(base, setups, setup_errors, log)
            for with_trace in unit:
                spans = trace_dir / f"exec{len(execs)}.csv.gz"
                budget = RUN_LIMIT_S - (time.perf_counter() - started)
                ex = execute(entry, base, run_dir, len(execs), with_trace, spans, ref, budget)
                execs.append(ex)
                log(describe(ex))
            rounds += 1
            round_s.append(time.perf_counter() - t0)
            if any(ex.get("timeout") for ex in execs):
                break
        while not traced and len(setups) + len(setup_errors) < SETUP_REPEATS:
            probe(base, setups, setup_errors, log)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for line in mark_nondeterminism(execs):
        log(line)
    failed = sum(1 for ex in execs if ex["reasons"])
    correct = failed == 0 and not setup_errors
    # a failing program leaves metrics unmeasured; only a correct run must have them all
    if traced:
        metrics = layer_metrics(execs, bench, complete=correct)
    else:
        metrics = end_to_end_metrics(execs, setups, bench, complete=correct)
    log(f"fail_frac {failed}/{len(execs)} executions failed")
    return {
        "workload": entry["name"],
        "seed": seed,
        "trace": int(traced),
        "seconds": seconds,
        "env": environment(entry),
        "setup_s": setups,
        "setup_errors": setup_errors,
        "executions": execs,
        "result": {
            "correct": correct,
            "attempted": len(execs),
            "failed": failed,
            "metrics": metrics,
        },
    }


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def probe(base: list, setups: list, errors: list, log) -> None:
    """Append one set-up probe's seconds to ``setups``, or its failure to ``errors``."""
    try:
        setups.append(setup_probe(base))
    except ProbeError as exc:
        errors.append(str(exc))
        log(f"set-up probe FAILED: {exc}")


def setup_probe(base: list) -> float:
    """Seconds from starting a fresh interpreter to the workload set up."""
    start = time.perf_counter()
    with subprocess.Popen(base + ["--mode", "setup"], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, env=ENV, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        try:
            _, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise ProbeError("set-up probe did not exit") from None
    if proc.returncode != 0 or line.strip() != "ready":
        raise ProbeError(f"exit {proc.returncode}: {err.strip()[-500:]}")
    return ready


def execute(entry, base, run_dir, k, traced, spans, ref, budget) -> dict:
    out = run_dir / f"exec{k}"
    cmd = base + ["--mode", "run", "--out", str(out)]
    if traced:
        cmd += ["--trace", "--spans", str(spans), "--exec-id", str(k)]
    ex = {"exec": k, "traced": traced, "reasons": []}
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=ENV, cwd=ROOT,
                              timeout=max(budget, 1.0))
    except subprocess.TimeoutExpired:
        ex.update(timeout=True, reasons=["timed out"])
        return ex
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("PERFBENCH ")]
    if proc.returncode != 0 or not lines:
        ex["reasons"].append(f"worker exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return ex
    ex.update(json.loads(lines[-1][len("PERFBENCH "):]))
    if ex["rc"] != 0:
        ex["reasons"].append(f"splitstep exit code {ex['rc']}: {proc.stderr.strip()[-500:]}")
        return ex
    try:
        check = check_run if entry["command"] == "run" else check_converge
        ex.update(check(entry, out, ref))
    except (OSError, ValueError, IndexError, KeyError, TypeError) as exc:
        ex["reasons"].append(f"unreadable output: {exc!r}")
    shutil.rmtree(out, ignore_errors=True)
    return ex


def load_reference(path: Path) -> dict:
    if not path.is_file():
        raise BenchError(f"no reference state {path}; see refgen.py")
    with np.load(path) as z:
        return {"state": z["state"], "meta": json.loads(str(z["meta"]))}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def read_field_text(path) -> np.ndarray:
    """Nodal values of a ``splitstep-field 1`` snapshot, parsed independently."""
    with open(path) as fh:
        head = fh.readline().split()
        values = np.array(fh.read().split(), dtype=float)
    if len(head) != 6 or head[:2] != ["splitstep-field", "1"]:
        raise ValueError(f"{path}: bad header {head}")
    dim, n, m = int(head[2]), int(head[4]), int(head[5])
    z = values[0::2] + 1j * values[1::2]
    return z.reshape((m,) + (n,) * dim)


def _rel_l2(u: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(u - ref) / np.linalg.norm(ref))


def check_run(entry, out, ref) -> dict:
    """Trajectory CSV, final time reached and final state against the reference."""
    raw = (out / "trajectory.csv").read_bytes()
    rows = raw.decode().splitlines()
    if rows[0] != "t,h,est,accepted,flow_evals":
        raise ValueError(f"trajectory header {rows[0]!r}")
    acc = rej = flows = 0
    t_last = float("-inf")
    for row in rows[1:]:
        t, h, _, accepted, n = row.split(",")
        flows += int(n)
        if accepted == "1":
            acc += 1
            t_last = float(t) + float(h)
        else:
            rej += 1
    block = entry["config"]["run"]
    reasons = []
    if abs(t_last - float(block["t_end"])) > 1e-9:
        reasons.append(f"trajectory ends at {t_last!r}, not t_end")
    err = _rel_l2(read_field_text(out / "final.field"), ref["state"])
    reasons += _accuracy(entry, err, ref)
    return {
        "final_err": err,
        "counts": {"accepted": acc, "rejected": rej, "flow_evals": flows},
        "digest": hashlib.sha256(raw).hexdigest(),
        "reasons": reasons,
    }


def check_converge(entry, out, ref) -> dict:
    """Slope window, reported errors against the reference, CSV digest."""
    block = entry["config"]["converge"]
    dim, a, n = workloads.grid_of(entry["config"])
    ref_l2 = np.linalg.norm(ref["state"]) * np.sqrt((2 * a / n) ** dim)
    h_min = min(float(h) for h in block["hs"])
    digest = hashlib.sha256()
    reasons, devs, errs, rows = [], [], [], 0
    for name in block["subjects"]:
        raw = (out / f"convergence_{name.replace('*', 'adj')}.csv").read_bytes()
        digest.update(raw)
        slopes, finest = {}, None
        for line in raw.decode().splitlines():
            if line.startswith("# slope "):
                fields = dict(kv.split("=", 1) for kv in line[len("# slope "):].split())
                if float(fields["s"]) == 0.0:
                    slopes[fields["series"]] = float(fields["value"])
            elif not line.startswith("#") and line != "series,s,h,value":
                rows += 1
                series, s, h, value = line.split(",")
                if series == "global" and float(s) == 0.0 and float(h) == h_min:
                    finest = float(value)
        order = entry["orders"][name]
        for series, want in (("local", order + 1), ("global", order)):
            dev = abs(slopes[series] - want)
            devs.append(dev)
            if not dev <= entry["slope_window"]:
                reasons.append(f"{name} {series} L2 slope {slopes[series]:.3f}, want {want}")
        expected = ref["meta"]["expected_global_l2"][name]
        if not abs(finest / expected - 1.0) <= EXPECTED_TOL:
            reasons.append(f"{name} finest global L2 error {finest:.4e}, reference {expected:.4e}")
        errs.append(finest / ref_l2)
    err = max(errs)
    reasons += _accuracy(entry, err, ref)
    return {
        "final_err": err,
        "slope_dev": max(devs),
        "counts": {"csv_rows": rows},
        "digest": digest.hexdigest(),
        "reasons": reasons,
    }


def _accuracy(entry, err, ref) -> list:
    reasons = []
    if not err <= entry["max_err"]:
        reasons.append(f"final_err {err:.3e} above limit {entry['max_err']:.1e}")
    if not ref["meta"]["floor_rel"] <= err / 100.0:
        reasons.append(f"reference floor {ref['meta']['floor_rel']:.2e} above final_err/100")
    return reasons


def mark_nondeterminism(execs) -> list:
    """Fail executions whose CSVs or traced counts differ from the first's.

    Returns one message per failure found.
    """
    found = []
    done = [ex for ex in execs if "digest" in ex]
    for ex in done[1:]:
        if ex["digest"] != done[0]["digest"]:
            found.append((ex, "CSV output differs from the first execution"))
    traced = [ex for ex in execs if "layers" in ex]
    for ex in traced[1:]:
        for key in EXACT_COUNTS:
            if ex["layers"][key] != traced[0]["layers"][key]:
                found.append((ex, f"traced count {key} differs from the first execution"))
    for ex, reason in found:
        ex["reasons"].append(reason)
    return [f"exec {ex['exec']} FAILED: {reason}" for ex, reason in found]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else None


def end_to_end_metrics(execs, setups, bench, complete=True) -> dict:
    values = {
        "solve_s": _median([ex["solve_s"] for ex in execs if "solve_s" in ex]),
        "setup_s": _median(setups),
        "peak_rss_mb": _median([ex["maxrss_kb"] / 1024.0 for ex in execs if "maxrss_kb" in ex]),
        "final_err": _median([ex["final_err"] for ex in execs if "final_err" in ex]),
    }
    return _declared(values, bench["end_to_end"], complete)


def layer_metrics(execs, bench, complete=True) -> dict:
    plain = [ex["solve_s"] for ex in execs if not ex["traced"] and "solve_s" in ex]
    traced = sorted((ex for ex in execs if "layers" in ex),
                    key=lambda ex: ex["layers"]["trace.solve_s"])
    values = {}
    if traced:
        # the median traced execution, whole, so that its self times add up
        values = dict(traced[(len(traced) - 1) // 2]["layers"])
        if plain:
            values["trace.overhead_frac"] = (
                _median([ex["layers"]["trace.solve_s"] for ex in traced]) / _median(plain)
                - 1.0
            )
        slope_devs = [ex["slope_dev"] for ex in execs if "slope_dev" in ex]
        values["diagnostics.slope_dev"] = _median(slope_devs) if slope_devs else 0.0
    return _declared(values, bench["per_layer"], complete)


def _declared(values: dict, declared: list, complete: bool) -> dict:
    """The declared metrics that were measured, in declared order.

    A correct run (``complete``) must have measured every one of them.
    """
    missing = [m["name"] for m in declared if values.get(m["name"]) is None]
    if missing and complete:
        raise BenchError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared if m["name"] not in missing}


def describe(ex: dict) -> str:
    kind = "traced" if ex["traced"] else "plain"
    parts = [f"exec {ex['exec']} {kind}:"]
    if "solve_s" in ex:
        parts.append(f"solve {ex['solve_s']:.3f} s, rss {ex['maxrss_kb'] / 1024:.1f} MB,")
    for key, val in ex.get("counts", {}).items():
        parts.append(f"{key} {val},")
    if "layers" in ex:
        lay = ex["layers"]
        parts.append(f"flows {lay['problems.flow_evals']}, transforms "
                     f"{lay['spectral.transforms']}, spans {lay['trace.spans']},")
    if "final_err" in ex:
        parts.append(f"final_err {ex['final_err']:.4e},")
    if ex.get("warnings"):
        parts.append("trace warnings: " + "; ".join(ex["warnings"]) + ",")
    parts.append("FAILED: " + "; ".join(ex["reasons"]) if ex["reasons"] else "ok")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# environment and records
# ---------------------------------------------------------------------------

def environment(entry) -> dict:
    """Versions, cores, CPU model and caches, and the workload's field size."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = \
                (index / "size").read_text().strip()
        except OSError:
            continue
    size = workloads.field_bytes(entry["config"])
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches": caches,
        "workload": entry["name"],
        "field_bytes": size,
        "field_kb": size / 1024,
    }


def save_record(record: dict, results: Path) -> None:
    results.mkdir(parents=True, exist_ok=True)
    name = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}-{time.time_ns()}.json"
    (results / name).write_text(json.dumps(record, indent=1))


if __name__ == "__main__":
    sys.exit(main())
