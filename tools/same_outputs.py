"""Check that two source trees of splitstep produce byte-identical outputs.

    python3 tools/same_outputs.py PARENT_SRC CHANGE_SRC

Each argument is a ``src`` directory holding a ``splitstep`` package.  For
each tree, in a fresh temporary directory per run, the script

* runs every ``perfbench/configs/*.json`` through the CLI once (the
  subcommand is the config's block besides ``problem``) and collects every
  file the run writes, and the stdout of ``converge`` (``run`` prints the
  wall time, so its stdout is not compared);
* runs each config of ``PROBLEM_CONFIGS`` (small ``run`` configs that take
  every problem and every problem key, ``linear`` and ``diffusion``,
  ``rk4_substep`` and ``dealias`` among them, through the CLI's problem
  table, a ``gs_rough`` start with float and integer ``initial_args``,
  one adaptive run with snapshots, a ``converge`` of two subjects
  on the linear problem and one of three on stiff van der Pol) the same
  way, writing the config into the run's directory as its input;
* runs ``splitstep schemes`` and collects the listing it prints;
* saves a scheme file with a fresh-named copy of every builtin pair and a
  Milne pair with complex gamma through ``save_scheme_file``, lists it
  with ``splitstep schemes --schemes``, and collects the file and listing;
* saves the same file again and runs its complex-gamma Milne pair
  adaptively on a small ``gray_scott`` config through ``splitstep run
  --schemes``, and collects every file the run writes (not the stdout);
* runs ``demos/01``-``05`` and collects their stdout and every file they
  write.

A job's own inputs (the config and the scheme file it writes before the
run) are not collected: a change to the saved scheme file shows under
the ``scheme file`` job alone.  It then compares the two trees'
collections byte for byte and prints one line per run.  Under a run
whose outputs differ it prints one line per differing output that both
trees wrote: whether the row counts and, in a CSV with one, the
``accepted`` column match; whether the text around the numbers matches;
and, for each position of a number among the lines with as many numbers
(a header stays apart from the rows) where numbers moved, their largest
relative and absolute difference and the relative L2 difference over
that position.  A difference at roundoff level shows as tiny values,
with counts and verdicts that match.  Exit code 0 means everything is
identical; 1 means some output differs (even at roundoff), or a run
failed in either tree; 2 means bad arguments.  It reads ``perfbench/``
and ``demos/`` of the checkout it lives in and writes nothing there.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SUBCOMMANDS = ("run", "converge")

# Saves every builtin pair under a fresh name, and a Milne pair with complex gamma.
SAVE_PAIRS = """
import json, sys
from splitstep import SchemePair, builtin_registry, save_scheme_file
from splitstep.cli import main

reg = builtin_registry()
pairs = [SchemePair("file-" + p.name, p.kind, p.integrator, controller=p.controller,
                    partner=p.partner, gamma=p.gamma, shared_prefix_len=p.shared_prefix_len)
         for p in reg.pairs.values()]
pairs.append(SchemePair("file-cmilne", "milne", reg.scheme("lie"), partner=reg.scheme("lie*"),
                        gamma=complex(-1.0, 0.5)))
save_scheme_file("pairs.json", pairs=pairs)
"""
# Lists the saved file.
SCHEME_FILE_JOB = SAVE_PAIRS + """
sys.exit(main(["schemes", "--schemes", "pairs.json"]))
"""


# Every problem, and every problem key, that the benchmark configs leave out.
_GS = {"name": "gray_scott", "dim": 1, "n": 32, "initial": "gs_bump"}
_LINEAR = {"name": "linear", "dim": 1, "n": 32, "initial": "random_smooth",
           "initial_args": {"m": 1, "seed": 3}}
_ADAPTIVE = {"mode": "adaptive", "pair": "lie-avg", "t_end": 0.3, "control": {"tol": 1e-4}}
_FIXED = {"mode": "fixed", "scheme": "strang", "t_end": 0.2, "h": 0.05}
PROBLEM_CONFIGS = {
    "linear": {"problem": _LINEAR, "run": _FIXED},
    "linear_diffusion": {"problem": {**_LINEAR, "diffusion": 0.2}, "run": _FIXED},
    "gray_scott_substep_dealias": {
        "problem": {**_GS, "rk4_substep": 0.05, "dealias": True,
                    "params": {"alpha": 0.04, "c2": 0.01}},
        # snapshots every third step and at two times, one of them before t0
        "run": {**_ADAPTIVE, "snapshot_every": 3, "snapshot_times": [-1.0, 0.15]}},
    # float and integer initial_args: q and amp stay floats, seed an integer
    "gs_rough": {
        "problem": {**_GS, "initial": "gs_rough",
                    "initial_args": {"q": 2.5, "amp": 0.1, "seed": 1}},
        "run": _FIXED},
    "gray_scott_abc_dealias": {
        "problem": {**_GS, "name": "gray_scott_abc", "dealias": True},
        "run": {**_ADAPTIVE, "pair": "lie3-avg"}},
    # the CLI's linear problem has no potential, so every splitting is exact:
    # each shared ladder, global and one-step, meets its goal's floor at the
    # first halving, and both subjects are flagged exact
    "linear_converge": {
        "problem": {**_LINEAR, "diffusion": 0.2},
        "converge": {"subjects": ["strang", "lie-milne"], "hs": [0.02, 0.01], "t_end": 0.2,
                     "norms": [0.0, 1.0], "what": ["local", "global"]}},
    # stiff van der Pol: a low-order subject's global reference needs far
    # less than 1e-10 relative, so its tableau stops on the study's own goal
    "vdp_converge": {
        "problem": {"name": "van_der_pol", "dim": 1, "n": 64, "params": {"eps": 0.01},
                    "initial": "vdp_gaussians"},
        "converge": {"subjects": ["lie", "lie-milne", "strang"], "hs": [0.02, 0.01, 0.005],
                     "t_end": 0.5, "norms": [0.0, 1.0], "what": ["local", "global"]}},
}

# Writes one config of PROBLEM_CONFIGS and runs its subcommand.
PROBLEM_JOB = """
import json, sys
from splitstep.cli import main

with open("cfg.json", "w") as fh:
    json.dump({cfg!r}, fh)
sys.exit(main([{cmd!r}, "--config", "cfg.json", "--out", "."]))
"""

# Steps the saved complex-gamma Milne pair through an adaptive run of the CLI.
CMILNE_CONFIG = {"problem": _GS, "run": {**_ADAPTIVE, "pair": "file-cmilne"}}
CMILNE_RUN_JOB = SAVE_PAIRS + f"""
with open("cfg.json", "w") as fh:
    json.dump({CMILNE_CONFIG!r}, fh)
sys.exit(main(["run", "--config", "cfg.json", "--schemes", "pairs.json", "--out", "."]))
"""


def _subcommand(blocks: dict) -> str:
    return next(k for k in SUBCOMMANDS if k in blocks)


def _jobs() -> list:
    """(label, argv, compare stdout, the input files the job writes) of every run."""
    jobs = []
    for cfg in sorted((ROOT / "perfbench" / "configs").glob("*.json")):
        with open(cfg) as fh:
            cmd = _subcommand(json.load(fh))
        argv = ["-m", "splitstep.cli", cmd, "--config", str(cfg), "--out", "."]
        jobs.append((f"cli {cfg.stem}", argv, cmd == "converge", ()))
    for name, cfg in PROBLEM_CONFIGS.items():
        cmd = _subcommand(cfg)
        jobs.append((f"cli {name}", ["-c", PROBLEM_JOB.format(cfg=cfg, cmd=cmd)],
                     cmd == "converge", ("cfg.json",)))
    jobs.append(("cli schemes", ["-m", "splitstep.cli", "schemes"], True, ()))
    jobs.append(("scheme file", ["-c", SCHEME_FILE_JOB], True, ()))
    jobs.append(("scheme file run", ["-c", CMILNE_RUN_JOB], False, ("cfg.json", "pairs.json")))
    for demo in sorted((ROOT / "demos").glob("0[1-5]_*.py")):
        jobs.append((f"demo {demo.stem}", [str(demo)], True, ()))
    return jobs


def _collect(src: Path, argv: list, stdout: bool, inputs=()) -> tuple:
    """Run ``python argv`` against ``src`` in a fresh directory.

    Returns (return code, outputs): outputs maps "<stdout>" (if asked) and
    the relative path of every file written, but ``inputs``, to their bytes.
    """
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("SPLITSTEP_OUT", None)
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        proc = subprocess.run([sys.executable, *argv], cwd=tmp, env=env,
                              capture_output=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
        out = {"<stdout>": proc.stdout} if stdout else {}
        for path in sorted(Path(tmp).rglob("*")):
            name = str(path.relative_to(tmp))
            if path.is_file() and "__pycache__" not in path.parts and name not in inputs:
                out[name] = path.read_bytes()
    return proc.returncode, out


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)")


def _accepted(lines: list):
    """The ``accepted`` column of a CSV's rows, or None without one."""
    rows = [line for line in lines if not line.startswith("#")]
    if not rows or "accepted" not in rows[0].split(","):
        return None
    j = rows[0].split(",").index("accepted")
    return [(row.split(",") + [None] * j)[j] for row in rows[1:]]


def _describe(a: bytes, b: bytes) -> str:
    """How text output ``b`` differs from ``a``: counts first, then numbers."""
    try:
        la, lb = a.decode().splitlines(), b.decode().splitlines()
    except UnicodeDecodeError:
        return "not text"
    parts = [f"rows {len(la)}/{len(lb)} " + ("match" if len(la) == len(lb) else "DIFFER")]
    acc = _accepted(la), _accepted(lb)
    if acc != (None, None):
        parts.append("accepted column " + ("matches" if acc[0] == acc[1] else "DIFFERS"))
    text_same = True
    # per (numbers in the line, position): [max rel, max abs, sum d^2, sum a^2]
    stats = {}
    for x, y in zip(la, lb):
        nx, ny = _NUMBER.findall(x), _NUMBER.findall(y)
        if _NUMBER.sub("#", x) != _NUMBER.sub("#", y) or len(nx) != len(ny):
            text_same = False
            continue
        for j, (u, v) in enumerate(zip(map(float, nx), map(float, ny))):
            d = 0.0 if u == v or (math.isnan(u) and math.isnan(v)) else abs(u - v)
            st = stats.setdefault((len(nx), j), [0.0, 0.0, 0.0, 0.0])
            st[0] = max(st[0], d / max(abs(u), abs(v)) if d else 0.0)
            st[1] = max(st[1], d)
            if math.isfinite(d) and math.isfinite(u):
                st[2], st[3] = st[2] + d * d, st[3] + u * u
    parts.append("text around the numbers " + ("matches" if text_same else "DIFFERS"))
    moved = {key: st for key, st in stats.items() if st[1]}
    parts.append("numbers equal" if not moved else "numbers differ at " + ", ".join(
        f"number {j + 1} of {k} (largest relative {st[0]:.2g}, absolute {st[1]:.2g}, "
        f"relative L2 {math.sqrt(st[2] / st[3]) if st[3] else math.inf:.2g})"
        for (k, j), st in sorted(moved.items())))
    return "; ".join(parts)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python3 tools/same_outputs.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    trees = [Path(a).resolve() for a in args]
    for tree in trees:
        if not (tree / "splitstep" / "__init__.py").is_file():
            print(f"{tree}: no splitstep package", file=sys.stderr)
            return 2
    ok = True
    for label, job, stdout, inputs in _jobs():
        (rc_a, a), (rc_b, b) = (_collect(tree, job, stdout, inputs) for tree in trees)
        differ = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        if rc_a or rc_b:
            print(f"FAILED   {label}: exit codes {rc_a} / {rc_b}")
        elif differ:
            print(f"DIFFERS  {label}: {', '.join(differ)}")
            for key in differ:
                if key in a and key in b:
                    print(f"         {key}: {_describe(a[key], b[key])}")
        else:
            print(f"same     {label}: {', '.join(b) or 'nothing written'}")
        ok = ok and not (rc_a or rc_b or differ)
    print("all outputs identical" if ok else "outputs differ")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
