"""Check that two source trees of splitstep produce byte-identical outputs.

    python3 tools/same_outputs.py PARENT_SRC CHANGE_SRC

Each argument is a ``src`` directory holding a ``splitstep`` package.  For
each tree, in a fresh temporary directory per run, the script

* runs every ``perfbench/configs/*.json`` through the CLI once (the
  subcommand is the config's block besides ``problem``) and collects every
  file the run writes, and the stdout of ``converge`` (``run`` prints the
  wall time, so its stdout is not compared);
* runs ``splitstep schemes`` and collects the listing it prints;
* saves a scheme file with a fresh-named pair of every kind (a Milne pair
  with complex gamma among them) through ``save_scheme_file``, lists it
  with ``splitstep schemes --schemes``, and collects the file and listing;
* runs ``demos/01``-``05`` and collects their stdout and every file they
  write.

It then compares the two trees' collections byte for byte and prints one
line per run.  Exit code 0 means everything is identical; 1 means some
output differs, or a run failed in either tree; 2 means bad arguments.  It reads ``perfbench/``
and ``demos/`` of the checkout it lives in and writes nothing there.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SUBCOMMANDS = ("run", "converge")

# Saves one pair of every kind under a fresh name, then lists the file.
SCHEME_FILE_JOB = """
import sys
from splitstep import SchemePair, builtin_registry, save_scheme_file
from splitstep.cli import main

reg = builtin_registry()
pairs = [SchemePair("file-" + p.name, p.kind, p.integrator, controller=p.controller,
                    partner=p.partner, gamma=p.gamma, shared_prefix_len=p.shared_prefix_len)
         for p in reg.pairs.values()]
pairs.append(SchemePair("file-cmilne", "milne", reg.scheme("lie"), partner=reg.scheme("lie*"),
                        gamma=complex(-1.0, 0.5)))
save_scheme_file("pairs.json", pairs=pairs)
sys.exit(main(["schemes", "--schemes", "pairs.json"]))
"""


def _jobs() -> list:
    """(label, argv, compare stdout) of every run."""
    jobs = []
    for cfg in sorted((ROOT / "perfbench" / "configs").glob("*.json")):
        with open(cfg) as fh:
            blocks = json.load(fh)
        cmd = next(k for k in SUBCOMMANDS if k in blocks)
        argv = ["-m", "splitstep.cli", cmd, "--config", str(cfg), "--out", "."]
        jobs.append((f"cli {cfg.stem}", argv, cmd == "converge"))
    jobs.append(("cli schemes", ["-m", "splitstep.cli", "schemes"], True))
    jobs.append(("scheme file", ["-c", SCHEME_FILE_JOB], True))
    for demo in sorted((ROOT / "demos").glob("0[1-5]_*.py")):
        jobs.append((f"demo {demo.stem}", [str(demo)], True))
    return jobs


def _collect(src: Path, argv: list, stdout: bool) -> tuple:
    """Run ``python argv`` against ``src`` in a fresh directory.

    Returns (return code, outputs): outputs maps "<stdout>" (if asked) and
    the relative path of every file written to their bytes.
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
            if path.is_file() and "__pycache__" not in path.parts:
                out[str(path.relative_to(tmp))] = path.read_bytes()
    return proc.returncode, out


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
    for label, job, stdout in _jobs():
        (rc_a, a), (rc_b, b) = (_collect(tree, job, stdout) for tree in trees)
        differ = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        if rc_a or rc_b:
            print(f"FAILED   {label}: exit codes {rc_a} / {rc_b}")
        elif differ:
            print(f"DIFFERS  {label}: {', '.join(differ)}")
        else:
            print(f"same     {label}: {', '.join(b) or 'nothing written'}")
        ok = ok and not (rc_a or rc_b or differ)
    print("all outputs identical" if ok else "outputs differ")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
