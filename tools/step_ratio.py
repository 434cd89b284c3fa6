"""Time the first steps of an adaptive run under two source trees, interleaved.

    python3 tools/step_ratio.py PARENT_SRC CHANGE_SRC CONFIG [--steps N] [--reps R]

Each ``*_SRC`` argument is a ``src`` directory holding a ``splitstep``
package; CONFIG is a config file with a ``problem`` block and an adaptive
``run`` block (``perfbench/configs/vdp_milne_1d.json``, say).  Both trees
are imported fresh into this one process, each as its own module objects,
and each builds the run as the CLI does: ``cli._build_problem`` gives the
problem and the initial state, the run block's ``pair`` comes from the
built-in registry, its ``control`` block becomes a ``StepControlConfig``
through ``cli._control_config`` (so it refuses what the CLI refuses),
and the first step size is the one ``integrate_adaptive`` starts with.

After one untimed warm-up run per tree, each rep times the first N
accepted steps (``step_adaptive``, rejected attempts included) from the
initial state under both trees: the parent first in even reps, the change
first in odd ones, so that a drift of the host's speed falls on both
alike.  Each step is one call of ``step_adaptive``, which anchors its step
grid at the step it is given, where the full run anchors it once, at its
first step; so the steps can differ from the full run's.

It prints each tree's median microseconds per accepted step with its
attempt count, the median and quartiles over the reps of the ratio
change/parent, and in how many reps the change was faster.  Passing the
same tree twice gives the A/A control: its ratio shows the noise of the
method on this host.  Exit code 0 means both trees did the same work
(equal step and attempt counts); 1 means they did not; 2 means bad
arguments.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import statistics
import sys
import time
from pathlib import Path


def _load(src: Path):
    """The ``cli``, ``control`` and ``schemes`` modules of ``src``, imported fresh."""
    for name in [m for m in sys.modules if m == "splitstep" or m.startswith("splitstep.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        return tuple(importlib.import_module(f"splitstep.{m}")
                     for m in ("cli", "control", "schemes"))
    finally:
        sys.path.remove(str(src))


class _Run:
    """One tree's run of a config, ready to time its first steps."""

    def __init__(self, src: Path, cfg: dict):
        cli, control, schemes = _load(src)
        run = cfg["run"]
        try:
            self.prob, self.f0 = cli._build_problem(cfg)
            self.pair = schemes.builtin_registry().pair(run["pair"])
            self.ctrl = cli._control_config(run.get("control", {}), "run.control")
        except cli.ConfigError as exc:  # this tree's own class
            print(f"{src}: error: {exc}", file=sys.stderr)
            raise SystemExit(2) from None
        self.step = control.step_adaptive
        self.t0, self.t_end = float(run.get("t0", 0.0)), float(run["t_end"])
        self.h0 = control._first_step(self.ctrl, self.pair, self.t_end - self.t0)

    def time(self, n: int) -> tuple:
        """(seconds, accepted steps, attempts) of the first ``n`` steps."""
        t, h, f = self.t0, self.h0, self.f0
        steps = attempts = 0
        gc.collect()
        start = time.perf_counter()
        while steps < n and t < self.t_end:
            f, t, h, recs = self.step(self.prob, self.pair, t, min(h, self.t_end - t), f,
                                      self.ctrl)
            steps += 1
            attempts += len(recs)
        return time.perf_counter() - start, steps, attempts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="PARENT_SRC: a src directory")
    ap.add_argument("change", type=Path, help="CHANGE_SRC: a src directory")
    ap.add_argument("config", type=Path, help="config with an adaptive run block")
    ap.add_argument("--steps", type=int, default=300, help="accepted steps per timing")
    ap.add_argument("--reps", type=int, default=40, help="timed reps per tree")
    args = ap.parse_args(argv)
    if args.steps < 1 or args.reps < 1:
        ap.error("--steps and --reps must be at least 1")
    for src in (args.parent, args.change):
        if not (src / "splitstep" / "__init__.py").is_file():
            ap.error(f"{src} holds no splitstep package")
    cfg = json.loads(args.config.read_text())
    if not isinstance(cfg.get("run"), dict) or cfg["run"].get("mode", "adaptive") != "adaptive":
        ap.error(f"{args.config} has no adaptive run block")

    runs = {"parent": _Run(args.parent, cfg), "change": _Run(args.change, cfg)}
    work = {side: run.time(args.steps)[1:] for side, run in runs.items()}  # warm-up
    us = {side: [] for side in runs}
    for rep in range(args.reps):
        for side in (("parent", "change") if rep % 2 == 0 else ("change", "parent")):
            secs, steps, attempts = runs[side].time(args.steps)
            if (steps, attempts) != work[side]:
                print(f"{side}: {steps} steps and {attempts} attempts in rep {rep}, "
                      f"{work[side]} in the warm-up", file=sys.stderr)
                return 1
            us[side].append(1e6 * secs / steps)

    for side in runs:
        steps, attempts = work[side]
        print(f"{side} {getattr(args, side)}: median {statistics.median(us[side]):.1f} us/step "
              f"({steps} steps, {attempts} attempts per rep)")
    ratios = [c / p for p, c in zip(us["parent"], us["change"])]
    q1, _, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    lower = sum(r < 1.0 for r in ratios)
    print(f"ratio change/parent: median {statistics.median(ratios):.3f} "
          f"[quartiles {q1:.3f}, {q3:.3f}]; change lower in {lower}/{args.reps} reps")
    if work["parent"] != work["change"]:
        print(f"the trees did different work: {work}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
