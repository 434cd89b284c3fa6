"""Span tracer for the benchmark's traced runs.

Tracing wraps splitstep's public functions at the module attributes where
the calling layer looks them up (``splitstep.estimators.apply_word``,
``splitstep.control.estimate_step``, ...), so every call made through such
a name becomes a span.  Operator flows are wrapped per slot by wrapping the
problem factories that ``splitstep.cli`` calls.  Nothing in the program
changes, and an untraced run never imports this module.

A span is (name, layer, site, parent, start, end): ``layer`` is the module
that owns the function, ``site`` the module that called it, ``parent`` the
index of the enclosing span (-1 for the root).  A span's self time is its
duration minus that of its direct children; spans nest strictly because an
execution is single-threaded, so the self times of all spans add up to the
root span, the traced ``cli.main`` call.
"""

from __future__ import annotations

import csv
import dataclasses
import gzip
import os
import statistics
import time

LAYERS = ("spectral", "problems", "schemes", "estimators", "control", "diagnostics", "cli")

# Functions traced, by owning module.  A refactor that removes one loses
# its spans, with a warning in the run's output, rather than the run.
TARGETS = {
    "spectral": ("to_modal", "to_nodal", "sobolev_norm", "quadrature_l2", "dealias_23",
                 "write_field"),
    "problems": ("initial_condition", "gray_scott_problem", "gray_scott_abc_problem",
                 "van_der_pol_problem", "linear_problem"),
    "schemes": ("apply_word", "compose_step", "builtin_registry", "load_scheme_file"),
    "estimators": ("estimate_step", "controller_norm"),
    "control": ("integrate_adaptive", "integrate_fixed", "step_adaptive",
                "calibrate_initial_step", "write_trajectory_csv"),
    "diagnostics": ("convergence_study", "reference_solution", "_one_step_reference",
                    "efficiency_compare", "write_convergence_csv", "write_efficiency_csv"),
}
TRANSFORMS = {"to_modal", "to_nodal"}
REFERENCES = {"reference_solution", "_one_step_reference"}


class Tracer:
    """Keeps spans in memory and installs the wrappers that record them."""

    def __init__(self):
        self.spans = []
        self._stack = [-1]
        self.transforms = []       # durations of to_modal/to_nodal calls that change space
        self.integrator_flows = 0  # integrator's own flows, summed over estimate_step calls
        self.steps = [0, 0]        # accepted, rejected attempts of adaptive runs
        self.fixed = [0, 0]        # fixed-step solves and steps run by diagnostics
        self.bytes_written = 0
        self.warnings = []

    # -- recording ---------------------------------------------------------

    def wrap(self, fn, name, layer, site, post=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, layer, site, parent, start, end)
            if post is not None:
                post(args, out, end - start)
            return out

        traced.__wrapped__ = fn
        traced.perfbench_span = name
        return traced

    def install(self):
        """Wrap every lookup site of the target functions in the package."""
        import importlib

        mods = {name: importlib.import_module(f"splitstep.{name}") for name in LAYERS}
        owner = {}
        for layer, names in TARGETS.items():
            for fname in names:
                fn = getattr(mods[layer], fname, None)
                if fn is None:
                    self.warnings.append(f"splitstep.{layer}.{fname} absent; not traced")
                    continue
                owner[id(fn)] = (layer, fname)
        for site, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                hit = owner.get(id(obj))
                if hit is not None:
                    setattr(mod, attr, self._wrapper(obj, hit[0], hit[1], site))

    def _wrapper(self, fn, layer, fname, site):
        post = None
        if site == "cli" and fname.startswith("write_"):
            layer, post = "cli", self._count_bytes
        elif fname in TRANSFORMS:
            post = self._count_transform
        elif fname.endswith("_problem") and layer == "problems" and site == "cli":
            return self.wrap(self._factory(fn), f"problems.{fname}", layer, site)
        elif fname == "estimate_step":
            post = self._count_estimate
        elif fname == "integrate_adaptive":
            post = self._count_adaptive
        elif fname == "integrate_fixed" and site == "diagnostics":
            post = self._count_fixed
        return self.wrap(fn, f"{layer}.{fname}", layer, site, post)

    def _factory(self, make):
        def traced_factory(*args, **kwargs):
            prob = make(*args, **kwargs)
            try:
                flows = tuple(
                    self.wrap(flow, f"problems.slot{i}", "problems", "schemes")
                    for i, flow in enumerate(prob.flows)
                )
                return dataclasses.replace(prob, flows=flows)
            except (AttributeError, TypeError, ValueError) as exc:
                self.warnings.append(f"operator flows not traced: {exc}")
                return prob

        return traced_factory

    def root(self, fn, *args):
        """Call ``fn(*args)`` as the root span (layer cli)."""
        return self.wrap(fn, "cli.main", "cli", "benchmark")(*args)

    def _count_transform(self, args, out, dur):
        if getattr(args[0], "space", None) != getattr(out, "space", None):
            self.transforms.append(dur)

    def _count_estimate(self, args, out, dur):
        self.integrator_flows += args[0].integrator.flow_evals

    def _count_adaptive(self, args, out, dur):
        traj = out[1]
        self.steps[0] += traj.n_accepted
        self.steps[1] += traj.n_rejected

    def _count_fixed(self, args, out, dur):
        self.fixed[0] += 1
        self.fixed[1] += len(out[1].records)

    def _count_bytes(self, args, out, dur):
        try:
            self.bytes_written += os.path.getsize(args[1])
        except (IndexError, TypeError, OSError):
            self.warnings.append("write without a readable path argument")

    # -- reporting ---------------------------------------------------------

    def self_times(self):
        """Self time of every span, in span order."""
        own = [s[5] - s[4] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[5] - s[4]
        return own

    def metrics(self) -> dict:
        """Per-layer metrics of the traced execution (see README.md)."""
        spans = self.spans
        own = self.self_times()
        layer_self = dict.fromkeys(LAYERS, 0.0)
        slot_self = dict.fromkeys(("problems.slot0", "problems.slot1", "problems.slot2"), 0.0)
        flows = flow_s = apply_words = estimates = 0
        steps_us, write_s, fixed_s, ref_s = [], 0.0, 0.0, 0.0
        est_ids = set()
        flows_in_est = 0
        for i, (name, layer, site, parent, start, end) in enumerate(spans):
            layer_self[layer] += own[i]
            dur = end - start
            if name.startswith("problems.slot"):
                slot_self[name] += own[i]
                flows += 1
                flow_s += dur
                # parents precede children, so the enclosing estimate is known
                p = parent
                while p >= 0 and p not in est_ids:
                    p = spans[p][3]
                flows_in_est += p >= 0
            elif name == "schemes.apply_word":
                apply_words += 1
            elif name == "estimators.estimate_step":
                estimates += 1
                est_ids.add(i)
            elif site == "control" and name in ("control.step_adaptive", "schemes.compose_step"):
                steps_us.append(dur * 1e6)
            elif name == "control.integrate_fixed" and site == "diagnostics":
                fixed_s += dur
            elif layer == "diagnostics" and name.split(".", 1)[1] in REFERENCES:
                ref_s += dur
            if name.startswith("cli.write_"):
                write_s += dur
        root = spans[0][5] - spans[0][4] if spans else 0.0
        acc, rej = self.steps
        return {
            "spectral.transforms": len(self.transforms),
            "spectral.self_s": layer_self["spectral"],
            "spectral.us_per_transform": _per(sum(self.transforms), len(self.transforms)),
            "problems.flow_evals": flows,
            "problems.self_s": layer_self["problems"],
            **{f"{k}.self_s": v for k, v in slot_self.items()},
            "problems.us_per_flow": _per(flow_s, flows),
            "schemes.apply_word_calls": apply_words,
            "schemes.self_s": layer_self["schemes"],
            "estimators.estimate_calls": estimates,
            "estimators.self_s": layer_self["estimators"],
            "estimators.overhead_frac": (
                (flows_in_est - self.integrator_flows) / flows_in_est if flows_in_est else 0.0
            ),
            "control.steps_accepted": acc,
            "control.steps_rejected": rej,
            "control.accept_ratio": acc / (acc + rej) if acc + rej else 0.0,
            "control.self_s": layer_self["control"],
            "control.step_us.p50": _quantile(steps_us, 0.5),
            "control.step_us.p90": _quantile(steps_us, 0.9),
            "diagnostics.fixed_solves": self.fixed[0],
            "diagnostics.fixed_steps": self.fixed[1],
            "diagnostics.fixed_s": fixed_s,
            "diagnostics.reference_s": ref_s,
            "diagnostics.self_s": layer_self["diagnostics"],
            "cli.write_s": write_s,
            "cli.bytes_written": self.bytes_written,
            "cli.self_s": layer_self["cli"],
            "trace.solve_s": root,
            "trace.spans": len(spans),
        }

    def write(self, path, exec_id: int):
        """Write the spans as gzip CSV: exec,id,parent,name,layer,site,start,end."""
        with gzip.open(path, "wt", newline="", compresslevel=1) as fh:
            out = csv.writer(fh)
            out.writerow(("exec", "id", "parent", "name", "layer", "site", "start", "end"))
            for i, (name, layer, site, parent, start, end) in enumerate(self.spans):
                out.writerow((exec_id, i, parent, name, layer, site, repr(start), repr(end)))


def _per(total_s: float, count: int) -> float:
    return total_s * 1e6 / count if count else 0.0


def _quantile(values, q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]
