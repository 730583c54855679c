"""Per-layer tracing of the ftkcenter package, installed from outside it.

Each probe wraps one public function (or method) of a package module.  The
wrapper is bound wherever the original is reachable: on its defining module,
on every module that imported it with ``from .x import f``, and on its class
for methods.  ``Tracer.remove`` restores the originals, and
``assert_unprobed`` lets an untraced run prove that nothing is installed.

Self time is a span's duration minus the time spent in wrapped child spans,
kept on a span stack because ``solve_components`` nests inside itself.  The
benchmark pushes one root span per phase (solve, verify, repair) so that time
spent in no wrapped function is reported as unattributed.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from dataclasses import dataclass

PACKAGE = "ftkcenter"
MARK = "__perfbench_probe__"

# nearest wrapped ancestor -> the purpose max_flow time is charged to
FLOW_PURPOSE = {
    "separate_general": "separation",
    "separate_uniform": "separation",
    "verify_ft": "verify",
    "verify_conservative": "verify",
    "round_general": "rounding",
    "round_uniform": "rounding",
    "tree_transfer": "rounding",
    "condition_b_flow": "rounding",
    "assign_scenario_general": "repair",
    "assign_scenario_uniform": "repair",
    "reassign_flow": "repair",
    "reassign_uniform": "repair",
}
FLOW_PURPOSES = ("separation", "verify", "rounding", "repair")


def _cells(args, kwargs):
    """rows x columns of the phase-1 tableau feasible_point builds."""
    lp = args[0] if args else kwargs["lp"]
    cols = lp.num_vars
    for row in lp.rows:
        rel = row.rel
        if row.rhs < 0 and rel != "==":
            rel = "<=" if rel == ">=" else ">="
        cols += (rel != "==") + (rel != "<=")
    return len(lp.rows) * cols


def _arcs(args, kwargs):
    net = args[0] if args else kwargs["net"]
    return sum(len(heads) for heads in net.cap.values())


def _cold(args, kwargs):
    return int(args[0]._hops is None)


def _scenarios(args, kwargs):
    inst, centers = args[0], args[1]
    return math.comb(len(set(centers)), inst.alpha)


def _class_is(name):
    return lambda out: int(type(out).__name__ == name)


# (module, attribute path, {counter: pre-call hook}, {counter: result hook})
PROBES = (
    ("instance", "MetricInstance.threshold_graph", {}, {}),
    ("instance", "ThresholdGraph.hops", {"cold": _cold}, {}),
    ("instance", "ThresholdGraph.induced", {}, {}),
    ("instance", "strip_zero_zero_edges", {}, {}),
    ("bottleneck", "solve_components", {}, {"rejected": _class_is("PerTauInfeasible")}),
    ("bottleneck", "quick_infeasible", {}, {"rejected": lambda out: int(bool(out))}),
    ("solvers", "ft_general_connected", {}, {"succeeded": _class_is("PerTauSolution")}),
    ("solvers", "ft_uniform_connected", {}, {"succeeded": _class_is("PerTauSolution")}),
    ("clustering", "monarch_clustering", {}, {}),
    ("clustering", "select_backups", {}, {}),
    ("clustering", "build_gprime", {}, {}),
    ("clustering", "greedy_independent", {}, {}),
    (
        "lp",
        "solve_cutting_plane",
        {},
        {"infeasible": lambda out: int(out[0] is None), "cuts": lambda out: len(out[1])},
    ),
    ("lp", "feasible_point", {"cells": _cells}, {}),
    ("lp", "separate_general", {}, {}),
    ("lp", "separate_uniform", {}, {}),
    ("flow", "max_flow", {"arcs": _arcs}, {}),
    ("flow", "capacitated_assignment", {}, {}),
    ("rounding", "round_general", {}, {}),
    ("rounding", "round_uniform", {}, {}),
    ("rounding", "tree_transfer", {}, {}),
    ("rounding", "condition_b_flow", {}, {}),
    ("rounding", "assign_scenario_general", {}, {}),
    ("rounding", "assign_scenario_uniform", {}, {}),
    ("conservative", "conservative_general_connected", {}, {}),
    ("conservative", "conservative_uniform_connected", {}, {}),
    ("conservative", "build_backup_set", {}, {}),
    ("conservative", "reassign_flow", {}, {}),
    ("conservative", "reassign_uniform", {}, {}),
    ("oracle", "verify_ft", {"scenarios": _scenarios}, {}),
    ("oracle", "verify_conservative", {"scenarios": _scenarios}, {}),
)

LAYERS = tuple(dict.fromkeys(module for module, *_ in PROBES))


def package_modules():
    """The package and its loaded submodules, by name."""
    return [
        (name, m)
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def probe_name(module: str, path: str) -> str:
    """Metric prefix of a probe: ``<module>.<function>``, class dropped."""
    return f"{module}.{path.rsplit('.', 1)[-1]}"


def counter_names(module, path, pre, post):
    name = probe_name(module, path)
    return [f"{name}.{c}" for c in (*pre, *post)]


@dataclass
class Span:
    name: str
    child_s: float = 0.0


class Tracer:
    """Span stack plus per-probe, per-phase call counts and self times."""

    def __init__(self):
        self.stack: list[Span] = []
        self.calls: dict[str, int] = {}
        self.self_s: dict[tuple[str, str], float] = {}  # (probe, phase) -> s
        self.counters: dict[str, int] = {}
        self.flow_self_s = dict.fromkeys(FLOW_PURPOSES, 0.0)
        self.root_s: dict[str, float] = {}  # phase -> wall time
        self.root_child_s: dict[str, float] = {}  # phase -> time in probes
        self.phase = "solve"
        self.missing: list[str] = []
        self._bindings: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def install(self):
        modules = [m for _, m in package_modules()]
        for module, path, pre, post in PROBES:
            name = probe_name(module, path)
            self.calls[name] = 0
            for counter in counter_names(module, path, pre, post):
                self.counters[counter] = 0
            try:
                owner = importlib.import_module(f"{PACKAGE}.{module}")
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(name)
                continue
            wrapper = self._wrap(original, name, pre, post)
            self._bind(owner, attr, wrapper)
            if outer:
                continue  # a method: patching its class reaches every caller
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is original:
                        self._bind(m, key, wrapper)

    def _bind(self, owner, attr, wrapper):
        self._bindings.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def remove(self):
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings.clear()

    def _wrap(self, fn, name, pre, post):
        stack = self.stack
        calls, self_s, counters = self.calls, self.self_s, self.counters
        flow_self_s = self.flow_self_s
        is_flow = name == "flow.max_flow"
        pre_items = [(f"{name}.{c}", hook) for c, hook in pre.items()]
        post_items = [(f"{name}.{c}", hook) for c, hook in post.items()]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            for key, hook in pre_items:
                counters[key] += hook(args, kwargs)
            span = Span(name)
            stack.append(span)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                own = dt - span.child_s
                if stack:
                    stack[-1].child_s += dt
                calls[name] += 1
                key = (name, self.phase)
                self_s[key] = self_s.get(key, 0.0) + own
                if is_flow:
                    for outer in reversed(stack):
                        purpose = FLOW_PURPOSE.get(outer.name.rsplit(".", 1)[-1])
                        if purpose:
                            flow_self_s[purpose] += own
                            break
            for key, hook in post_items:
                counters[key] += hook(out)
            return out

        setattr(wrapper, MARK, fn)
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- root spans opened by the benchmark ----------------------------

    def root(self, phase: str, fn, *args):
        """Run fn(*args) as the root span of one benchmark phase."""
        self.phase = phase
        span = Span("root")
        self.stack.append(span)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            dt = time.perf_counter() - t0
            self.stack.pop()
            self.root_s[phase] = self.root_s.get(phase, 0.0) + dt
            self.root_child_s[phase] = self.root_child_s.get(phase, 0.0) + span.child_s

    # -- reporting -----------------------------------------------------

    def layer_self_s(self, phase=None) -> dict:
        out = dict.fromkeys(LAYERS, 0.0)
        for (name, ph), s in self.self_s.items():
            if phase is None or ph == phase:
                out[name.split(".", 1)[0]] += s
        return out

    def probe_self_s(self, name: str) -> float:
        return sum(s for (n, _), s in self.self_s.items() if n == name)

    def idle(self) -> list[str]:
        return sorted(n for n, c in self.calls.items() if c == 0 and n not in self.missing)


def assert_unprobed():
    """Raise if any function of the package is still a probe wrapper."""
    for name, module in package_modules():
        for key, val in vars(module).items():
            targets = [(key, val)]
            if isinstance(val, type) and val.__module__ == name:
                targets += list(vars(val).items())
            for attr, obj in targets:
                if hasattr(obj, MARK):
                    raise RuntimeError(f"probe left installed on {name}.{attr}")
