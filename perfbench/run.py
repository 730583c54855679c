"""Benchmark of the ftkc solvers: solve, verify and repair seeded batches.

    python3 perfbench/run.py --workload sweep-sparse --seed 0 --seconds 40 --trace 0

Run from the repository root.  The workload's batch is generated from the
seed as instance JSON, parsed into ``MetricInstance``s by the package, and
then solved with the workload's public solvers.  Every feasible answer is
checked by the independent verifier at the returned radius, and every
size-alpha failure set of its centers is repaired with
``SolveResult.scenario`` and the repaired assignment checked.  Small
batches verify and repair more than once per pass, so that their medians
rest on enough samples.  Passes over the batch repeat while another pass
fits into ``--seconds``; each one starts with a set-up round of its own.
Times are scaled to a reference machine speed by the calibration loop of
``Speed``.

With ``--trace 0`` the end-to-end metrics are printed and no probe is
installed.  With ``--trace 1`` one untraced pass is followed by one pass
with the per-layer probes of ``probes.py`` installed, and the per-layer
metrics are printed.  The last line of standard output is one JSON object;
the lines before it are for people.  The exit code is 1 when any operation
failed, 2 when the package cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import probes
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PINNED = HERE / "pinned.json"

MIN_VERIFIES = 64  # verifications per pass are repeated to at least this many samples
MIN_REPAIRS = 1000  # the same for repairs
REPAIR_PCT = 95  # with MIN_REPAIRS samples, 50 lie beyond it
SETUP_ROUNDS = 5  # set-up rounds before the first pass; every later pass adds one
CAL_LOOPS = 1250  # iterations of the calibration loop
CAL_EVERY_S = 0.1  # between operations, the loop runs again once this has passed
CAL_WINDOW = 2  # an operation is scaled by this many loop runs before it and after it
REF_CAL_S = 0.005  # the loop's time at reference speed; reported times are scaled to it


def percentile(values, pct):
    """Nearest-rank percentile, or None (JSON null) when nothing was timed."""
    if not values:
        return None
    ordered = sorted(values)
    return ordered[max(math.ceil(pct / 100 * len(ordered)) - 1, 0)]


def median(values):
    """Median, or None (JSON null) when nothing was timed."""
    return statistics.median(values) if values else None


def load_package():
    """Import ftkcenter afresh; return (package, conservative module)."""
    for name in [m for m in sys.modules if m == "ftkcenter" or m.startswith("ftkcenter.")]:
        del sys.modules[name]
    pkg = importlib.import_module("ftkcenter")
    return pkg, importlib.import_module("ftkcenter.conservative")


def answer(res):
    """(feasible, tau2) of a solve: tau*^2, or the last rejected tau^2."""
    tau2 = res.tau2_star if res.feasible else res.outcome.reasons[-1][0]
    return res.feasible, Fraction(tau2)


def capacity_infeasible(inst) -> bool:
    """Certificate that no radius works: with every center reachable, the
    k - alpha capacities left after the alpha largest fail must cover n."""
    top = sorted(inst.capacities, reverse=True)[: inst.k]
    return sum(top[inst.alpha :]) < inst.n


def repair_ok(inst, res, F, phi) -> bool:
    """phi serves everyone from live centers, within capacity and radius;
    a conservative repair moves only the clients of failed centers."""
    live = set(res.centers) - set(F)
    if set(phi) != set(range(inst.n)) or not set(phi.values()) <= live:
        return False
    reach = res.radius().value_sq()
    if any(inst.d2[u][c] > reach for u, c in phi.items()):
        return False
    if any(load > inst.capacities[c] for c, load in Counter(phi.values()).items()):
        return False
    if inst.variant == "conservative":
        return all(phi[u] == c for u, c in res.assignment.items() if c not in F)
    return True


def spin(loops: int) -> list:
    """The calibration loop: fixed work of the kind the package does, on
    Fractions, a dict and a sort, written without the package."""
    total = Fraction(0)
    latest = {}
    for i in range(1, loops):
        f = Fraction(i % 97, i % 13 + 1)
        total += f
        latest[i % 61] = f
    return sorted(latest.values())


class Speed:
    """The speed of the machine over the run, from the calibration loop.

    On a shared host the same work runs up to 1.7 times faster or slower
    from one second to the next, and the level drifts over minutes.  The
    loop runs between operations, once at least CAL_EVERY_S has passed
    since its last run, and every timed operation is scaled by REF_CAL_S
    over the mean time of the CAL_WINDOW loop runs before it and the
    CAL_WINDOW after it.  A reported time is therefore the time the
    operation would take where the loop takes REF_CAL_S.  The loop runs
    outside every timed span; raw times are printed beside the scaled
    ones."""

    def __init__(self):
        self.loop_s: list[float] = []
        self.at: list[float] = []
        self.calibrate()

    def calibrate(self):
        t0 = time.perf_counter()
        spin(CAL_LOOPS)
        t1 = time.perf_counter()
        self.loop_s.append(t1 - t0)
        self.at.append(t1)

    def close(self):
        """After the last operation: the loop runs after it, too."""
        for _ in range(CAL_WINDOW):
            self.calibrate()

    def tick(self):
        """Between operations: run the loop again once the last run is stale."""
        if time.perf_counter() - self.at[-1] >= CAL_EVERY_S:
            self.calibrate()

    def mark(self) -> int:
        """The loop run just before an operation that starts now."""
        return len(self.loop_s) - 1

    def scale(self, mark: int) -> float:
        """Reference seconds per measured second for an operation after ``mark``."""
        around = self.loop_s[max(0, mark + 1 - CAL_WINDOW) : mark + 1 + CAL_WINDOW]
        return REF_CAL_S / (sum(around) / len(around))


class Run:
    """Timings and operation counts of one benchmark process.

    Every pass works on the result of its own set-up round, which imports
    the package afresh and parses the batch again, so that no pass reuses
    the objects (or anything cached on them) of an earlier one."""

    def __init__(self, texts, algorithms, pinned):
        self.texts = texts
        self.algorithms = algorithms
        self.pinned = pinned  # list of (feasible, tau2) or None
        self.answers = [None] * len(texts)  # from the first pass
        self.speed = Speed()
        # kind -> [(pass, instance, raw seconds, calibration mark)]
        self.samples: dict[str, list] = {"setup": [], "solve": [], "verify": [], "repair": []}
        self.passes = 0
        self.pkg = None
        self.solvers = None
        self.instances: list = []
        self.results: list = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.verify_rounds = max(1, math.ceil(MIN_VERIFIES / len(texts)))
        self.repair_rounds = 1

    def record(self, kind, key, raw):
        self.samples[kind].append((self.passes, key, raw, self.speed.mark()))
        self.speed.tick()

    def setup_round(self):
        """Import plus parsing, timed; the next pass uses its result.  The
        heap is collected first, untimed, so that the garbage of the
        previous pass is not charged to set-up."""
        self.pkg = self.solvers = None
        self.instances, self.results = [], []
        gc.collect()
        self.speed.tick()
        t0 = time.perf_counter()
        pkg, cons = load_package()
        instances = [pkg.MetricInstance.from_json(text) for text in self.texts]
        self.record("setup", None, time.perf_counter() - t0)
        self.pkg, self.instances = pkg, instances
        self.solvers = {
            "ft-general": pkg.solve_ft_general,
            "ft-0l": pkg.solve_ft_uniform,
            "cons-general": cons.solve_conservative_general,
            "cons-0l": cons.solve_conservative_uniform,
        }
        scenarios = sum(math.comb(inst.k, inst.alpha) for inst in instances)
        self.repair_rounds = max(1, math.ceil(MIN_REPAIRS / scenarios))

    def fail(self, what: str):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    def timed(self, kind, key, tracer, fn, *args):
        """fn(*args), its wall time recorded under ``kind``; the root span
        of that phase when traced."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            return fn(*args) if tracer is None else tracer.root(kind, fn, *args)
        finally:
            self.record(kind, key, time.perf_counter() - t0)

    def run_pass(self, tracer=None):
        """Solve, verify and repair every instance once.  Repairs follow
        each verification, so that their samples spread over the whole
        pass."""
        self.passes += 1
        for i, (alg, inst) in enumerate(zip(self.algorithms, self.instances)):
            res = None
            try:
                res = self.timed("solve", i, tracer, self.solvers[alg], inst)
                self.check_answer(i, alg, inst, res)
                if res.feasible:
                    self.verify(i, inst, res, tracer)
                    self.repair(inst, res, tracer)
            except Exception as exc:  # a failed operation, counted and reported
                self.fail(f"{inst.name} {alg}: {exc!r}")
            self.results.append(res)

    def check_answer(self, i, alg, inst, res):
        got = answer(res)
        if self.answers[i] is None:
            self.answers[i] = got
        elif self.answers[i] != got:
            self.fail(f"{inst.name} {alg}: answer changed between passes")
        if self.pinned is not None and got != self.pinned[i]:
            self.fail(f"{inst.name} {alg}: got {got}, pinned {self.pinned[i]}")
        if res.feasible == capacity_infeasible(inst):
            self.fail(f"{inst.name} {alg}: feasible={res.feasible} contradicts the capacity bound")

    def verify(self, i, inst, res, tracer):
        """The verification, verify_rounds times."""
        if inst.variant == "conservative":
            args = (self.pkg.verify_conservative, inst, res.centers, res.assignment, res.radius())
        else:
            args = (self.pkg.verify_ft, inst, res.centers, res.radius())
        for _ in range(self.verify_rounds):
            rep = self.timed("verify", i, tracer, *args)
            if not rep.ok:
                self.fail(f"{inst.name}: verifier rejected: {rep.detail}")

    def repair(self, inst, res, tracer):
        """Every size-alpha failure set of the centers, repair_rounds times."""
        for _ in range(self.repair_rounds):
            for F in combinations(sorted(res.centers), inst.alpha):
                try:
                    phi = self.timed("repair", None, tracer, res.scenario, F)
                except Exception as exc:  # a failed operation, counted and reported
                    self.fail(f"{inst.name}: scenario {F} raised {exc!r}")
                    continue
                if not repair_ok(inst, res, F, phi):
                    self.fail(f"{inst.name}: scenario {F} gave an invalid assignment")

    # -- timings ---------------------------------------------------------

    def times(self, kind, pass_no=None, scaled=True) -> list[tuple]:
        """(instance, seconds) of every sample of ``kind``, in reference
        seconds unless ``scaled`` is false."""
        return [
            (key, raw * self.speed.scale(mark) if scaled else raw)
            for p, key, raw, mark in self.samples[kind]
            if pass_no is None or p == pass_no
        ]

    def values(self, kind, scaled=True) -> list[float]:
        return [s for _, s in self.times(kind, scaled=scaled)]

    def batch_s(self, pass_no, scaled=True) -> float:
        """Time to solve and verify the batch in one pass: every solve plus
        the median verification of every instance."""
        verify: dict = {}
        for key, s in self.times("verify", pass_no, scaled):
            verify.setdefault(key, []).append(s)
        solve = sum(s for _, s in self.times("solve", pass_no, scaled))
        return solve + sum(statistics.median(v) for v in verify.values())


def pinned_answers(workload: str, seed: int, size: int):
    """Reference (feasible, tau2) per instance, or None for an unpinned seed."""
    table = json.loads(PINNED.read_text()).get(workload, {}).get(str(seed))
    if table is None:
        return None
    if len(table) != size:
        raise SystemExit(f"perfbench: {PINNED.name} has {len(table)} answers, the batch {size}")
    return [(feasible, Fraction(tau2)) for feasible, tau2 in table]


def thresholds_tried(res) -> int:
    outcome = res.outcome
    return outcome.thresholds_tried if res.feasible else len(outcome.reasons)


def end_to_end(run: Run) -> dict:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    repair_ms = [s * 1000 for s in run.values("repair")]
    return {
        "batch_s": (median([run.batch_s(p) for p in range(1, run.passes + 1)]), "s"),
        "solve_s_p50": (median(run.values("solve")), "s"),
        "verify_s_p50": (median(run.values("verify")), "s"),
        "repair_ms_p50": (median(repair_ms), "ms"),
        f"repair_ms_p{REPAIR_PCT}": (percentile(repair_ms, REPAIR_PCT), "ms"),
        "setup_s": (median(run.values("setup")), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


def per_layer(run: Run, tracer: probes.Tracer, distinct: int) -> dict:
    """Per-layer metrics of the traced pass, which is the run's second."""
    out = {}
    for name, calls in tracer.calls.items():
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (tracer.probe_self_s(name), "s")
    for name, value in tracer.counters.items():
        out[name] = (value, "count")
    for purpose, s in tracer.flow_self_s.items():
        out[f"flow.max_flow.self_s.{purpose}"] = (s, "s")
    for layer, s in tracer.layer_self_s().items():
        out[f"{layer}.self_s"] = (s, "s")
    tried = sum(thresholds_tried(res) for res in run.results if res is not None)
    out["bottleneck.thresholds_tried"] = (tried, "count")
    out["bottleneck.thresholds_distinct"] = (distinct, "count")
    untraced_s, traced_s = run.batch_s(1), run.batch_s(2)
    out["trace.overhead_frac"] = ((traced_s - untraced_s) / untraced_s, "ratio")
    solve_wall = tracer.root_s.get("solve", 0.0)
    out["trace.unattributed_s"] = (solve_wall - tracer.root_child_s.get("solve", 0.0), "s")
    return out


def print_shape(tracer: probes.Tracer):
    """Per-layer self-time shares of solve time and of the whole pass."""
    for phase in ("solve", None):
        wall = tracer.root_s.get(phase, 0.0) if phase else sum(tracer.root_s.values())
        covered = tracer.root_child_s.get(phase, 0.0) if phase else sum(tracer.root_child_s.values())
        if not wall:
            continue
        shares = tracer.layer_self_s(phase)
        label = phase or "solve+verify+repair"
        parts = [f"{layer} {s / wall:.1%}" for layer, s in shares.items()]
        print(f"shape[{label}] wall {wall:.3f} s: " + ", ".join(parts)
              + f", unattributed {(wall - covered) / wall:.1%}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ftkcenter" / "__init__.py").is_file():
        print(f"perfbench: package not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    wl = workloads.WORKLOADS[args.workload]
    generated = workloads.batch(wl, args.seed)
    texts = [text for _, text in generated]
    pinned = pinned_answers(wl.name, args.seed, len(texts))
    run = Run(texts, [alg for alg, _ in generated], pinned)

    t_start = time.perf_counter()
    if args.trace:
        run.setup_round()
        probes.assert_unprobed()
        run.run_pass()
        run.setup_round()
        tracer = probes.Tracer()
        tracer.install()
        try:
            run.run_pass(tracer)
        finally:
            tracer.remove()
        probes.assert_unprobed()
        run.speed.close()
        distinct = sum(len(inst.thresholds_sq()) for inst in run.instances)
        metrics = per_layer(run, tracer, distinct)
        print_shape(tracer)
        print(f"missing_probes: {json.dumps(tracer.missing)}")
        print(f"idle_probes: {json.dumps(tracer.idle())}")
    else:
        for _ in range(SETUP_ROUNDS - 1):
            run.setup_round()
        while True:
            pass_start = time.perf_counter()
            run.setup_round()
            probes.assert_unprobed()
            run.run_pass()
            now = time.perf_counter()
            if (now - t_start) + (now - pass_start) > args.seconds:
                break  # another pass of the same length would overrun --seconds
        run.speed.close()
        metrics = end_to_end(run)

    loop_ms = [s * 1000 for s in run.speed.loop_s]
    print(f"workload {wl.name} seed {args.seed}: {len(texts)} instances, "
          f"{run.passes} pass(es) in {time.perf_counter() - t_start:.1f} s")
    print("tau* check: " + ("pinned" if pinned is not None else "skipped (seed not pinned)"))
    print(f"calibration loop: {len(loop_ms)} runs, median {median(loop_ms):.3f} ms, "
          f"range {min(loop_ms):.3f}-{max(loop_ms):.3f} ms; reference {REF_CAL_S * 1000:g} ms")
    for scaled in (False, True):
        label = "scaled" if scaled else "raw"
        batches = [run.batch_s(p, scaled) for p in range(1, run.passes + 1)]
        print(f"{label}: batch_s per pass " + " ".join(f"{s:.3f}" for s in batches)
              + "; p50 " + ", ".join(f"{kind} {median(run.values(kind, scaled)):.6f} s"
                                     for kind in run.samples if run.samples[kind]))
    print("samples: " + ", ".join(f"{kind} {len(v)}" for kind, v in run.samples.items()))
    print(f"failed_frac {run.failed / run.attempted:.6f} ratio ({run.failed}/{run.attempted})")
    for err in run.errors:
        print(f"FAILED {err}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
