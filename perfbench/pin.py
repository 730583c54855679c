"""Write pinned.json: the reference answer of every instance of every
workload, for the pinned seeds.

    python3 perfbench/pin.py

The reference of a feasible instance is its optimal threshold tau*^2, that
of an infeasible one the last threshold the sweep rejected.  Centers and
assignments are not pinned: a different LP vertex may pick other centers at
the same tau*.  Run this only on the commit whose answers are the reference;
``run.py`` checks every run of a pinned seed against the file.
"""

from __future__ import annotations

import json
import sys

import run
import workloads

PINNED_SEEDS = (0, 1)  # the default seed and one held-out seed


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    table = {}
    for name, wl in workloads.WORKLOADS.items():
        table[name] = {}
        for seed in PINNED_SEEDS:
            generated = workloads.batch(wl, seed)
            bench = run.Run([text for _, text in generated], [alg for alg, _ in generated], None)
            bench.setup_round()
            answers = []
            for alg, inst in zip(bench.algorithms, bench.instances):
                feasible, tau2 = run.answer(bench.solvers[alg](inst))
                answers.append([feasible, str(tau2)])
            table[name][str(seed)] = answers
            print(f"{name} seed {seed}: {sum(f for f, _ in answers)}/{len(answers)} feasible")
    run.PINNED.write_text(dump(table))
    return 0


def dump(table) -> str:
    """JSON with one line per (workload, seed) answer list."""
    workloads_ = []
    for name, seeds in table.items():
        rows = ",\n".join(f"  {json.dumps(seed)}: {json.dumps(ans)}" for seed, ans in seeds.items())
        workloads_.append(f" {json.dumps(name)}: {{\n{rows}\n }}")
    return "{\n" + ",\n".join(workloads_) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
