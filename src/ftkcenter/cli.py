"""Command line front end.

Subcommands: solve (run one of the four algorithms on an instance file),
verify (check a solution file against an instance at a given radius), gap
(emit a member of the unbounded-integrality-gap family), and bench (random
instances, one JSON line per run).

Exit codes: 0 success, 1 bad input, 2 a negative verdict (certified
infeasibility or failed verification), 3 an internal bug (a violated
guarantee).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from .conservative import solve_conservative_general, solve_conservative_uniform
from .instance import (
    ContractViolation,
    InstanceError,
    MetricInstance,
    Radius,
    SizeLimitError,
    canonical_json,
    decimal_str,
    exact_decimal,
    is_plain_int,
    load_instance,
    parse_exact_json,
    save_instance,
)
from .oracle import exact_opt, gap_instance, random_point_instance
from .solvers import DEFAULT_ALPHA_BOUND, solve_ft_general, solve_ft_uniform
from .verify import verify_conservative, verify_ft

# algorithm name -> (the variant it solves, solve(instance, parsed arguments));
# the lambdas look the solvers up at call time, so a rebound module global
# sees every call
ALGORITHMS = {
    "ft-general": ("ft", lambda inst, args: solve_ft_general(inst, alpha_bound=args.alpha_bound)),
    "ft-0l": ("ft", lambda inst, args: solve_ft_uniform(inst)),
    "cons-0l": ("conservative", lambda inst, args: solve_conservative_uniform(inst)),
    "cons-general": ("conservative", lambda inst, args: solve_conservative_general(inst)),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are input errors, not verdicts
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_report(inst: MetricInstance, res, with_oracle: bool = False) -> dict:
    """JSON-ready report; numbers appear as exact decimal strings with the
    squared values alongside, since radii are usually irrational."""
    report = {
        "algorithm": res.algorithm,
        "instance": inst.name,
        "n": inst.n,
        "k": inst.k,
        "alpha": inst.alpha,
        "variant": inst.variant,
        "feasible": res.feasible,
    }
    if not res.feasible:
        tau2, reason = res.outcome.reasons[-1]
        report["infeasible_at"] = Radius(1, tau2).display()
        report["infeasible_at_sq"] = decimal_str(Fraction(tau2))
        report["reason"] = reason
        return report
    tau2 = res.tau2_star
    report["tau_star"] = Radius(1, tau2).display()
    report["tau_star_sq"] = decimal_str(Fraction(tau2))
    report["stretch"] = res.stretch
    report["radius_bound"] = res.radius().display()
    report["radius_bound_sq"] = decimal_str(res.radius().value_sq())
    report["centers"] = list(res.centers)
    report["initial_assignment"] = {str(u): res.assignment[u] for u in sorted(res.assignment)}
    report["verified"] = res.verify().ok
    if with_oracle:
        try:
            opt2, _ = exact_opt(inst)
        except SizeLimitError as exc:
            report["oracle_skipped"] = str(exc)
        else:
            if opt2 is None:
                report["oracle_opt"] = None
            else:
                report["oracle_opt"] = Radius(1, opt2).display()
                report["oracle_opt_sq"] = decimal_str(Fraction(opt2))
                ratio2 = res.radius().value_sq() / Fraction(opt2)
                try:
                    report["ratio_sq"] = decimal_str(ratio2)
                except InstanceError:
                    report["ratio_sq"] = f"{ratio2.numerator}/{ratio2.denominator}"
    return report


def _emit(text: str, path):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_solve(args) -> int:
    inst = load_instance(args.input)
    _, solve = ALGORITHMS[args.alg]
    res = solve(inst, args)
    report = build_report(inst, res, with_oracle=args.with_oracle)
    _emit(canonical_json(report), args.output)
    if not res.feasible:
        return 2
    return 0 if report["verified"] else 2


def _cmd_verify(args) -> int:
    inst = load_instance(args.input)
    with open(args.solution, "r", encoding="utf-8") as fh:
        sol = parse_exact_json(fh.read())
    if not isinstance(sol, dict) or "centers" not in sol:
        raise InstanceError("solution file needs a 'centers' list")
    centers = sol["centers"]
    if not isinstance(centers, list) or not all(map(is_plain_int, centers)):
        raise InstanceError("'centers' must be a list of integer vertex indices")
    try:
        value = exact_decimal(args.radius)
    except InstanceError:
        raise
    except (ValueError, ZeroDivisionError):
        raise InstanceError(f"--radius must be a decimal number: {args.radius[:40]!r}") from None
    radius = Radius.exact(value)
    if inst.variant == "conservative":
        phi_raw = sol.get("initial_assignment")
        if phi_raw is None:
            raise InstanceError("conservative verification needs 'initial_assignment'")
        vertex = {str(u): u for u in range(inst.n)}
        if not isinstance(phi_raw, dict) or not all(
            u in vertex and is_plain_int(c) for u, c in phi_raw.items()
        ):
            raise InstanceError(
                f"'initial_assignment' must map each vertex, written as a decimal index "
                f"0..{inst.n - 1}, to an integer center index"
            )
        phi0 = {vertex[u]: c for u, c in phi_raw.items()}
        rep = verify_conservative(inst, centers, phi0, radius)
    else:
        rep = verify_ft(inst, centers, radius)
    _emit(canonical_json({"ok": rep.ok, "detail": rep.detail}), args.output)
    return 0 if rep.ok else 2


def _cmd_gap(args) -> int:
    inst = gap_instance(args.s)
    if args.output:
        save_instance(inst, args.output)
    else:
        sys.stdout.write(inst.to_json())
    return 0


def _cmd_bench(args) -> int:
    import random

    if args.count < 0:
        raise InstanceError(f"--count must be nonnegative, got {args.count}")
    rng = random.Random(args.seed)
    variant, solve = ALGORITHMS[args.alg]
    caps = args.caps or ("uniform" if args.alg.endswith("-0l") else "general")
    reports = []
    for i in range(args.count):
        inst = random_point_instance(
            rng,
            args.n,
            args.k,
            args.alpha,
            variant=variant,
            caps_mode=caps,
            name=f"bench-{i}",
        )
        t0 = time.perf_counter()
        res = solve(inst, args)
        elapsed = time.perf_counter() - t0
        report = build_report(inst, res, with_oracle=args.with_oracle)
        report["seconds"] = round(elapsed, 6)
        reports.append(report)
    # reports are JSON-native by now
    _emit("".join(json.dumps(r) + "\n" for r in reports), args.output)
    return 2 if any(r.get("verified") is False for r in reports) else 0


def _add_common_solve_flags(p):
    p.add_argument("--alg", required=True, choices=ALGORITHMS)
    p.add_argument(
        "--alpha-bound",
        type=int,
        default=DEFAULT_ALPHA_BOUND,
        help="refuse general-capacity fault-tolerant runs above this alpha "
        "(scenario enumeration grows exponentially)",
    )
    p.add_argument("--with-oracle", action="store_true",
                   help="add the exhaustive optimum and the squared ratio when small enough")
    p.add_argument("--output", default=None, help="write JSON here instead of stdout")


def main(argv=None) -> int:
    parser = _Parser(prog="ftkc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run an algorithm on an instance file")
    p.add_argument("--input", required=True)
    _add_common_solve_flags(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="check a solution file at a given radius")
    p.add_argument("--input", required=True)
    p.add_argument("--solution", required=True)
    p.add_argument("--radius", required=True,
                   help="decimal radius, compared exactly against distances")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gap", help="emit an instance whose LP relaxation lies")
    p.add_argument("--s", type=int, default=4, help="even parameter; n = s*s, gap s/2")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_gap)

    p = sub.add_parser("bench", help="random instances, one JSON line each")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--alpha", type=int, default=1)
    p.add_argument("--caps", choices=("general", "uniform", "unit"), default=None,
                   help="capacity form of the drawn instances; by default {0,L} "
                   "(uniform) for ft-0l and cons-0l, general otherwise")
    p.add_argument("--seed", type=int, default=0)
    _add_common_solve_flags(p)
    p.set_defaults(func=_cmd_bench)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InstanceError, SizeLimitError, OSError, ValueError) as exc:
        print(f"ftkc: {exc}", file=sys.stderr)
        return 1
    except ContractViolation as exc:
        print(f"ftkc: internal guarantee violated: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
