"""Command line front end.

Subcommands: partition, pack, dyson, cn-coeff, conjecture-scan, sumset,
verify.  Exit codes distinguish outcomes so pipelines can tell "no" from
"broken": 0 for feasible/passing, 2 for a certified negative (infeasible
instance, zero coefficient, violated bound, failed verification), 1 for
any error.  Output is JSON with sorted keys (TSV for scan reports on
request); identical configuration, seed included, gives byte-identical
bytes.  The scan and sweep reports are plain values with no time in
them; --timing times the call here and adds its wall time as "seconds",
the last key or TSV column.  Every command runs in one process.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


class CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _emit(doc) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x != "")
    except ValueError:
        raise CliError(f"expected comma-separated integers, got {text!r}")


def _int_sets(text: str) -> tuple[tuple[int, ...], ...]:
    return tuple(_ints(part) for part in text.split(";"))


def _timed_report(timing: bool, run) -> dict:
    """JSON of the report run() returns, plus its wall time in seconds,
    rounded to 3 places, when timing."""
    start = time.perf_counter()
    report = run()
    seconds = time.perf_counter() - start
    doc = report.to_json()
    if timing:
        doc["seconds"] = round(seconds, 3)
    return doc


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise CliError(f"{path}: expected a JSON object")
    return doc


# ---------------------------------------------------------------------------
# subcommands


def _file_doc(args, flags):
    """The --file instance (None without --file), given none of flags."""
    given = [f"--{flag}" for flag in flags if getattr(args, flag) is not None]
    if args.file and given:
        raise CliError(f"--file with instance flags: {', '.join(given)}")
    return _load(args.file) if args.file else None


def cmd_partition(args) -> int:
    from .solvers import (Infeasible, PartitionInstance,
                          VectorPartitionInstance, solve_pair_partition,
                          solve_vector_partition)
    doc = _file_doc(args, ("n", "d"))
    if doc is None:
        if args.n is None or args.d is None:
            raise CliError("need --n and --d, or --file")
        doc = {"n": args.n, "d": list(_ints(args.d))}

    if "bases" in doc:
        inst = VectorPartitionInstance.from_json(doc)
        res = solve_vector_partition(inst)
        if isinstance(res, Infeasible):
            _emit(res.to_json())
            return 2
        pairs, g = res
        _emit({"result": "feasible",
               "pairs": [[list(x), list(y)] for x, y in pairs],
               "g": list(g)})
        return 0

    inst = PartitionInstance.from_json(doc)
    res = solve_pair_partition(inst)
    _emit(res.to_json())
    return 2 if isinstance(res, Infeasible) else 0


def cmd_pack(args) -> int:
    from .solvers import (Infeasible, PackingInstance,
                          check_packing_hypotheses, solve_translate_packing)
    doc = _file_doc(args, ("n", "X", "T", "d"))
    if doc is None:
        if None in (args.n, args.X, args.T, args.d):
            raise CliError("need --n, --X, --T and --d, or --file")
        ambient = args.n if args.n == "integers" else int(args.n)
        doc = {"n": ambient,
               "X": [list(s) for s in _int_sets(args.X)],
               "T": [list(s) for s in _int_sets(args.T)],
               "d": args.d}
    inst = PackingInstance.from_json(doc)
    report = check_packing_hypotheses(inst).to_json()
    res = solve_translate_packing(inst)
    if isinstance(res, Infeasible):
        _emit({**res.to_json(), "hypotheses": report})
        return 2
    _emit({"result": "feasible", "t": list(res), "hypotheses": report})
    return 0


def cmd_dyson(args) -> int:
    from .dyson import (DEFAULT_DEGREE_BUDGET, BudgetExceeded, DysonInstance,
                        dyson_bruteforce, dyson_formula, dyson_via_evaluation)
    inst = DysonInstance(_ints(args.a))
    formula = dyson_formula(inst)
    try:
        brute = dyson_bruteforce(
            inst, getattr(args, "max_degree", DEFAULT_DEGREE_BUDGET))
    except BudgetExceeded as exc:
        raise CliError(str(exc)) from None
    evaluated = dyson_via_evaluation(inst)
    _emit({"a": list(inst.a), "formula": formula, "bruteforce": brute,
           "evaluation": evaluated})
    return 0 if formula == brute == evaluated else 1


def cmd_cn_coeff(args) -> int:
    from .algebra import ZZ, ModRing
    from .nullstellensatz import GridSpec, cn_coefficient, cn_witness
    from .poly import MultiPoly
    ring = ModRing(args.mod) if args.mod is not None else ZZ
    f = MultiPoly.from_json(ring, _load(args.file))
    grid = GridSpec(_int_sets(args.grid))
    coeff = cn_coefficient(f, grid)
    doc = {"coefficient": coeff, "nonzero": coeff != 0}
    if args.witness:
        point = cn_witness(f, grid)
        doc["witness"] = list(point) if point is not None else None
    _emit(doc)
    return 0 if coeff != 0 else 2


def cmd_conjecture_scan(args) -> int:
    from .conjectures import scan_conjecture
    doc = _timed_report(args.timing, lambda: scan_conjecture(
        args.n, sample=args.sample, seed=args.seed,
        checkpoint=args.checkpoint))
    code = 0 if not doc["failures"] else 2
    if args.format == "tsv":
        # the report's key order is the column order
        doc["failures"] = ";".join(",".join(map(str, f))
                                   for f in doc["failures"]) or "-"
        print("\t".join(doc))
        print("\t".join(str(v) for v in doc.values()))
    else:
        _emit(doc)
    return code


def cmd_sumset(args) -> int:
    from .sumsets import DEFAULT_TIGHT_CAP, check_pair, verify_cd_bound
    if args.A is not None or args.B is not None:
        if args.A is None or args.B is None:
            raise CliError("--A and --B go together")
        sweep_only = [flag for flag, given in (
            ("--sample", args.sample is not None),
            ("--seed", args.seed is not None),
            ("--tight-cap", args.tight_cap is not None),
            ("--timing", args.timing)) if given]
        if sweep_only:
            raise CliError("sweep-only flags with --A/--B: "
                           + ", ".join(sweep_only))
        doc = check_pair(args.p, args.alpha, _ints(args.A), _ints(args.B))
        try:
            _emit(doc)
        except ValueError:      # json.dumps: an int too long to print
            raise CliError(
                f"Z/({doc['p']}^{doc['alpha']}): an element of A, B or A+B "
                f"is past the {sys.get_int_max_str_digits():,}-digit output "
                "limit (PYTHONINTMAXSTRDIGITS)") from None
        return 0 if doc["holds"] else 2
    doc = _timed_report(args.timing, lambda: verify_cd_bound(
        args.p, args.alpha, sample=args.sample, seed=args.seed,
        tight_cap=DEFAULT_TIGHT_CAP if args.tight_cap is None
        else args.tight_cap))
    _emit(doc)
    return 0 if not doc["violations"] else 2


def cmd_verify(args) -> int:
    from .algebra import json_errors, json_value
    from .solvers import (PackingInstance, PairPartition, PartitionInstance,
                          VectorPartitionInstance, verify_solution)
    inst_doc = _load(args.instance)
    sol_doc = _load(args.solution)
    inst = (VectorPartitionInstance if "bases" in inst_doc else
            PackingInstance if "X" in inst_doc else
            PartitionInstance).from_json(inst_doc)

    if sol_doc.get("result") != "feasible":
        _emit({"verified": False})
        return 2

    with json_errors("solution", CliError):
        ints = lambda key, values: tuple(json_value(v, key) for v in values)
        if isinstance(inst, PackingInstance):
            solution = ints("t", sol_doc["t"])
        else:
            pairs = json_value(sol_doc["pairs"], "pairs", list)
            for pair in pairs:
                if len(json_value(pair, "pairs", list)) != 2:
                    raise TypeError(f"pairs must be [x, y] lists, got {pair!r}")
            if isinstance(inst, VectorPartitionInstance):
                solution = (tuple((ints("pairs", x), ints("pairs", y))
                                  for x, y in pairs), ints("g", sol_doc["g"]))
            else:
                solution = PairPartition(tuple(ints("pairs", p) for p in pairs))
        ok = verify_solution(inst, solution)

    _emit({"verified": ok})
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="pairpack",
                  description="pair partitions, translate packings and "
                              "sumset bounds over Z/(n)")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", parents=[], add_help=True,
                       help="solve a prescribed-difference pair partition")
    p.add_argument("--n", type=int, help="modulus")
    p.add_argument("--d", help="comma-separated differences")
    p.add_argument("--file", help="instance JSON (plain or vector form)")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("pack", help="solve a translate packing")
    p.add_argument("--n", help="modulus, or 'integers'")
    p.add_argument("--X", help="semicolon-separated sets, e.g. 0;0,1")
    p.add_argument("--T", help="semicolon-separated translate sets")
    p.add_argument("--d", type=int, help="packing parameter")
    p.add_argument("--file", help="instance JSON")
    p.set_defaults(func=cmd_pack)

    p = sub.add_parser("dyson", help="constant term three ways")
    p.add_argument("--a", required=True, help="comma-separated exponents")
    p.add_argument("--max-degree", type=int, default=argparse.SUPPRESS,
                   help="expansion budget for the brute-force route")
    p.set_defaults(func=cmd_dyson)

    p = sub.add_parser("cn-coeff",
                       help="grid interpolation coefficient of a polynomial")
    p.add_argument("--file", required=True, help="polynomial JSON")
    p.add_argument("--grid", required=True,
                   help="semicolon-separated axis sets, e.g. 0,1;0,1,2")
    p.add_argument("--mod", type=int, help="work mod this (default: exact)")
    p.add_argument("--witness", action="store_true",
                   help="also search the grid for a nonvanishing point")
    p.set_defaults(func=cmd_cn_coeff)

    p = sub.add_parser("conjecture-scan",
                       help="feasibility scan over unit difference vectors")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sample", type=int, help="sample size (default: all)")
    p.add_argument("--seed", type=int, help="mandatory with --sample")
    p.add_argument("--checkpoint", help="shard progress file for resume")
    p.add_argument("--format", choices=["json", "tsv"], default="json")
    p.add_argument("--timing", action="store_true",
                   help="include wall time in the output")
    p.set_defaults(func=cmd_conjecture_scan)

    p = sub.add_parser("sumset",
                       help="cardinality bound checks in Z/(p^alpha)")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--alpha", type=int, default=1)
    p.add_argument("--A", help="check a single pair: first subset")
    p.add_argument("--B", help="check a single pair: second subset")
    p.add_argument("--sample", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--tight-cap", type=int,
                   help="how many equality pairs to keep in the report "
                        "(default 32)")
    p.add_argument("--timing", action="store_true")
    p.set_defaults(func=cmd_sumset)

    p = sub.add_parser("verify",
                       help="re-check an emitted solution against its instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--solution", required=True)
    p.set_defaults(func=cmd_verify)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
