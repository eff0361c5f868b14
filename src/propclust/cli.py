"""Command-line front end: solve, audit, repro, and gen subcommands.

Instances travel as JSON files:

    {"metric": {"type": "graph", "nodes": 4, "edges": [[0, 1, 2], ...]},
     "agents": [0, 1, 2], "candidates": "all", "k": 2}

Metric types: "graph" (undirected, rational weights as ints or [num, den]
pairs), "points" ({"dim", "coords", "norm"}), and "matrix" ({"d": rows}
of such weights or finite floats).
Outcomes are {"W": [candidate indices, ...]}.

Exit codes: 0 success (for pass/fail audits: pass), 1 audit violation,
2 invalid input, 3 result hit an enumeration cap under --require-exact.
Reports go to stdout or --output; stderr only ever carries error messages.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import algorithms, audit_multi, audit_rank, audit_single, fixtures
from .generate import generate_family
from .instance import Instance, Outcome, validate
from .metric import MetricSpace, _as_distance, _as_id
from .reports import CAP_EXHAUSTED, VIOLATION, encode_value


def parse_instance(obj):
    try:
        metric = obj["metric"]
        mtype = metric["type"]
        if mtype == "graph":
            space = MetricSpace.from_graph(metric["nodes"], metric["edges"])
        elif mtype == "points":
            space = MetricSpace.from_points(metric["coords"], metric.get("norm", "l2"))
            if "dim" in metric:
                dim, width = _as_id(metric["dim"], "dim"), len(space.coords[0])
                if dim != width:
                    raise ValueError(f"dim {dim} does not match {width}-coordinate points")
        elif mtype == "matrix":
            space = MetricSpace.from_matrix([[_as_distance(x) for x in row] for row in metric["d"]])
        else:
            raise ValueError(f"unknown metric type {mtype!r}")
        candidates = obj.get("candidates", "all")
        if candidates != "all":
            candidates = tuple(candidates)
        return Instance(space, tuple(obj["agents"]), candidates, obj["k"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed instance file: {exc}") from exc


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _fail(message):
    print(json.dumps({"error": message}), file=sys.stderr)
    return 2


def _emit(text, output):
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# The optional flags that each notion (audit) or rule (solve) reads; any
# other given flag is an error rather than silently ignored.
_FLAGS_READ = {
    "tc": ("gamma",),
    "qcore": ("q", "cap"),
    "qif": ("q",),
    "qtc": ("gamma", "q", "cap"),
    "fgc": ("q", "seed"),
}


def _unread_flag(args, name):
    """The error for the first of --gamma, --q, --cap and --seed that was
    given but that notion or rule ``name`` never reads, or None."""
    for flag in ("gamma", "q", "cap", "seed"):
        if getattr(args, flag, None) is not None and flag not in _FLAGS_READ.get(name, ()):
            return f"--{flag} does not apply to {name}"
    return None


def cmd_solve(args):
    problem = _unread_flag(args, args.alg)
    if problem:
        return _fail(problem)
    seed = 0 if args.seed is None else args.seed
    try:
        instance = parse_instance(load_json(args.input))
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        return _fail(str(exc))
    try:
        if args.alg == "gc":
            outcome, trace = algorithms.greedy_capture(instance)
        elif args.alg == "ea":
            outcome, trace = algorithms.expanding_approvals(instance)
        elif args.alg == "fgc":
            if args.q is None:
                return _fail("fgc needs --q")
            outcome, trace = algorithms.fair_greedy_capture(instance, args.q, seed)
        else:
            outcome, trace = algorithms.restricted_solve(instance, args.alg.split("-")[0])
    except ValueError as exc:
        return _fail(str(exc))
    payload = {
        "W": sorted(outcome.centers),
        "alg": args.alg,
        "seed": seed,
        "origin": outcome.origin,
    }
    if args.trace:
        payload["trace"] = trace.to_json()
    _emit(json.dumps(payload, sort_keys=True), args.output)
    return 0


NUMERIC_NOTIONS = ("pf", "if", "tc", "qcore", "qif", "qtc")
RANK_NOTIONS = ("rank-jr", "rank-pjr", "rank-pjr+", "dprf", "uprf")


def run_audit(instance, outcome, notion, gamma=None, q=None, cap=None):
    gamma = 1 if gamma is None else gamma
    q = 1 if q is None else q
    if notion == "pf":
        return audit_single.pf_min_alpha(instance, outcome)
    if notion == "if":
        return audit_single.if_min_beta(instance, outcome)
    if notion == "tc":
        return audit_single.tc_min_alpha(instance, outcome, gamma)
    if notion == "qcore":
        return audit_multi.q_core_min_alpha(instance, outcome, q, cap)
    if notion == "qif":
        return audit_multi.q_if_min_beta(instance, outcome, q)
    if notion == "qtc":
        return audit_multi.q_tc_min_alpha(instance, outcome, q, gamma, cap)
    if notion == "rank-jr":
        return audit_rank.rank_jr_check(instance, outcome)
    if notion == "rank-pjr":
        return audit_rank.rank_pjr_check(instance, outcome)
    if notion == "rank-pjr+":
        return audit_rank.rank_pjr_plus_check(instance, outcome)
    if notion == "dprf":
        return audit_rank.dprf_check(instance, outcome)
    if notion == "uprf":
        return audit_rank.uprf_check(instance, outcome)
    raise ValueError(f"unknown notion {notion!r}")


def cmd_audit(args):
    problem = _unread_flag(args, args.notion)
    if problem:
        return _fail(problem)
    try:
        instance = parse_instance(load_json(args.input))
        outcome = Outcome(load_json(args.outcome)["W"])
        gamma = Fraction(args.gamma) if args.gamma is not None else None
    except (OSError, ValueError, KeyError, ZeroDivisionError, json.JSONDecodeError) as exc:
        return _fail(str(exc))
    except TypeError as exc:
        return _fail(f"malformed outcome file: {exc}")
    problems = validate(instance, outcome)
    if problems:
        return _fail(f"invalid outcome: {problems}")
    try:
        report = run_audit(instance, outcome, args.notion, gamma, args.q, args.cap)
    except ValueError as exc:
        return _fail(str(exc))
    _emit(report.to_json_str(), args.output)
    if args.require_exact and report.status == CAP_EXHAUSTED:
        return 3
    if args.notion in RANK_NOTIONS and report.value == VIOLATION:
        return 1
    return 0


def _evaluate_case(case):
    if case.fixture == "qtc_blocks":
        instance, labels, outcome = fixtures.qtc_blocks()
    else:
        instance, labels = case.build()
        outcome = None
    if case.notion.startswith("solve-"):
        rules = {"solve-gc": algorithms.greedy_capture, "solve-ea": algorithms.expanding_approvals}
        got, _ = rules[case.notion](instance)
        expected = frozenset(labels[x] for x in case.outcome)
        return sorted(got.centers), sorted(expected), got.centers == expected
    if outcome is None:
        outcome = fixtures.outcome_of(labels, case.outcome)
    if case.notion.endswith("-witness"):
        agent_names, cand_names = case.witness
        agents = [labels[x] for x in agent_names]
        cands = [labels[x] for x in cand_names]
        if case.notion == "qcore-witness":
            value = audit_multi.q_group_min_ratio(
                instance, outcome, case.params["q"], agents, cands
            )
        else:
            value = audit_single.group_sum_ratio(instance, outcome, agents, cands[0])
        return value, case.expected, value == case.expected
    report = run_audit(
        instance,
        outcome,
        case.notion,
        gamma=case.params.get("gamma"),
        q=case.params.get("q"),
        cap=case.params.get("size_cap"),
    )
    return report.value, case.expected, report.value == case.expected


def cmd_repro(args):
    # accept parameterized spellings like "fig4a(alpha=2)"; the embedded
    # corpus carries each fixture at its reference parameters
    wanted = args.case.split("(")[0]
    rows = []
    all_match = True
    for case in fixtures.repro_cases():
        if wanted != "all" and case.fixture != wanted:
            continue
        computed, expected, match = _evaluate_case(case)
        all_match = all_match and match
        rows.append(
            {
                "fixture": case.fixture,
                "notion": case.notion,
                "params": json.dumps(
                    {k: encode_value(Fraction(v)) for k, v in sorted(case.params.items())}
                ),
                "expected": encode_value(expected),
                "computed": encode_value(computed),
                "status": "ok",
                "match": match,
            }
        )
    if not rows:
        return _fail(f"unknown fixture {args.case!r}")
    if args.format == "json":
        _emit(json.dumps(rows, sort_keys=True), args.output)
    else:
        header = "fixture,notion,params,expected,computed,status,match"
        lines = [header]
        for r in rows:
            lines.append(
                ",".join(
                    str(r[col]).replace(",", ";")
                    for col in header.split(",")
                )
            )
        _emit("\n".join(lines), args.output)
    return 0 if all_match else 1


def cmd_gen(args):
    try:
        payload = generate_family(args.family, args.n, args.k, args.seed)
    except ValueError as exc:
        return _fail(str(exc))
    _emit(json.dumps(payload, sort_keys=True), args.output)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="propclust",
        description="Proportional clustering rules and fairness auditors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run a clustering rule")
    p_solve.add_argument(
        "--alg",
        required=True,
        choices=["gc", "ea", "fgc", "gc-restricted", "ea-restricted"],
    )
    p_solve.add_argument("--q", type=int, default=None)
    p_solve.add_argument("--seed", type=int, default=None)
    p_solve.add_argument("--input", required=True)
    p_solve.add_argument("--trace", action="store_true")
    p_solve.add_argument("--output", default=None)
    p_solve.set_defaults(func=cmd_solve)

    p_audit = sub.add_parser("audit", help="audit an outcome")
    p_audit.add_argument(
        "--notion", required=True, choices=list(NUMERIC_NOTIONS) + list(RANK_NOTIONS)
    )
    p_audit.add_argument("--gamma", default=None)
    p_audit.add_argument("--q", type=int, default=None)
    p_audit.add_argument("--cap", type=int, default=None)
    p_audit.add_argument("--input", required=True)
    p_audit.add_argument("--outcome", required=True)
    p_audit.add_argument("--require-exact", action="store_true")
    p_audit.add_argument("--output", default=None)
    p_audit.set_defaults(func=cmd_audit)

    p_repro = sub.add_parser("repro", help="replay the reference corpus")
    p_repro.add_argument("--case", default="all")
    p_repro.add_argument("--format", default="json", choices=["json", "csv"])
    p_repro.add_argument("--output", default=None)
    p_repro.set_defaults(func=cmd_repro)

    p_gen = sub.add_parser("gen", help="generate an instance file")
    p_gen.add_argument(
        "--family", required=True, choices=["euclidean", "graph", "blocks"]
    )
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--k", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--output", default=None)
    p_gen.set_defaults(func=cmd_gen)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
