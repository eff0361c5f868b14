"""Command-line front end: solve, audit, repro, and gen subcommands.

Instances travel as JSON files:

    {"metric": {"type": "graph", "nodes": 4, "edges": [[0, 1, 2], ...]},
     "agents": [0, 1, 2], "candidates": "all", "k": 2}

Metric types: "graph" (undirected, rational weights as ints or [num, den]
pairs), "points" ({"dim", "coords", "norm"}), and "matrix" ({"d": rows}
of such weights or finite floats).
Outcomes are {"W": [candidate indices, ...]}.

``RULES`` and ``AUDITS`` are the one list of the rules and notions and of
the optional flags each reads.  The ``--alg`` and ``--notion`` choices,
the check that every given flag is read, the dispatch and the repro rows
that run a rule all read them; ``generate.FAMILIES`` lists the families.

Exit codes: 0 success (for pass/fail audits: pass), 1 audit violation,
2 invalid input, 3 result hit an enumeration cap under --require-exact.
Reports go to stdout or --output; stderr only ever carries error messages.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import partial

from . import algorithms, audit_multi, audit_rank, audit_single
from .generate import FAMILIES, generate_family
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


# The one list of rules and notions: each --alg and --notion names its
# function and the optional flags it reads, in call order.  Any other flag
# given to it is an error rather than silently ignored.
RULES = {
    "gc": (algorithms.greedy_capture, ()),
    "ea": (algorithms.expanding_approvals, ()),
    "fgc": (algorithms.fair_greedy_capture, ("q", "seed")),
    "gc-restricted": (partial(algorithms.restricted_solve, rule="gc"), ()),
    "ea-restricted": (partial(algorithms.restricted_solve, rule="ea"), ()),
}
AUDITS = {
    "pf": (audit_single.pf_min_alpha, ()),
    "if": (audit_single.if_min_beta, ()),
    "tc": (audit_single.tc_min_alpha, ("gamma",)),
    "qcore": (audit_multi.q_core_min_alpha, ("q", "cap")),
    "qif": (audit_multi.q_if_min_beta, ("q",)),
    "qtc": (audit_multi.q_tc_min_alpha, ("q", "gamma", "cap")),
    "rank-jr": (audit_rank.rank_jr_check, ()),
    "rank-pjr": (audit_rank.rank_pjr_check, ()),
    "rank-pjr+": (audit_rank.rank_pjr_plus_check, ()),
    "dprf": (audit_rank.dprf_check, ()),
    "uprf": (audit_rank.uprf_check, ()),
}
# the pass/fail threshold axioms, then the notions with a numeric value
RANK_NOTIONS = tuple(
    name for name, (audit, _) in AUDITS.items() if audit.__module__ == audit_rank.__name__
)
NUMERIC_NOTIONS = tuple(name for name in AUDITS if name not in RANK_NOTIONS)

# The type of each optional flag, in the order their errors are checked.
_FLAG_TYPES = {"gamma": str, "q": int, "cap": int, "seed": int}


def _unread_flag(args, name, reads):
    """The error for the first optional flag that was given but that
    notion or rule ``name``, which reads ``reads``, never reads, or None."""
    for flag in _FLAG_TYPES:
        if getattr(args, flag, None) is not None and flag not in reads:
            return f"--{flag} does not apply to {name}"
    return None


def cmd_solve(args):
    rule, reads = RULES[args.alg]
    problem = _unread_flag(args, args.alg, reads)
    if problem:
        return _fail(problem)
    seed = 0 if args.seed is None else args.seed
    try:
        instance = parse_instance(load_json(args.input))
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        return _fail(str(exc))
    if "q" in reads and args.q is None:
        return _fail(f"{args.alg} needs --q")
    given = {"q": args.q, "seed": seed}
    try:
        outcome, trace = rule(instance, *[given[flag] for flag in reads])
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


def run_audit(instance, outcome, notion, gamma=None, q=None, cap=None):
    if notion not in AUDITS:
        raise ValueError(f"unknown notion {notion!r}")
    audit, reads = AUDITS[notion]
    given = {"gamma": 1 if gamma is None else gamma, "q": 1 if q is None else q, "cap": cap}
    return audit(instance, outcome, *[given[flag] for flag in reads])


def cmd_audit(args):
    problem = _unread_flag(args, args.notion, AUDITS[args.notion][1])
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
    if report.value == VIOLATION:
        return 1
    return 0


def _evaluate_case(case):
    from . import fixtures  # only repro reads the paper's fixtures

    if case.fixture == "qtc_blocks":
        instance, labels, outcome = fixtures.qtc_blocks()
    else:
        instance, labels = case.build()
        outcome = None
    if case.notion.startswith("solve-"):
        got, _ = RULES[case.notion.removeprefix("solve-")][0](instance)
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
    from . import fixtures

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


def _add_table(parser, key, table):
    """``--key`` choosing a name of ``table``, then each flag some name reads."""
    parser.add_argument(f"--{key}", required=True, choices=list(table))
    for flag in dict.fromkeys(flag for _, reads in table.values() for flag in reads):
        parser.add_argument(f"--{flag}", type=_FLAG_TYPES[flag], default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="propclust",
        description="Proportional clustering rules and fairness auditors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run a clustering rule")
    _add_table(p_solve, "alg", RULES)
    p_solve.add_argument("--input", required=True)
    p_solve.add_argument("--trace", action="store_true")
    p_solve.add_argument("--output", default=None)
    p_solve.set_defaults(func=cmd_solve)

    p_audit = sub.add_parser("audit", help="audit an outcome")
    _add_table(p_audit, "notion", AUDITS)
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
    p_gen.add_argument("--family", required=True, choices=FAMILIES)
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
