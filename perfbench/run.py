"""propclust benchmark: time to outcome and time to certified verdict.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload eucl-threshold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload graph-exact --trace 1
    python3 perfbench/run.py --sizing

A single-process, closed-loop benchmark: it acts as one caller that makes one
library call at a time and waits for each result.  It imports the package
from ``src/`` of the checkout and times every layer from outside, around
calls to that layer's public functions.

One run sets the workload up once before the passes and once after each
pass, and repeats passes over the same inputs for ``--seconds``.  A pass runs
every rule, every audit on the rules' outcomes and the JSON encoding of every
outcome, trace and report.  A fixed reference computation
(``calibrate.py``) is timed every 20 ms of CPU time throughout the run; every
time reported leaves those samples out, is scaled to the reference speed by
the samples taken during and around it, and is the median over the run's
passes (``setup_s``: over its set-ups).  Output
checks (``checks.py``) run on the first pass outside the timed region;
later passes must reproduce the first pass byte for byte, and at the
default seed the first pass must reproduce the per-instance digests in
``reference.json``, which were recorded at the commit that defined this
benchmark (they are the ``digests`` field of a seed-1 results file).

Every call runs under a SIGALRM deadline, so a call that runs too long is
recorded as ``"timeout"`` and counted as failed without any extra thread or
process.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
records spans in memory and reports the per-layer metrics and the tracing
overhead.  Either way a results file goes to ``perfbench/results/`` and the
last line of standard output is the JSON result.  ``--sizing`` times each
layer once per family and size and is not gated.
"""

from __future__ import annotations

import time

# set-up is timed from here, the first statement after the interpreter starts
PROCESS_START = time.perf_counter()

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
from pathlib import Path

import calibrate
import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

CALL_TIMEOUT_S = 30.0
SIZING_TIMEOUT_S = 10.0
# every run must end within 180 s; calls still pending at this point time out
HARD_LIMIT_S = 150.0

RANK_SWEEPS = (
    "audit_rank.rank_jr_check",
    "audit_rank.rank_pjr_check",
    "audit_rank.rank_pjr_plus_check",
    "audit_rank.dprf_check",
)
Q_SCANS = ("audit_multi.q_core_min_alpha", "audit_multi.q_tc_min_alpha")
TIMED_FUNCTIONS = (
    "algorithms.greedy_capture",
    "algorithms.expanding_approvals",
    "algorithms.fair_greedy_capture",
    "algorithms.restricted_solve",
    "audit_single.pf_min_alpha",
    "audit_single.tc_min_alpha",
    "audit_single.if_min_beta",
    "audit_multi.q_core_min_alpha",
    "audit_multi.q_tc_min_alpha",
    "audit_multi.q_if_min_beta",
    "audit_rank.rank_jr_check",
    "audit_rank.rank_pjr_check",
    "audit_rank.rank_pjr_plus_check",
    "audit_rank.dprf_check",
    "audit_rank.uprf_check",
    "cli.parse_instance",
)
LAYERS = ("algorithms", "audit_single", "audit_multi", "audit_rank", "reports")


class CallTimeout(Exception):
    """Raised from the SIGALRM handler when a call overruns its deadline."""


def _on_alarm(signum, frame):
    raise CallTimeout()


class Recorder:
    """Times calls into the package, and records spans when traced.

    A span is (id, name, start, end, parent id, instance index, ok).  Spans
    stay in memory until the run writes its results file.  A call's time
    leaves out the host-speed samples ``sampler`` took during it; its span
    does not.
    """

    def __init__(self, traced, deadline, sampler, timeout=CALL_TIMEOUT_S):
        self.traced = traced
        self.deadline = deadline
        self.sampler = sampler
        self.timeout = timeout
        self.busy = {"solve": 0.0, "audit": 0.0, "encode": 0.0}
        # (kind, start, end, seconds less the speed samples taken inside)
        self.durations = []
        self.spans = []
        self.next_id = 0
        self.parent = None

    def new_id(self):
        self.next_id += 1
        return self.next_id

    def span(self, sid, name, start, end, parent, idx, ok=True):
        if self.traced:
            self.spans.append((sid, name, start, end, parent, idx, ok))

    def call(self, kind, name, idx, fn, *args):
        """Run ``fn(*args)`` under the deadline; returns (result, error)."""
        result, error = None, None
        limit = min(self.timeout, self.deadline - time.perf_counter())
        sampled = self.sampler.spent
        start = time.perf_counter()
        if limit <= 0:
            error = "timeout"
        else:
            try:
                signal.setitimer(signal.ITIMER_REAL, limit)
                try:
                    result = fn(*args)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except CallTimeout:
                result, error = None, "timeout"
            except Exception as exc:  # a failing call is a measured outcome
                result, error = None, f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        seconds = end - start - (self.sampler.spent - sampled)
        self.busy[kind] += seconds
        self.durations.append((kind, start, end, seconds))
        self.span(self.new_id(), name, start, end, self.parent, idx, error is None)
        return result, error

    def setup(self, name, idx, fn, *args):
        """An input-layer call during set-up; errors propagate."""
        start = time.perf_counter()
        result = fn(*args)
        self.span(self.new_id(), name, start, time.perf_counter(), self.parent, idx)
        return result


# -- set-up --------------------------------------------------------------


def import_package():
    """A fresh import of the package from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == "propclust" or m.startswith("propclust.")]:
        del sys.modules[name]
    pc = importlib.import_module("propclust")
    importlib.import_module("propclust.cli")
    importlib.import_module("propclust.generate")
    if not Path(pc.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"propclust imported from {pc.__file__}, not from the checkout")
    return pc


def setup_once(workload, seed, smoke, traced, deadline, sampler, start=None):
    """One set-up, timed from ``start`` (default: now): its seconds as
    measured and at the reference speed, the package, the jobs and the
    recorder that timed its input layers."""
    rec = Recorder(traced, deadline, sampler)
    # a set-up timed from process start holds every sample taken so far
    sampled = sampler.spent if start is None else 0.0
    start = time.perf_counter() if start is None else start
    sid = rec.new_id()
    rec.parent = sid
    pc = import_package()
    jobs = workloads.build(pc, workload, seed, smoke, rec)
    end = time.perf_counter()
    rec.span(sid, "setup", start, end, None, None)
    seconds = end - start - (sampler.spent - sampled)
    return seconds, seconds * sampler.scale(start, end), pc, jobs, rec


# -- one pass ------------------------------------------------------------


def encode_outcome(outcome, trace):
    payload = {"W": sorted(outcome.centers), "origin": outcome.origin, "trace": trace.to_json()}
    return json.dumps(payload, sort_keys=True)


def encode_report(report):
    return report.to_json_str()


class PassResult:
    """What the metrics need from one pass.  The pass's outputs themselves
    are dropped after it, so memory does not grow with the pass count.

    ``busy`` holds the seconds in rule, audit and encoding calls as
    measured, and ``scaled`` the same at the reference speed."""

    def __init__(self, wall, busy, scaled, spans, calls):
        self.wall = wall
        self.busy = busy
        self.scaled = scaled
        self.spans = spans
        self.digests = [_digest(c) for c in calls]
        self.sizes = [len(c) for c in calls]
        self.errors = [sum(1 for c in cs if c[5] is not None) for cs in calls]
        audits = [c for cs in calls for c in cs if c[0] == "audit"]
        self.audits = len(audits)
        self.exact = sum(1 for c in audits if c[4] is not None and c[4].status == "exact")


def _digest(calls):
    h = hashlib.sha256()
    for kind, name, _args, tag, _result, error, text in calls:
        h.update(f"{kind}|{name}|{tag}|{error or ''}|{text or ''}\n".encode())
    return h.hexdigest()[:16]


def run_pass(pc, jobs, traced, deadline, sampler):
    """One pass over every job.  Returns the pass summary, and per instance
    the calls made as (kind, name, args, tag, result, error, encoded)."""
    rec = Recorder(traced, deadline, sampler)
    all_calls = []
    sampled = sampler.spent
    start = time.perf_counter()
    pass_id = rec.new_id()
    for idx, job in enumerate(jobs):
        inst = job.instance
        inst_start = time.perf_counter()
        rec.parent = inst_id = rec.new_id()
        calls = []
        outcomes = {}
        for tag, fname, args in job.rules:
            if not workloads.rule_applies(inst, fname, args):
                continue
            fn = workloads.resolve(pc, fname)
            solved, error = rec.call("solve", fname, idx, fn, inst, *args)
            text = None
            if solved is not None:
                outcomes[tag] = solved
                text, _ = rec.call("encode", "reports.encode", idx, encode_outcome, *solved)
            calls.append(("solve", fname, args, tag, solved, error, text))
        for tag in job.audited:
            if tag not in outcomes:
                continue
            outcome = outcomes[tag][0]
            for fname, args in job.audits:
                if not workloads.audit_applies(inst, outcome, fname, args):
                    continue
                fn = workloads.resolve(pc, fname)
                report, error = rec.call("audit", fname, idx, fn, inst, outcome, *args)
                text = None
                if report is not None:
                    text, _ = rec.call("encode", "reports.encode", idx, encode_report, report)
                calls.append(("audit", fname, args, tag, report, error, text))
        rec.span(inst_id, "instance", inst_start, time.perf_counter(), pass_id, idx)
        all_calls.append(calls)
    end = time.perf_counter()
    rec.span(pass_id, "pass", start, end, None, None)
    wall = end - start - (sampler.spent - sampled)
    scaled = dict.fromkeys(rec.busy, 0.0)
    for kind, call_start, call_end, seconds in rec.durations:
        scaled[kind] += seconds * sampler.scale(call_start, call_end)
    return PassResult(wall, rec.busy, scaled, rec.spans, all_calls), all_calls


def check_calls(pc, jobs, all_calls):
    """Per instance, the number of calls whose output fails a check, and the
    problems found."""
    failed, problems = [], []
    for idx, (job, calls) in enumerate(zip(jobs, all_calls)):
        bad = 0
        outcomes = {c[3]: c[4][0] for c in calls if c[0] == "solve" and c[4] is not None}
        for kind, fname, _args, tag, result, _error, _text in calls:
            if result is None:
                continue
            if kind == "solve":
                found = checks.check_outcome(pc, job.instance, tag, *result)
            else:
                found = checks.check_report(pc, job.instance, outcomes[tag], result)
            if found:
                bad += 1
                problems.extend(f"instance {idx} {fname}({tag}): {p}" for p in found)
        failed.append(bad)
    return failed, problems


# -- metrics -------------------------------------------------------------


def median(values):
    return statistics.median(values) if values else 0.0


def failed_calls(passes, check_failed, reference):
    """Calls that raised, timed out or failed an output check, over all
    passes.  A pass that does not reproduce the first pass's (or the
    reference's) output for an instance fails every call of that instance."""
    first = passes[0]
    if reference is not None:
        reference = reference + [None] * (len(first.digests) - len(reference))
        check_failed = [
            size if ref != got else bad
            for ref, got, bad, size in zip(reference, first.digests, check_failed, first.sizes)
        ]
    total = 0
    for p in passes:
        for got, want, bad, size, errors in zip(
            p.digests, first.digests, check_failed, p.sizes, p.errors
        ):
            total += size if got != want else min(size, errors + bad)
    return total


def end_to_end(passes, setup_scaled, attempted, failed):
    """Times at the reference speed, each the median over the run's passes
    (``setup_s``: over its set-ups)."""
    audits = sum(p.audits for p in passes)
    exact = sum(p.exact for p in passes)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (median(setup_scaled), "s"),
        "solve_s": (median([p.scaled["solve"] for p in passes]), "s"),
        "audit_s": (median([p.scaled["audit"] for p in passes]), "s"),
        "wall_s": (median([sum(p.scaled.values()) for p in passes]), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "certified_frac": (exact / audits if audits else 1.0, "frac"),
        "ok_frac": ((attempted - failed) / attempted, "frac"),
    }


def span_cost(repeats=20_000):
    """Seconds a traced call costs over an untraced one, timed on a no-op.

    Comparing whole traced and untraced passes would bury a cost this small
    under the machine's drift between passes; the best of two alternating
    blocks per side is steady to well under a microsecond."""
    best = {False: math.inf, True: math.inf}
    for traced in (False, True, False, True):
        rec = Recorder(traced, math.inf, calibrate.Sampler())
        start = time.perf_counter()
        for _ in range(repeats):
            rec.call("solve", "noop", 0, _noop)
        best[traced] = min(best[traced], time.perf_counter() - start)
    return (best[True] - best[False]) / repeats


def _noop():
    return None


def _span_totals(spans):
    busy, calls, failed = {}, {}, {}
    for _sid, name, start, end, _parent, _idx, ok in spans:
        busy[name] = busy.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        failed[name] = failed.get(name, 0) + (0 if ok else 1)
    return busy, calls, failed


def work_counts(pc, jobs, all_calls):
    """Work done per pass, counted from the inputs and outputs."""
    counts = {
        "algorithms.trace_events": 0,
        "audit_rank.thresholds": 0,
        "audit_rank.violations": 0,
        "audit_rank.cap_exhausted": 0,
        "audit_multi.subsets": 0,
        "reports.bytes": 0,
    }
    for job, calls in zip(jobs, all_calls):
        inst = job.instance
        levels = None
        for kind, fname, args, _tag, result, _error, text in calls:
            counts["reports.bytes"] += len(text.encode()) if text else 0
            if result is None:
                continue
            if kind == "solve":
                counts["algorithms.trace_events"] += len(result[1].events)
            elif fname.startswith("audit_rank."):
                counts["audit_rank.violations"] += result.value == "violation"
                counts["audit_rank.cap_exhausted"] += result.status == "cap_exhausted"
                if fname in RANK_SWEEPS:
                    if levels is None:
                        levels = len(pc.audit_rank.thresholds(inst))
                    counts["audit_rank.thresholds"] += levels
            elif fname in Q_SCANS:
                counts["audit_multi.subsets"] += scan_subsets(pc, inst, fname, args)
    return counts


def scan_subsets(pc, inst, fname, args):
    """Candidate subsets the unpruned q-scan visits for these arguments."""
    if fname == "audit_multi.q_core_min_alpha":
        (q, size_cap), gamma = args, 1
    else:
        q, gamma, size_cap = args
    total = 0
    for size in range(q, min(size_cap, inst.num_candidates, inst.k) + 1):
        if pc.instance.quota(inst.n, inst.k, size, gamma) > inst.n:
            break
        total += math.comb(inst.num_candidates, size)
    return total


def per_layer(passes, setup_recs, counts):
    per_pass = [_span_totals(p.spans) for p in passes]
    per_setup = [_span_totals(r.spans) for r in setup_recs]
    out = {}

    def busy_of(name, tables):
        return median([t[0].get(name, 0.0) for t in tables])

    for name in TIMED_FUNCTIONS:
        tables = per_setup if name == "cli.parse_instance" else per_pass
        out[f"{name}.busy_s"] = (busy_of(name, tables), "s")
        out[f"{name}.calls"] = (median([t[1].get(name, 0) for t in tables]), "count")
        out[f"{name}.failed"] = (median([t[2].get(name, 0) for t in tables]), "count")
    for name, tables in (("metric.build", per_setup), ("reports.encode", per_pass)):
        busy = busy_of(name, tables)
        calls = median([t[1].get(name, 0) for t in tables])
        out[f"{name}.busy_s"] = (busy, "s")
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.busy_per_call_s"] = (busy / calls if calls else 0.0, "s")
    parse_calls = out["cli.parse_instance.calls"][0]
    out["cli.parse_instance.busy_per_call_s"] = (
        out["cli.parse_instance.busy_s"][0] / parse_calls if parse_calls else 0.0,
        "s",
    )
    for name, value in counts.items():
        out[name] = (value, "bytes" if name == "reports.bytes" else "count")
    sweep = sum(out[f"{name}.busy_s"][0] for name in RANK_SWEEPS)
    levels = counts["audit_rank.thresholds"]
    out["audit_rank.sweep_busy_per_threshold_s"] = (sweep / levels if levels else 0.0, "s")
    scan = sum(out[f"{name}.busy_s"][0] for name in Q_SCANS)
    subsets = counts["audit_multi.subsets"]
    out["audit_multi.busy_per_subset_s"] = (scan / subsets if subsets else 0.0, "s")
    wall = median([p.wall for p in passes])
    for layer in LAYERS:
        busy = sum(
            value
            for key, (value, _unit) in out.items()
            if key.startswith(layer + ".") and key.endswith(".busy_s")
        )
        out[f"share.{layer}"] = (busy / wall if wall else 0.0, "frac")
    spans = median([len(p.spans) for p in passes])
    out["trace.overhead_frac"] = (span_cost() * spans / wall if wall else 0.0, "frac")
    out["trace.spans"] = (spans, "count")
    return out


# -- results -------------------------------------------------------------


def git_hash():
    """The checked-out commit, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git": git_hash(),
    }


def write_results(name, payload):
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / name
    path.write_text(json.dumps(payload, sort_keys=True, default=str) + "\n")
    return path


def load_reference(workload):
    data = json.loads((HERE / "reference.json").read_text())
    return data.get(workload)


# -- workload runs -------------------------------------------------------


def run_workload(args, sampler):
    t0 = time.perf_counter()
    deadline = t0 + HARD_LIMIT_S
    traced = bool(args.trace)
    setup_times, setup_scaled, setup_recs = [], [], []

    def set_up(start=None):
        elapsed, scaled, pc, jobs, rec = setup_once(
            args.workload, args.seed, args.smoke, traced, deadline, sampler, start
        )
        setup_times.append(elapsed)
        setup_scaled.append(scaled)
        setup_recs.append(rec)
        return pc, jobs

    # the passes use the first set-up's inputs; one more set-up follows each
    # pass (its inputs are dropped), so that the set-ups sample the whole run
    pc, jobs = set_up(PROCESS_START)
    passes = []
    start = time.perf_counter()
    while True:
        summary, calls = run_pass(pc, jobs, traced, deadline, sampler)
        passes.append(summary)
        if len(passes) == 1:
            check_failed, problems = check_calls(pc, jobs, calls)
            counts = work_counts(pc, jobs, calls)
        calls = None
        set_up()
        # drop the discarded set-up's modules now, so peak memory does not
        # depend on when the collector happens to run
        gc.collect()
        spent = time.perf_counter() - start
        if spent * (len(passes) + 1) / len(passes) > args.seconds:
            break
        if time.perf_counter() > deadline:
            break

    reference = None
    if args.seed == workloads.DEFAULT_SEED and not args.smoke:
        reference = load_reference(args.workload)
        if reference != passes[0].digests:
            problems.append("outputs differ from reference.json at the default seed")
    attempted = sum(sum(p.sizes) for p in passes)
    failed = failed_calls(passes, check_failed, reference)

    if traced:
        metrics = per_layer(passes, setup_recs, counts)
    else:
        metrics = end_to_end(passes, setup_scaled, attempted, failed)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    suffix = "-smoke" if args.smoke else ""
    record = dict(result)
    record.update(environment())
    record.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "traced": traced,
            "samples": {
                "setups": len(setup_times),
                "passes": len(passes),
                "calls_per_pass": sum(passes[0].sizes),
                "instances": len(jobs),
            },
            "setup_times_s": setup_times,
            "setup_scaled_s": setup_scaled,
            "pass_walls_s": [p.wall for p in passes],
            "pass_busy_s": [p.busy for p in passes],
            "pass_scaled_s": [p.scaled for p in passes],
            "speed_samples_s": sampler.seconds,
            "failed_frac": failed / attempted,
            "problems": problems[:200],
            "digests": passes[0].digests,
        }
    )
    if traced:
        record["span_fields"] = ["id", "name", "start", "end", "parent", "instance", "ok"]
        record["setup_spans"] = [s for r in setup_recs for s in r.spans]
        record["pass_spans"] = [s for p in passes for s in p.spans]
    path = write_results(f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json", record)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:16s} {name:48s} {value:14.6g} {unit}")
    print(f"{args.workload:16s} {'failed_frac':48s} {failed / attempted:14.6g} frac")
    if not traced:
        uncertified = 1 - metrics["certified_frac"][0]
        print(f"{args.workload:16s} {'uncertified_frac':48s} {uncertified:14.6g} frac")
    print(f"results: {path.relative_to(ROOT)}")
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps(result, sort_keys=True))
    return 0


# -- sizing --------------------------------------------------------------

SIZING_FAMILIES = ("euclidean", "graph")
SIZING_N = (40, 80, 160)


def run_sizing():
    """Time each layer once per family and size (k=5, generator seed 1),
    on greedy capture's outcome; a call over SIZING_TIMEOUT_S reads
    "timeout"."""
    pc = import_package()
    rec = Recorder(True, math.inf, calibrate.Sampler(), SIZING_TIMEOUT_S)
    rows = []
    for family in SIZING_FAMILIES:
        for n in SIZING_N:
            row = {"family": family, "n": n}

            def timed(label, fn, *args):
                result, error = rec.call("audit", label, None, fn, *args)
                _sid, _name, start, end, *_ = rec.spans[-1]
                row[label] = error if error else round(end - start, 4)
                return result

            file = timed("generate", pc.generate.generate_family, family, n, 5, 1)
            inst = timed("cli.parse_instance", pc.cli.parse_instance, file)
            solved = timed("greedy_capture", pc.algorithms.greedy_capture, inst)
            timed("expanding_approvals", pc.algorithms.expanding_approvals, inst)
            if solved is not None:
                out = solved[0]
                timed("pf_min_alpha", pc.audit_single.pf_min_alpha, inst, out)
                timed("tc_min_alpha(gamma=2)", pc.audit_single.tc_min_alpha, inst, out, 2)
                timed("rank_jr_check", pc.audit_rank.rank_jr_check, inst, out)
                timed("rank_pjr_check", pc.audit_rank.rank_pjr_check, inst, out)
                timed("q_core_min_alpha(q=2,cap=3)", pc.audit_multi.q_core_min_alpha, inst, out, 2, 3)
                timed("uprf_check", pc.audit_rank.uprf_check, inst, out)
            rows.append(row)
            print(json.dumps(row), flush=True)
    record = environment()
    record.update({"mode": "sizing", "k": 5, "seed": 1, "timeout_s": SIZING_TIMEOUT_S, "rows": rows})
    path = write_results("sizing.json", record)
    print(f"results: {path.relative_to(ROOT)}")
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="scaled-down inputs")
    parser.add_argument("--sizing", action="store_true", help="time each layer over a size grid")
    args = parser.parse_args(argv)
    if not args.sizing and args.workload is None:
        parser.error("--workload is required unless --sizing is given")
    return args


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        if args.sizing:
            return run_sizing()
        sampler = calibrate.Sampler()
        sampler.start()
        try:
            return run_workload(args, sampler)
        finally:
            sampler.stop()
    except ImportError as exc:
        print(f"cannot import propclust from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
