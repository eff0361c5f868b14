"""The package names the benchmark in ``perfbench/`` calls.

The benchmark looks package functions up by ``<module>.<name>``, so a
refactor that renames or removes one breaks it without failing any other
test.  This test loads the benchmark's workload and check lists by path,
without running them, and resolves every name against the package, along
with the methods the runner calls on the results it encodes and the members
the workloads and checks read on an ``Instance``.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from propclust import Instance, MetricSpace

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# names the benchmark's runner, workloads and checks use directly
DIRECT_NAMES = (
    "audit_rank.thresholds",
    "audit_single.ratio",
    "cli.parse_instance",
    "generate.generate_family",
    "generate.instance_to_file",
    "generate.random_instance",
    "instance.Instance",
    "instance.quota",
    "instance.validate",
    "metric.MetricSpace",
    "metric.TAU",
    "reports.RankViolation",
    # methods run.py's encode_outcome and encode_report call on results
    "algorithms.Trace.to_json",
    "reports.AuditReport.to_json_str",
)

# members the workloads and checks read on an Instance; k is a dataclass
# field, not a class attribute, so they are looked up on a built instance
INSTANCE_MEMBERS = (
    "n",
    "k",
    "num_candidates",
    "d_ac",
    "d_aa",
    "agents_within_candidates",
    "agents_equal_candidates",
)


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _resolve(dotted):
    module, *names = dotted.split(".")
    found = importlib.import_module(f"propclust.{module}")
    for name in names:
        found = getattr(found, name)
    return found


def test_perfbench_names_resolve():
    workloads, checks = _load("workloads"), _load("checks")
    names = list(DIRECT_NAMES)
    for key, entries in vars(workloads).items():
        if key.endswith("_RULES"):
            names += [fname for _, fname, _ in entries]
        elif key.endswith("_AUDITS"):
            names += [fname for fname, _ in entries]
    for notion, fname in checks.REEVALUATORS.items():
        module = "audit_multi" if notion.startswith("q") else "audit_single"
        names.append(f"{module}.{fname}")
    assert len(names) > len(DIRECT_NAMES) + len(checks.REEVALUATORS)
    missing = []
    for name in names:
        try:
            _resolve(name)
        except AttributeError:
            missing.append(name)
    assert missing == []


def test_perfbench_instance_members_resolve():
    inst = Instance(MetricSpace.from_matrix([[0]]), (0,), "all", 1)
    assert [name for name in INSTANCE_MEMBERS if not hasattr(inst, name)] == []
