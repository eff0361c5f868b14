"""Fast smoke check of the benchmark itself.

Runs every workload scaled down (``--smoke``), untraced and traced, each in
its own process as the benchmark is run for real, and checks that the last
line of output is a correct result carrying exactly the metrics
BENCHMARK.json names, each with its unit.  Takes about a minute:

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(spec, workload, trace):
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(spec, workload, trace):
    result = run(spec, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    named = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in named}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"{workload} trace={trace}: metrics differ: {set(got) ^ set(want)}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), (name, m)
    if not trace:
        assert all(result["metrics"][name]["value"] > 0 for name in want), result["metrics"]


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check(spec, workload, trace)
            print(f"ok {workload} trace={trace}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
