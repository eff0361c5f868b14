import json
import math
import subprocess
import sys

import pytest

from propclust.cli import main, parse_instance
from propclust.generate import generate_family, instance_to_file
from propclust.generate import random_instance
import random


def run_cli(*argv):
    return main(list(argv))


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def fig3a_file(tmp_path):
    payload = generate_family("graph", 4, 2, 0)  # placeholder, replaced below
    from propclust import fixtures

    inst, labels = fixtures.fig3a(4)
    obj = instance_to_file(inst)
    return write(tmp_path, "fig3a.json", obj), labels


def test_gen_deterministic(tmp_path, capsys):
    assert run_cli("gen", "--family", "euclidean", "--n", "6", "--k", "2", "--seed", "5") == 0
    first = capsys.readouterr().out
    assert run_cli("gen", "--family", "euclidean", "--n", "6", "--k", "2", "--seed", "5") == 0
    second = capsys.readouterr().out
    assert first == second


def test_gen_blocks_shape(capsys):
    assert run_cli("gen", "--family", "blocks", "--n", "10", "--k", "4") == 0
    obj = json.loads(capsys.readouterr().out)
    inst = parse_instance(obj)
    # the small block holds exactly ceil(n/k) = 3 co-located agents
    zero_block = [p for p in range(inst.space.num_points) if inst.space.dist(0, p) == 0]
    assert len(zero_block) == 3


@pytest.mark.parametrize(
    "family, n, k, bad",
    [
        ("blocks", 5, 1, "k"),
        ("blocks", 1, 3, "n"),
        ("euclidean", 0, 2, "n"),
        ("graph", 0, 2, "n"),
        ("euclidean", 4, 0, "k"),
        ("graph", 4, 0, "k"),
    ],
)
def test_gen_rejects_sizes_without_an_instance(capsys, family, n, k, bad):
    assert run_cli("gen", "--family", family, "--n", str(n), "--k", str(k)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"needs {bad} >=" in json.loads(captured.err)["error"]


@pytest.mark.parametrize("family, n, k", [("blocks", 2, 2), ("euclidean", 1, 1), ("graph", 1, 1)])
def test_gen_smallest_sizes_parse(capsys, family, n, k):
    assert run_cli("gen", "--family", family, "--n", str(n), "--k", str(k)) == 0
    inst = parse_instance(json.loads(capsys.readouterr().out))
    assert (inst.n, inst.k) == (n, k)


def test_gen_euclidean_shape(capsys):
    assert run_cli("gen", "--family", "euclidean", "--n", "12", "--k", "3") == 0
    obj = json.loads(capsys.readouterr().out)
    assert len(obj["metric"]["coords"]) == 12
    assert obj["candidates"] == "all"


def test_solve_gc_on_fixture(fig3a_file, capsys):
    path, labels = fig3a_file
    assert run_cli("solve", "--alg", "gc", "--input", path) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["W"] == sorted([labels["1"], labels["6"]])


def test_solve_with_trace(fig3a_file, capsys):
    path, labels = fig3a_file
    assert run_cli("solve", "--alg", "gc", "--input", path, "--trace") == 0
    obj = json.loads(capsys.readouterr().out)
    assert [e["kind"] for e in obj["trace"]] == ["open", "open", "absorb", "absorb"]


def test_solve_fgc_size_contract(fig3a_file, capsys):
    path, labels = fig3a_file
    assert run_cli("solve", "--alg", "fgc", "--q", "2", "--seed", "11", "--input", path) == 0
    obj = json.loads(capsys.readouterr().out)
    assert len(obj["W"]) == 4


def test_solve_ea_spends_full_budget(fig3a_file, capsys):
    path, labels = fig3a_file
    assert run_cli("solve", "--alg", "ea", "--input", path) == 0
    obj = json.loads(capsys.readouterr().out)
    assert len(obj["W"]) == 4


def test_solve_parse_error_exit2(tmp_path, capsys):
    zero_den_graph = {"type": "graph", "nodes": 2, "edges": [[0, 1, [1, 0]]]}
    zero_den_matrix = {"type": "matrix", "d": [[0, [1, 0]], [[1, 0], 0]]}
    wrong_dim = {"type": "points", "dim": 3, "coords": [[0, 0], [1, 0]]}
    for metric in ({"type": "nope"}, zero_den_graph, zero_den_matrix, wrong_dim):
        payload = {"metric": metric, "agents": [0, 1], "candidates": "all", "k": 1}
        bad = write(tmp_path, "bad.json", payload)
        assert run_cli("solve", "--alg", "gc", "--input", bad) == 2, metric
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error" in json.loads(captured.err)


def test_audit_pf_pass(fig3a_file, tmp_path, capsys):
    path, labels = fig3a_file
    from propclust import fixtures

    inst, L = fixtures.fig2a(5)
    inst_path = write(tmp_path, "fig2a.json", instance_to_file(inst))
    w_path = write(tmp_path, "w.json", {"W": sorted(L[x] for x in ("1", "2", "3", "6", "9"))})
    assert run_cli("audit", "--notion", "pf", "--input", inst_path, "--outcome", w_path) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["value"] == 1
    assert obj["status"] == "exact"


def test_audit_violation_exit1(tmp_path, capsys):
    from propclust import fixtures

    inst, L = fixtures.fig3b(4)
    inst_path = write(tmp_path, "fig3b.json", instance_to_file(inst))
    w_path = write(tmp_path, "w.json", {"W": sorted(L[x] for x in ("1", "2", "3", "9"))})
    assert (
        run_cli("audit", "--notion", "rank-pjr+", "--input", inst_path, "--outcome", w_path)
        == 1
    )
    obj = json.loads(capsys.readouterr().out)
    assert obj["value"] == "violation"
    assert obj["witness"]["threshold_y"] == 3


def test_audit_uprf_pass_exit0(tmp_path, capsys):
    from propclust import fixtures

    inst, L = fixtures.path_uprf()
    inst_path = write(tmp_path, "path.json", instance_to_file(inst))
    w_path = write(tmp_path, "w.json", {"W": [L["c"]]})
    assert run_cli("audit", "--notion", "uprf", "--input", inst_path, "--outcome", w_path) == 0


# (outcome file contents, extra audit arguments); each must exit 2
INVALID_AUDIT_INPUTS = [
    ({"W": [99]}, ()),
    ({"W": 5}, ()),
    ([0], ()),
    ({"W": [[1]]}, ()),
    ({"W": [0.7]}, ()),
    ({"W": [True]}, ()),
    ({"W": [0]}, ("--gamma", "abc")),
    ({"W": [0]}, ("--gamma", "1/0")),
    ({"W": [0, 0, 0]}, ()),
]


def test_audit_invalid_outcome_exit2(tmp_path, capsys):
    from propclust import fixtures

    inst, L = fixtures.path_uprf()
    inst_path = write(tmp_path, "path.json", instance_to_file(inst))
    for outcome, extra in INVALID_AUDIT_INPUTS:
        w_path = write(tmp_path, "w.json", outcome)
        code = run_cli(
            "audit", "--notion", "tc", *extra, "--input", inst_path, "--outcome", w_path
        )
        captured = capsys.readouterr()
        assert code == 2, (outcome, extra)
        assert captured.out == ""
        assert "error" in json.loads(captured.err)


def test_audit_q_zero_rejected(tmp_path, capsys):
    from propclust import fixtures

    inst, L = fixtures.fig2a(5)
    inst_path = write(tmp_path, "fig2a.json", instance_to_file(inst))
    w_path = write(tmp_path, "w.json", {"W": sorted(L[x] for x in ("1", "2", "3", "6", "9"))})
    for notion in ("qcore", "qif", "qtc"):
        code = run_cli(
            "audit", "--notion", notion, "--q", "0", "--input", inst_path, "--outcome", w_path
        )
        captured = capsys.readouterr()
        assert code == 2, notion
        assert captured.out == ""
        assert "q must satisfy" in json.loads(captured.err)["error"]


def test_solve_non_integral_ids_exit2(tmp_path, capsys):
    base = generate_family("graph", 4, 2, 0)
    edges = base["metric"]["edges"]
    bad_metrics = [("nodes", 2.5), ("nodes", "2"), ("edges", [[0.7, 1, 1]] + edges)]
    for weight in ([1.5, 2], [True, 2]):
        bad_metrics.append(("edges", [[0, 1, weight]] + edges))
    cases = [
        ("agents", [0.7, 1]),
        ("agents", [True, 1]),
        ("candidates", [0, 1.5]),
        ("k", 2.9),
        ("k", True),
    ] + [("metric", dict(base["metric"], **{key: value})) for key, value in bad_metrics]
    coords = [[0, 0], [1, 0], [0, 1], [1, 1]]
    for dim in ("x", 2.5, True):
        cases.append(("metric", {"type": "points", "dim": dim, "coords": coords}))
    for key, value in cases:
        path = write(tmp_path, "bad.json", dict(base, **{key: value}))
        assert run_cli("solve", "--alg", "gc", "--input", path) == 2, (key, value)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be an integer" in json.loads(captured.err)["error"]


def test_audit_require_exact_exit3(tmp_path, capsys):
    from propclust import fixtures

    inst, L = fixtures.fig2a(5)
    inst_path = write(tmp_path, "fig2a.json", instance_to_file(inst))
    w_path = write(tmp_path, "w.json", {"W": sorted(L[x] for x in ("1", "2", "3", "6", "9"))})
    code = run_cli(
        "audit",
        "--notion",
        "qcore",
        "--q",
        "2",
        "--cap",
        "2",
        "--require-exact",
        "--input",
        inst_path,
        "--outcome",
        w_path,
    )
    assert code == 3
    obj = json.loads(capsys.readouterr().out)
    assert obj["status"] == "cap_exhausted"


def test_audit_gamma_rational(tmp_path, capsys):
    from propclust import fixtures

    inst, L = fixtures.lb_tc(1, 400, 4)
    inst_path = write(tmp_path, "lb.json", instance_to_file(inst))
    w_path = write(tmp_path, "w.json", {"W": [L["c1"]]})
    assert run_cli(
        "audit", "--notion", "tc", "--gamma", "2", "--input", inst_path, "--outcome", w_path
    ) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["value"] == [299, 101]


def test_repro_all_matches(capsys):
    assert run_cli("repro", "--case", "all") == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows and all(r["match"] for r in rows)


def test_repro_single_fixture(capsys):
    assert run_cli("repro", "--case", "fig2b") == 0
    rows = json.loads(capsys.readouterr().out)
    notions = {r["notion"] for r in rows}
    assert notions == {"dprf", "uprf"}


def test_repro_csv_format(capsys):
    assert run_cli("repro", "--case", "fig4a", "--format", "csv") == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "fixture,notion,params,expected,computed,status,match"
    assert len(out) == 3


def test_repro_unknown_fixture(capsys):
    assert run_cli("repro", "--case", "bogus") == 2


def test_instance_round_trip():
    rng = random.Random(31)
    for _ in range(10):
        inst = random_instance(rng, 8, 10, 3)
        back = parse_instance(instance_to_file(inst))
        assert back.agents == inst.agents
        assert back.candidates == inst.candidates
        assert back.k == inst.k
        for i in range(inst.space.num_points):
            for j in range(inst.space.num_points):
                assert abs(back.space.dist(i, j) - inst.space.dist(i, j)) < 1e-12


def test_cli_entrypoint_subprocess(tmp_path):
    # the installed console script path: module invocation mirrors it
    proc = subprocess.run(
        [sys.executable, "-m", "propclust.cli", "repro", "--case", "fig4b"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    rows = json.loads(proc.stdout)
    assert all(r["match"] for r in rows)


def test_report_value_round_trip():
    from fractions import Fraction
    from propclust.reports import decode_value, encode_value

    for v in (1, Fraction(10, 3), 0.25, math.inf, "pass", [Fraction(1, 2), 3]):
        assert decode_value(encode_value(v)) == v
    assert encode_value(Fraction(6, 3)) == 2


def test_audit_report_json_round_trip(tmp_path, capsys):
    from propclust import fixtures
    from propclust.reports import decode_value

    inst, L, W = fixtures.qtc_blocks(10, 4)
    inst_path = write(tmp_path, "blocks.json", instance_to_file(inst))
    w_path = write(tmp_path, "w.json", {"W": sorted(W.centers)})
    assert run_cli(
        "audit", "--notion", "qtc", "--q", "2", "--cap", "4",
        "--input", inst_path, "--outcome", w_path,
    ) == 0
    obj = json.loads(capsys.readouterr().out)
    assert decode_value(obj["value"]) == math.inf
    assert obj["witness"]["agents"]
