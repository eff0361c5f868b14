import json
import math
import subprocess
import sys

import pytest

from propclust.cli import main, parse_instance
from propclust.generate import generate_family, instance_to_file
from propclust.generate import random_instance
from propclust.instance import Instance
from propclust.metric import MetricSpace
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


@pytest.mark.parametrize("n, k", [(2, 2), (10, 4), (9, 3), (13, 5), (12, 12)])
def test_gen_blocks_matches_the_qtc_blocks_fixture(n, k):
    from propclust import fixtures

    gen = parse_instance(generate_family("blocks", n, k, 0))
    fixture = fixtures.qtc_blocks(n, k)[0]
    assert (gen.agents, gen.candidates, gen.k) == (fixture.agents, fixture.candidates, fixture.k)
    assert gen.agent_rows == fixture.agent_rows


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


@pytest.mark.parametrize("family", ["euclidean", "graph", "blocks"])
@pytest.mark.parametrize("name", ["n", "k"])
@pytest.mark.parametrize("value", [True, 2.0, "3", None])
def test_generate_family_rejects_non_int_sizes(family, name, value):
    # never coerced (n=True is not a one-point instance) and never a TypeError
    sizes = {"n": 4, "k": 2, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        generate_family(family, sizes["n"], sizes["k"], 1)


@pytest.mark.parametrize("n, k", [(0, 2), (4, 0), (True, 2), (4, "3")])
def test_generate_family_names_an_unknown_family_before_the_sizes(n, k):
    with pytest.raises(ValueError, match="^unknown family 'bogus'$"):
        generate_family("bogus", n, k, 1)


@pytest.mark.parametrize(
    "args, bad", [((1, 8, 4), "max_n must be >= 2"), ((8, 8, 0), "max_k must be >= 1")]
)
def test_random_instance_names_bad_sizes(args, bad):
    rng = random.Random(5)
    state = rng.getstate()
    with pytest.raises(ValueError, match=bad):
        random_instance(rng, *args)
    assert rng.getstate() == state  # rejected before any draw


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


def test_solve_echoes_the_seed_fgc_reads(fig3a_file, capsys):
    path, _ = fig3a_file
    assert run_cli("solve", "--alg", "fgc", "--q", "2", "--seed", "5", "--input", path) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 5
    assert run_cli("solve", "--alg", "fgc", "--q", "2", "--seed", "0", "--input", path) == 0
    seed_zero = capsys.readouterr().out
    assert run_cli("solve", "--alg", "fgc", "--q", "2", "--input", path) == 0
    assert capsys.readouterr().out == seed_zero
    for alg in ("gc", "ea-restricted"):
        assert run_cli("solve", "--alg", alg, "--input", path) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 0


def test_solve_ea_spends_full_budget(fig3a_file, capsys):
    path, labels = fig3a_file
    assert run_cli("solve", "--alg", "ea", "--input", path) == 0
    obj = json.loads(capsys.readouterr().out)
    assert len(obj["W"]) == 4


def test_solve_parse_error_exit2(tmp_path, capsys):
    zero_den_graph = {"type": "graph", "nodes": 2, "edges": [[0, 1, [1, 0]]]}
    zero_den_matrix = {"type": "matrix", "d": [[0, [1, 0]], [[1, 0], 0]]}
    wrong_dim = {"type": "points", "dim": 3, "coords": [[0, 0], [1, 0]]}
    nan_matrix = {"type": "matrix", "d": [[0, math.nan], [math.nan, 0]]}
    inf_matrix = {"type": "matrix", "d": [[0, math.inf], [math.inf, 0]]}
    far = [[1e308, 0], [-1e308, 0], [1e308, 1], [-1e308, 1]]
    far_points = {"type": "points", "dim": 2, "coords": far}
    metrics = (
        {"type": "nope"},
        zero_den_graph,
        zero_den_matrix,
        wrong_dim,
        nan_matrix,
        inf_matrix,
        far_points,
    )
    for metric in metrics:
        payload = {"metric": metric, "agents": [0, 1], "candidates": "all", "k": 1}
        bad = write(tmp_path, "bad.json", payload)
        assert run_cli("solve", "--alg", "gc", "--input", bad) == 2, metric
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error" in json.loads(captured.err)
        if metric is inf_matrix:
            assert "invalid distance" in json.loads(captured.err)["error"]
        if metric is far_points:
            assert "distances must be finite" in json.loads(captured.err)["error"]


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


@pytest.mark.parametrize(
    "argv, flag, name",
    [
        (("audit", "--notion", "pf", "--q", "3"), "--q", "pf"),
        (("audit", "--notion", "pf", "--cap", "9"), "--cap", "pf"),
        (("audit", "--notion", "pf", "--gamma", "2"), "--gamma", "pf"),
        (("audit", "--notion", "rank-pjr", "--cap", "0"), "--cap", "rank-pjr"),
        (("audit", "--notion", "uprf", "--q", "2"), "--q", "uprf"),
        (("audit", "--notion", "if", "--gamma", "2"), "--gamma", "if"),
        (("audit", "--notion", "tc", "--cap", "2"), "--cap", "tc"),
        (("audit", "--notion", "qif", "--cap", "2"), "--cap", "qif"),
        (("audit", "--notion", "qcore", "--gamma", "2"), "--gamma", "qcore"),
        (("solve", "--alg", "gc", "--q", "2"), "--q", "gc"),
        (("solve", "--alg", "ea-restricted", "--q", "1"), "--q", "ea-restricted"),
        (("solve", "--alg", "gc", "--seed", "5"), "--seed", "gc"),
        (("solve", "--alg", "ea", "--seed", "0"), "--seed", "ea"),
        (("solve", "--alg", "gc-restricted", "--seed", "5"), "--seed", "gc-restricted"),
        (("solve", "--alg", "ea-restricted", "--seed", "5"), "--seed", "ea-restricted"),
    ],
)
def test_flags_a_notion_or_rule_never_reads_exit2(tmp_path, capsys, argv, flag, name):
    from propclust import fixtures

    inst, L = fixtures.fig2a(5)
    inst_path = write(tmp_path, "fig2a.json", instance_to_file(inst))
    w_path = write(tmp_path, "w.json", {"W": sorted(L[x] for x in ("1", "2", "3", "6", "9"))})
    files = ("--input", inst_path) + (("--outcome", w_path) if argv[0] == "audit" else ())
    assert run_cli(*argv, *files) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": f"{flag} does not apply to {name}"}


# The optional flags each notion and rule reads, written out here rather
# than read from the cli's tables.
NOTION_READS = {
    "pf": (),
    "if": (),
    "tc": ("gamma",),
    "qcore": ("q", "cap"),
    "qif": ("q",),
    "qtc": ("gamma", "q", "cap"),
    "rank-jr": (),
    "rank-pjr": (),
    "rank-pjr+": (),
    "dprf": (),
    "uprf": (),
}
RULE_READS = {"gc": (), "ea": (), "fgc": ("q", "seed"), "gc-restricted": (), "ea-restricted": ()}
FLAG_VALUES = {"gamma": "3/2", "q": "2", "cap": "3", "seed": "5"}
MATRIX = [
    ("audit", "--notion", notion, flag, flag in reads)
    for notion, reads in NOTION_READS.items()
    for flag in ("gamma", "q", "cap")
] + [
    ("solve", "--alg", rule, flag, flag in reads)
    for rule, reads in RULE_READS.items()
    for flag in ("q", "seed")
]


@pytest.mark.parametrize("command, key, name, flag, read", MATRIX)
def test_every_flag_is_read_or_exits2(fig3a_file, tmp_path, capsys, command, key, name, flag, read):
    inst_path, labels = fig3a_file
    w_path = write(tmp_path, "w.json", {"W": sorted(labels[x] for x in ("1", "2", "3", "6"))})
    files = ("--input", inst_path) + (("--outcome", w_path) if command == "audit" else ())
    code = run_cli(command, key, name, f"--{flag}", FLAG_VALUES[flag], *files)
    captured = capsys.readouterr()
    unread = {"error": f"--{flag} does not apply to {name}"}
    if not read:
        assert code == 2
        assert captured.out == ""
        assert json.loads(captured.err) == unread
    elif (name, flag) == ("fgc", "seed"):
        assert code == 2
        assert json.loads(captured.err) == {"error": "fgc needs --q"}
    else:
        assert code in (0, 1)
        assert captured.err == ""
        assert json.loads(captured.out)


def test_an_unreadable_input_is_reported_before_a_missing_q(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    assert run_cli("solve", "--alg", "fgc", "--input", missing) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "No such file or directory" in json.loads(captured.err)["error"]


@pytest.mark.parametrize(
    "command, choices",
    [
        ("solve", "--alg {gc,ea,fgc,gc-restricted,ea-restricted}"),
        ("audit", "--notion {pf,if,tc,qcore,qif,qtc,rank-jr,rank-pjr,rank-pjr+,dprf,uprf}"),
        ("gen", "--family {euclidean,graph,blocks}"),
    ],
)
def test_choices_order(capsys, command, choices):
    with pytest.raises(SystemExit) as done:
        run_cli(command, "--help")
    assert done.value.code == 0
    assert choices in capsys.readouterr().out


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
    float_matrix = MetricSpace.from_matrix([[0, 0.5, 1.0], [0.5, 0, 0.75], [1.0, 0.75, 0]])
    instances = [random_instance(rng, 8, 10, 3) for _ in range(10)]
    for inst in instances + [Instance(float_matrix, (0, 1, 2), "all", 1)]:
        back = parse_instance(instance_to_file(inst))
        assert back.agents == inst.agents
        assert back.candidates == inst.candidates
        assert back.k == inst.k
        for i in range(inst.space.num_points):
            for j in range(inst.space.num_points):
                assert abs(back.space.dist(i, j) - inst.space.dist(i, j)) < 1e-12


def test_cli_entrypoint_subprocess(tmp_path, child_env):
    # the installed console script path: module invocation mirrors it
    proc = subprocess.run(
        [sys.executable, "-m", "propclust.cli", "repro", "--case", "fig4b"],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    rows = json.loads(proc.stdout)
    assert all(r["match"] for r in rows)


def test_importing_the_cli_leaves_the_fixtures_unloaded(child_env):
    # gen, solve and audit never read the paper's fixtures; only repro does
    code = "import sys, propclust.cli; print('propclust.fixtures' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


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
