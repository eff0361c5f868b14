"""The report writer against the encoding it replaced.

``AuditReport.to_json_str`` writes the JSON text itself.  The reference
below is the encoding it must match byte for byte: the report as a dict of
``encode_value``d fields, with the witness's fields taken from ``vars``,
dumped by ``json.dumps(..., sort_keys=True)``.
"""

import json
import math
from fractions import Fraction

import pytest

from propclust import algorithms
from propclust.cli import NUMERIC_NOTIONS, RANK_NOTIONS, run_audit
from propclust.reports import (
    CAP_EXHAUSTED,
    PASS,
    VIOLATION,
    AuditReport,
    RankViolation,
    Witness,
    decode_value,
    encode_value,
)


def reference_json(report):
    w = report.witness
    return json.dumps(
        {
            "notion": report.notion,
            "params": {k: encode_value(v) for k, v in report.params.items()},
            "value": encode_value(report.value),
            "witness": None if w is None else {k: encode_value(v) for k, v in vars(w).items()},
            "status": report.status,
        },
        sort_keys=True,
    )


def check(report):
    text = report.to_json_str()
    assert text == reference_json(report)
    assert json.dumps(report.to_json(), sort_keys=True) == text


def corpus_reports(corpus):
    for inst in corpus:
        for rule in (algorithms.greedy_capture, algorithms.expanding_approvals):
            try:
                outcome, _ = rule(inst)
            except ValueError:
                continue
            for notion in NUMERIC_NOTIONS + RANK_NOTIONS:
                for gamma in (1, Fraction(3, 2)) if notion in ("tc", "qtc") else (None,):
                    try:
                        yield run_audit(inst, outcome, notion, gamma, q=2, cap=2)
                    except ValueError:
                        pass


@pytest.mark.parametrize("name", ["small_corpus", "corpus500"])
def test_corpus_reports_match_the_reference_encoder(request, name):
    kinds = set()
    for report in corpus_reports(request.getfixturevalue(name)):
        check(report)
        kinds.add((type(report.value), type(report.witness)))
    assert {Fraction, float, int, str} <= {value for value, _ in kinds}
    assert {Witness, RankViolation, type(None)} <= {witness for _, witness in kinds}


HAND_BUILT = [
    AuditReport("tc", {"gamma": Fraction(3, 2)}, Fraction(7, 3), Witness((0, 2), (1,))),
    AuditReport("tc", {"gamma": Fraction(4, 2)}, Fraction(8, 2), Witness((1,), (0,), 1)),
    AuditReport("pf", {}, 1.25, Witness((3,), (), None, 0.5)),
    AuditReport("if", {}, math.inf, Witness((0,), (), 2, Fraction(1, 3))),
    AuditReport("if", {}, -1e300, None),
    AuditReport("pf", {}, math.nan, None),
    AuditReport("qtc", {"gamma": 2.5, "q": 2, "size_cap": None}, 3, None, CAP_EXHAUSTED),
    AuditReport("uprf", {}, PASS, None, CAP_EXHAUSTED),
    AuditReport("rank-pjr", {}, VIOLATION, RankViolation("rank-pjr", 0.75, 2, (0, 1), (2,), (3,))),
    AuditReport("dprf", {}, VIOLATION, RankViolation("dprf", Fraction(5, 2), 1, (4,))),
    AuditReport("uprf", {}, VIOLATION, RankViolation("uprf", 3, 1, (0,), (), ())),
    AuditReport('a "quoted"\nnotion é', {"z": True, "a": False, "é": [1.0, -0.0]}, "x", None),
    AuditReport("pf", {"q": 10**40}, Fraction(-(10**30), 7), Witness([0], [Fraction(1, 2), 2.0])),
]


@pytest.mark.parametrize("report", HAND_BUILT, ids=range(len(HAND_BUILT)))
def test_hand_built_reports_match_the_reference_encoder(report):
    check(report)


@pytest.mark.parametrize(
    "value", [0, 7, Fraction(7, 3), Fraction(-1, 2), 0.1, 1e300, math.inf, PASS, VIOLATION]
)
def test_report_values_round_trip(value):
    report = AuditReport("pf", {}, value, Witness((0,), (1,), 1, value))
    got = report.to_json()
    assert decode_value(got["value"]) == value
    assert decode_value(got["witness"]["threshold_y"]) == value


def test_values_without_a_form_of_their_own_fall_back():
    class Count(int):
        pass

    class Ratio(Fraction):
        pass

    class Pair(tuple):
        pass

    for value in (Count(3), Ratio(1, 2), Pair((1, Fraction(2, 3)))):
        check(AuditReport("pf", {"q": value}, value, Witness(value)))


@pytest.mark.parametrize("bad", [{"a": 1}, {1, 2}, (1, object()), b"x"])
def test_unsupported_values_raise_the_encode_value_error(bad):
    with pytest.raises(TypeError) as expected:
        encode_value(bad)
    for report in (
        AuditReport("pf", {}, bad, None),
        AuditReport("pf", {"q": bad}, 1, None),
        AuditReport("pf", {}, 1, Witness(agents=bad)),
    ):
        with pytest.raises(TypeError) as got:
            report.to_json_str()
        assert str(got.value) == str(expected.value)


def test_minus_infinity_raises_the_encode_value_error():
    # "inf" is +inf only: writing -inf as it would flip its sign on decoding
    with pytest.raises(ValueError) as expected:
        encode_value(-math.inf)
    for report in (
        AuditReport("if", {}, -math.inf, None),
        AuditReport("if", {"gamma": -math.inf}, 1, None),
        AuditReport("if", {}, 1, Witness(threshold_y=-math.inf)),
        AuditReport("if", {}, 1, Witness(candidates=(1, -math.inf))),
        AuditReport("dprf", {}, VIOLATION, RankViolation("dprf", -math.inf, 1, (0,))),
    ):
        with pytest.raises(ValueError) as got:
            report.to_json_str()
        assert str(got.value) == str(expected.value)
