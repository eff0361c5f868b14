"""The rules' proven rank-axiom verdicts at 160 agents, past the oracle's
reach, on both families, each in sequence and alone on a fresh instance;
``proven_axioms.py`` runs the same checks at any size."""

from proven_axioms import FAMILIES, holds, proven_verdicts


def test_rules_meet_their_proven_rank_axioms_at_160_agents():
    for family in FAMILIES:
        seen = []
        for tag, notion, reports, _ in proven_verdicts(160, family):
            for report in reports:
                assert holds(report), (family, tag, notion, report.to_json())
            seen.append((tag, notion))
        assert seen == [
            ("ea", "rank-jr"),
            ("ea", "rank-pjr+"),
            ("ea", "rank-pjr"),
            ("gc", "rank-jr"),
        ]
