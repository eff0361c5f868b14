"""Byte-identity guard over the small corpus.

Refactors of the rules and auditors must keep every outcome, trace, report,
witness and error message byte-identical.  This test hashes all of them for
``small_corpus`` and compares the hash with a digest recorded before the
shared distance layer replaced the per-module distance tables.  A change
that alters any output on purpose must record the new digest and say why.
"""

import hashlib
import json

from propclust import algorithms
from propclust.cli import NUMERIC_NOTIONS, RANK_NOTIONS, run_audit

RECORDED_DIGEST = "88afe9a0f36958cf47847b5a43e4ebe6d6d4990221d4675f9874a38403eed392"


def _error(exc):
    return {"error": f"{type(exc).__name__}: {exc}"}


def corpus_outputs(corpus):
    records = []
    for idx, inst in enumerate(corpus):
        for tag, rule in (("gc", algorithms.greedy_capture), ("ea", algorithms.expanding_approvals)):
            try:
                outcome, trace = rule(inst)
            except ValueError as exc:
                records.append([idx, tag, _error(exc)])
                continue
            records.append([idx, tag, sorted(outcome.centers), outcome.origin, trace.to_json()])
            for notion in NUMERIC_NOTIONS + RANK_NOTIONS:
                try:
                    report = run_audit(inst, outcome, notion, q=2, cap=2).to_json()
                except ValueError as exc:
                    report = _error(exc)
                records.append([idx, tag, notion, report])
    return records


def test_small_corpus_outputs_byte_identical(small_corpus):
    text = json.dumps(corpus_outputs(small_corpus), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == RECORDED_DIGEST
