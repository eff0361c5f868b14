"""Audit reports, witnesses, and their JSON encoding.

Values are numbers (int, Fraction, float), ``math.inf``, or the strings
``"pass"`` / ``"violation"`` for the threshold axioms.  Fractions round-trip
through JSON as ``[num, den]`` pairs and infinity as the string ``"inf"``,
so reports serialize byte-identically across runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

EXACT = "exact"
CAP_EXHAUSTED = "cap_exhausted"

PASS = "pass"
VIOLATION = "violation"


@dataclass(frozen=True)
class Witness:
    """The binding group and deviation target of a numeric audit."""

    agents: tuple = ()
    candidates: tuple = ()
    ell: int | None = None
    threshold_y: object = None


@dataclass(frozen=True)
class RankViolation:
    """Concrete data falsifying a threshold axiom when re-checked."""

    axiom: str
    threshold_y: object
    ell: int
    group: tuple
    witness_candidates: tuple = ()
    covered_winners: tuple = ()


@dataclass(frozen=True)
class AuditReport:
    notion: str
    params: dict
    value: object
    witness: object = None
    status: str = EXACT

    @property
    def passed(self):
        """For pass/fail notions: whether no violation was found."""
        return self.value == PASS

    def to_json(self):
        return {
            "notion": self.notion,
            "params": {k: encode_value(v) for k, v in sorted(self.params.items())},
            "value": encode_value(self.value),
            "witness": encode_witness(self.witness),
            "status": self.status,
        }

    def to_json_str(self):
        return json.dumps(self.to_json(), sort_keys=True)


def encode_value(v):
    if v is None or isinstance(v, (int, str)):
        return v
    if isinstance(v, float):
        return "inf" if math.isinf(v) else v
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return v.numerator
        return [v.numerator, v.denominator]
    if isinstance(v, (tuple, list)):
        return [encode_value(x) for x in v]
    raise TypeError(f"cannot encode {v!r}")


def decode_value(v):
    if v == "inf":
        return math.inf
    if isinstance(v, list):
        if len(v) == 2 and all(isinstance(x, int) for x in v):
            return Fraction(v[0], v[1])
        return [decode_value(x) for x in v]
    return v


def encode_witness(w):
    if w is None:
        return None
    return {k: encode_value(v) for k, v in sorted(vars(w).items())}
