"""Audit reports, witnesses, and their JSON encoding.

Values are numbers (int, Fraction, float), ``math.inf``, or the strings
``"pass"`` / ``"violation"`` for the threshold axioms.  Fractions round-trip
through JSON as ``[num, den]`` pairs and infinity as the string ``"inf"``
(-inf has no encoding and raises ValueError), so reports serialize
byte-identically across runs.  A report's one encoding is the text
``AuditReport.to_json_str`` writes; ``to_json`` parses it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
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
        return json.loads(self.to_json_str())

    def to_json_str(self):
        """The bytes ``json.dumps(..., sort_keys=True)`` gives for the report
        with its values through ``encode_value``; names are str."""
        p = self.params
        params = ", ".join([f"{_str(k)}: {_write(p[k])}" for k in sorted(p)]) if p else ""
        return (
            f'{{"notion": {_str(self.notion)}, "params": {{{params}}}, '
            f'"status": {_str(self.status)}, "value": {_write(self.value)}, '
            f'"witness": {_write_fields(self.witness)}}}'
        )


def encode_value(v):
    if v is None or isinstance(v, (int, str)):
        return v
    if isinstance(v, float):
        if v == -math.inf:
            raise ValueError("cannot encode -inf: infinity is written only as +inf")
        return "inf" if v == math.inf else v
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


_str = json.encoder.encode_basestring_ascii


def _write(v):
    """The JSON text of ``encode_value(v)``; a type without a form of its
    own, such as a subclass, and -inf go through ``encode_value`` and
    ``json``."""
    t = type(v)
    if t is int:
        return repr(v)
    if t is tuple or t is list:
        return "[" + ", ".join([repr(x) if type(x) is int else _write(x) for x in v]) + "]"
    if v is None:
        return "null"
    if t is str:
        return _str(v)
    if t is Fraction:
        if v.denominator == 1:
            return repr(v.numerator)
        return f"[{v.numerator!r}, {v.denominator!r}]"
    if t is float and v != -math.inf:
        if v == math.inf:
            return '"inf"'
        return "NaN" if v != v else repr(v)
    return json.dumps(encode_value(v))


def _keys(names):
    return [(f"{_str(name)}: ", name) for name in sorted(names)]


_KEYS = {cls: _keys(f.name for f in fields(cls)) for cls in (Witness, RankViolation)}


def _write_fields(w):
    """A witness as an object of its fields, in sorted order."""
    if w is None:
        return "null"
    values = vars(w)
    keys = _KEYS.get(type(w)) or _keys(values)
    return "{" + ", ".join([key + _write(values[name]) for key, name in keys]) + "}"
