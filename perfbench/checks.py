"""Classify each op's output against the oracle.

Numeric outputs (value, error_bound) at tolerance tol, in this order:

  raised          EvaluationError in process, or CLI exit 3
  bound_over_tol  error_bound > tol * max(1, |value|)
  outside_bound   |ref - value| > error_bound (+ the reference's own error)
  ok

A value whose reference is not verified to well below tol is also flagged
unchecked; it is neither passed nor failed on accuracy.  CLI commands whose
output is exact are compared with the exact references: a difference is a
``mismatch``; a non-zero exit where success was expected is ``exit_code``.
The runner fails an op as ``unsteady`` when its repeated runs disagree.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, log

class HarnessFault(Exception):
    """A fault of the benchmark run itself: abort without a result."""


def numeric(oracle, fn: str, re: float, im: float, tol: float, out) -> tuple[str, bool]:
    """(outcome, unchecked) for one numeric evaluation."""
    if isinstance(out, str):
        return "raised", False
    value = complex(out[0], out[1])
    bound = out[2]
    ref, ref_err = oracle.numeric(fn, complex(re, im))
    unchecked = ref_err > 1e-3 * tol * max(1.0, abs(ref))
    if bound > tol * max(1.0, abs(value)):
        return "bound_over_tol", unchecked
    if not unchecked and abs(ref - value) > bound + ref_err:
        return "outside_bound", False
    return "ok", unchecked


def _rows(doc: dict) -> list[dict]:
    return [row["payload"] for row in doc["rows"]]


def tables(oracle, kind: str, max_n: int, doc: dict) -> bool:
    rows = _rows(doc)
    start = 1 if kind == "c_coeff" else 0
    if [r["index"] for r in rows] != list(range(start, max_n + 1)):
        return False
    ref = {
        "bernoulli": oracle.bernoulli,
        "euler_zero": oracle.euler_zero,
        "genocchi": oracle.genocchi,
        "c_coeff": oracle.c_coefficient,
    }[kind]
    return all(Fraction(r["value"]) == ref(r["index"]) for r in rows)


def values(oracle, fn: str, m_max: int, doc: dict) -> bool:
    rows = _rows(doc)
    if [r["s"] for r in rows] != [-m for m in range(m_max + 1)]:
        return False
    for m, row in enumerate(rows):
        if fn == "v":
            kind, ref = oracle.v_value(m)
            if kind == "pole":
                pole = row.get("pole")
                if pole is None or pole["location"] != -m or Fraction(pole["residue"]) != ref:
                    return False
                continue
            ref = (ref, Fraction(0))
        else:
            ref = (oracle.u_value if fn == "u" else oracle.w_value)(m)
        got = row.get("value")
        if got is None or (Fraction(got["rational_part"]), Fraction(got["log2_coeff"])) != ref:
            return False
    return True


def exact_identities(oracle, max_n: int, doc: dict) -> bool:
    rows = _rows(doc)
    expected = 2 * max_n + (max_n + 1) + max_n + min(max_n, 100) + (max_n + 1)
    if len(rows) != expected or not all(r["passed"] for r in rows):
        return False
    for r in rows:
        n = int(r["label"])
        if r["check"] in ("corollary1", "bridge"):
            if Fraction(r["lhs"]) != factorial(2 * n) * oracle.c_coefficient(2 * n):
                return False
        elif r["check"] == "genocchi_integral" and int(r["lhs"]) != oracle.genocchi(n):
            return False
    return True


def continuation(oracle, max_n: int, doc: dict) -> bool:
    """The exact side of every row against the reference closed forms."""
    rows = _rows(doc)
    for r in rows:
        m = -int(r["label"])
        if r["check"] == "v_continuation":
            exact = float(oracle.v_value(m)[1])
        else:
            rat, lg = (oracle.u_value if r["check"] == "u_continuation" else oracle.w_value)(m)
            exact = float(rat) + float(lg) * log(2)
        if abs(float(r["rhs"]) - exact) > 1e-14 * max(1.0, abs(exact)):
            return False
    return len(rows) == 2 * (max_n + 1) + max_n // 2


def theorem4(oracle, tol: float, doc: dict) -> bool:
    """The G side of every row against the reference quadrature."""
    rows = _rows(doc)
    for r in rows:
        ref, _ = oracle.numeric("G", complex(float(r["label"])))
        if abs(float(r["lhs"]) - ref.real) > tol * max(1.0, abs(ref)):
            return False
    return len(rows) == 3
