"""Acceleration benchmark: naive partial summation against the tail-expansion
pipeline, at matched accuracy targets.

"Terms" counts every elementary series term a method consumes (for the
accelerated pipeline that includes the eta/zeta partial sums and the phi
sums inside the remainder quadrature); "quad_evals" counts quadrature node
evaluations.  Reference values come from the accelerated evaluators at a
much tighter tolerance, which is legitimate here because the benchmark
measures cost, not correctness (the test suites establish correctness
against independent oracles)."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .numeric import (
    _ABSCISSA,
    AccelConfig,
    TermCounter,
    _harmonic_chunks,
    counting_terms,
    u_num,
    v_num,
    w_num,
)

__all__ = ["BenchRow", "reference_value", "run_bench", "NAIVE_TERM_CAP"]

NAIVE_TERM_CAP = 1_500_000_000

_EVALUATORS = {"u": u_num, "v": v_num, "w": w_num}


@dataclass(frozen=True)
class BenchRow:
    method: str
    function: str
    s: float
    terms: int
    quad_evals: int
    achieved_error: float
    seconds: float
    slow_converging: bool = False


def reference_value(function: str, s: float) -> complex:
    cfg = AccelConfig(tol=1e-12)
    return _EVALUATORS[function](s, cfg).value


def run_naive(
    function: str, s: float, target: float, cap: int = NAIVE_TERM_CAP
) -> BenchRow:
    """Plain partial sums of the defining series until the distance to the
    reference drops below target (checked at chunk boundaries)."""
    ref = reference_value(function, s)
    t0 = time.perf_counter()
    total = 0.0
    for n, weights in _harmonic_chunks(function, cap, size=4096):
        total += float(np.sum(weights * n ** (-s)))
        err = abs(total - ref.real)
        if err <= target:
            return BenchRow(
                "naive", function, s, int(n[-1]), 0, err, time.perf_counter() - t0
            )
    return BenchRow(
        "naive", function, s, cap, 0, abs(total - ref.real),
        time.perf_counter() - t0, slow_converging=True,
    )


def run_boole(function: str, s: float, target: float) -> BenchRow:
    """The tail-expansion pipeline at tolerance matching the target."""
    ref = reference_value(function, s)
    counter = TermCounter()
    cfg = AccelConfig(tol=target)
    t0 = time.perf_counter()
    with counting_terms(counter):
        val = _EVALUATORS[function](s, cfg).value
    return BenchRow(
        "boole", function, s, counter.series_terms, counter.quad_evals,
        abs(val - ref), time.perf_counter() - t0,
    )


def run_bench(
    function: str,
    s: float,
    methods: tuple[str, ...] = ("naive", "boole"),
    digits_target: int = 8,
    cap: int = NAIVE_TERM_CAP,
) -> list[BenchRow]:
    if function not in _EVALUATORS:
        raise ValueError(f"unknown function {function!r}")
    if s <= _ABSCISSA[function]:
        raise ValueError(
            f"naive summation of {function} needs s > {_ABSCISSA[function]}"
        )
    if digits_target < 1:
        raise ValueError("digits_target must be >= 1")
    target = 0.5 * 10.0 ** (-digits_target)
    rows = []
    for method in methods:
        if method == "naive":
            rows.append(run_naive(function, s, target, cap))
        elif method == "boole":
            rows.append(run_boole(function, s, target))
        else:
            raise ValueError(f"unknown method {method!r}")
    return rows
