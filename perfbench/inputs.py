"""Seeded inputs for the three workloads.

Inputs sit on a fixed grid of points, sizes and tolerances.  The seed moves
every input within a small part of its grid cell and shuffles the order.
Each run therefore samples every region, tolerance and size range in the
same proportions, and run-to-run spread comes from the program and the
machine, not from an unlucky draw.  Nothing is filtered out afterwards.
"""

from __future__ import annotations

import random

TOLS = (1e-8, 1e-10, 1e-12)
REGIONS = ("critical", "real", "left_strip")
# share of a grid cell the seed may move a point across: kept small because
# the cost of u and v steps up with |Im s|, so a point crossing a step would
# move the tail percentile from one seed to the next
JITTER = 0.1

# ops per (region, tolerance) cell in one numeric_grid round
NUMERIC_MIX = (("u", 16), ("v", 16), ("w", 16), ("eta", 6), ("zeta", 6))
G_PER_TOL = 16

# exact_cold: (command, kind, N range); N large enough that the Fraction
# recurrences outweigh the ~0.08 s process start
EXACT_KINDS = (
    ("tables", "bernoulli", 260, 420),
    ("tables", "euler_zero", 260, 420),
    ("tables", "genocchi", 260, 420),
    ("tables", "c_coeff", 200, 320),
    ("values", "u", 200, 320),
    ("values", "v", 220, 340),
    ("values", "w", 200, 320),
    ("verify", "exact_identities", 60, 110),
)

CLI_EVAL_FUNCS = ("u", "v", "w", "eta", "zeta", "G")
_TABLE_KINDS = ("bernoulli", "euler_zero", "genocchi", "c_coeff")


def _cell(j: int, k: int, rng: random.Random) -> float:
    """Position in [0, 1) of point j of k, jittered inside its cell."""
    return (j + 0.5 + JITTER * (rng.random() - 0.5)) / k


def point(fn: str, region: str, pos: float, im_pos: float) -> tuple[float, float]:
    """(re, im) of fn at a position in [0, 1) along its region."""
    if fn == "G":  # real, non-integer, inside (0, 3)
        s = 0.02 + 2.96 * pos
        return (s + 2e-3 if abs(s - round(s)) < 1e-3 else s), 0.0
    if region == "critical":  # Re s = 1/2, |Im s| <= 30
        return 0.5, -30.0 + 60.0 * pos
    if region == "real":  # [-5, 5]
        return -5.0 + 10.0 * pos, 0.0
    # left strip: Re s in [-15, -5], |Im s| <= 2
    return -15.0 + 10.0 * pos, -2.0 + 4.0 * im_pos


def region_of(fn: str, re: float, im: float) -> str:
    if fn == "G":
        return "real_0_3"
    if re == 0.5:
        return "critical"
    if im == 0.0 and re >= -5.0:
        return "real"
    return "left_strip"


def numeric_round(seed: int) -> list[list]:
    """One numeric_grid round, [fn, re, im, tol] per op, in seeded order."""
    rng = random.Random(f"numeric_grid/{seed}")
    ops = []
    for tol in TOLS:
        for fn, k in NUMERIC_MIX:
            for region in REGIONS:
                ims = list(range(k))
                rng.shuffle(ims)  # pairs Re and Im cells like a Latin square
                for j in range(k):
                    re, im = point(fn, region, _cell(j, k, rng), _cell(ims[j], k, rng))
                    ops.append([fn, re, im, tol])
        for j in range(G_PER_TOL):
            ops.append(["G", *point("G", "", _cell(j, G_PER_TOL, rng), 0.0), tol])
    rng.shuffle(ops)
    return ops


class ExactRounds:
    """exact_cold rounds: every kind once per round.  Kind i takes size
    cell (3i + r) mod 8 of its range in round r, a Latin square: each round
    spans the whole size range, and eight rounds give every kind every cell."""

    PERIOD = 1

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(f"exact_cold/{seed}")
        self._round = 0

    def next(self) -> list[list[str]]:
        r = self._round
        self._round += 1
        k = len(EXACT_KINDS)
        ops = []
        for i, (command, kind, lo, hi) in enumerate(EXACT_KINDS):
            n = lo + int((hi - lo + 1) * _cell((3 * i + r) % k, k, self._rng))
            flag = "--m-max" if command == "values" else "--max-n"
            ops.append([command, kind, flag, str(n)])
        self._rng.shuffle(ops)
        return ops


class QuickRounds:
    """cli_quick rounds: one eval per function, a small values and tables
    call, and the two quick verify suites.  Function f evaluates in region
    (r + f) mod 3 of round r, so any PERIOD consecutive rounds hold every
    region once per function; tolerances cycle every 3 periods, and the
    position along the region every 9 rounds."""

    PERIOD = 3

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(f"cli_quick/{seed}")
        self._round = 0

    def next(self) -> list[list[str]]:
        rng = self._rng
        r = self._round
        self._round += 1
        ops = []
        for f, fn in enumerate(CLI_EVAL_FUNCS):
            region, tol = REGIONS[(r + f) % 3], TOLS[(r // 3 + f) % 3]
            re, im = point(fn, region, _cell((4 * r + f) % 9, 9, rng), rng.random())
            s = repr(re) if im == 0.0 else f"{re!r},{im!r}"
            # "--" keeps a negative "re,im" from being read as an option
            ops.append(["eval", fn, "--tol", repr(tol), "--", s])
        x = _cell((5 * r) % 9, 9, rng)
        tol = repr(TOLS[r % 3])
        ops.append(["values", "uvw"[r % 3], "--m-max", str(4 + int(21 * x))])
        ops.append(["tables", _TABLE_KINDS[r % 4], "--max-n", str(10 + int(51 * x))])
        ops.append(["verify", "theorem4", "--tol", tol])
        ops.append(["verify", "continuation", "--max-n", str(2 + int(7 * x)), "--tol", tol])
        rng.shuffle(ops)
        return ops
