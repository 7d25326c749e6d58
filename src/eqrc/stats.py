"""Estimators over matched runs of outcomes.

Pair-product expectations, single-wing marginals, and the triple tables
obtained by appending a hypothetical constant third column to two
columns of one single-space table. Nothing here draws a stream: each
estimator reads columns it is given. Accumulation uses exact int64 sums
of ±1 data, so results are independent of summation order and
reproducible bit-for-bit; parallel partial tallies merge exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ExpectationEstimate",
    "TripleTable",
    "TRIPLE_KINDS",
    "estimate_expectation",
    "estimate_marginals",
    "build_triple_table",
]

TRIPLE_KINDS = ("abc'", "ab'c")


@dataclass(frozen=True)
class ExpectationEstimate:
    """Sample mean of ±1 data with its normal-approximation standard error."""

    value: float
    n_samples: int
    std_error: float

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if abs(self.value) > 1.0:
            raise ValueError(f"a ±1 mean cannot exceed 1 in magnitude, got {self.value}")


def _estimate_from_pm1(values: np.ndarray) -> ExpectationEstimate:
    n = int(values.size)
    total = int(np.sum(values, dtype=np.int64))
    value = total / n
    var = max(0.0, 1.0 - value * value)
    return ExpectationEstimate(value=value, n_samples=n, std_error=math.sqrt(var / n))


def estimate_expectation(group) -> ExpectationEstimate:
    """Mean of left×right products over a run group's matched pairs.

    ``group`` is anything with equal-length ``left`` and ``right`` ±1
    outcome arrays, such as a ``RunGroup``.
    """
    if len(group.left) == 0:
        raise ValueError("no records to estimate from")
    return _estimate_from_pm1(group.left * group.right)  # int8 products of ±1 are exact; summed in int64


def estimate_marginals(group) -> tuple[ExpectationEstimate, ExpectationEstimate]:
    """Single-wing means (left, right) over the same matched pairs."""
    if len(group.left) == 0:
        raise ValueError("no records to estimate from")
    return _estimate_from_pm1(group.left), _estimate_from_pm1(group.right)


@dataclass(frozen=True)
class TripleTable:
    """Counts over the eight sign patterns of one appended-column triple.

    Taken alone it is a valid probability table: all eight cells are
    present and sum to the total. Tables of different kinds built from
    the same events generally disagree; each triple carries its own
    measure.
    """

    kind: str
    counts: dict[tuple[int, int, int], int]
    total: int

    def __post_init__(self) -> None:
        cells = [(s1, s2, s3) for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)]
        if sorted(self.counts) != sorted(cells):
            raise ValueError("triple table must carry all eight sign-pattern cells")
        if any(c < 0 for c in self.counts.values()):
            raise ValueError("cell counts must be nonnegative")
        if sum(self.counts.values()) != self.total:
            raise ValueError("cell counts must sum to the total")
        if self.total < 1:
            raise ValueError("total must be >= 1")

    def fraction(self, pattern: tuple[int, int, int]) -> float:
        return self.counts[pattern] / self.total


def build_triple_table(kind: str, table) -> TripleTable:
    """Tally the triple obtained from two columns of one table plus a constant column.

    ``table`` is a ``CyclicTable`` over settings (a, b, c), whose
    columns A(a), A(b), A(c) are evaluated on one draw per row (see
    ``cyclic_concatenate``). Kind ``abc'`` tallies (A(a), A(b), +1) and
    kind ``ab'c`` tallies (A(a), A(c), +1): A(a) is the left outcome,
    A(x) the sign-flipped right outcome at x under the *same* gauge,
    and the appended hypothetical column stays at +1 and never carries
    the gauge. Only this construction reproduces the distinct
    per-triple measures.
    """
    if kind not in TRIPLE_KINDS:
        raise ValueError(f"kind must be one of {TRIPLE_KINDS}, got {kind!r}")
    # int8: (s1, s2) is the cell 2*s1 + s2, one of -3, -1, 1, 3
    cell = table.s_a * 2 + (table.s_b if kind == "abc'" else table.s_c)
    counts = {(s1, s2, s3): int(np.count_nonzero(cell == 2 * s1 + s2)) if s3 == 1 else 0
              for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)}
    return TripleTable(kind=kind, counts=counts, total=len(cell))
