"""Analytic oracle and evaluators for the three inequality families.

Evaluators take expectation values (plain floats or estimates with
standard errors) or equal/different counts and report left-hand side,
right-hand side, and a violation flag; "violated" means strictly
greater, ties satisfy. Also here: the single-space cyclic construction
that forces all three setting pairs onto one hidden-variable draw, and
the exhaustive eight-assignment oracle proving that construction can
never violate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .model import GaugeKey, PairStream, Setting, outcome_columns
from .stats import ExpectationEstimate

__all__ = [
    "InequalityReport",
    "CyclicTable",
    "analytic_expectation",
    "bell_check",
    "chsh_check",
    "wigner_check",
    "cyclic_concatenate",
    "cyclic_oracle",
    "OracleRow",
]

ExpectationLike = Union[float, ExpectationEstimate]


def analytic_expectation(a: Setting, b: Setting) -> float:
    """Singlet-correlation prediction: minus the dot product of the settings.

    Invariant under simultaneous rotation of both settings about the
    emission axis.
    """
    return -(a.b2 * b.b2 + a.b3 * b.b3)


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of one inequality evaluation.

    ``inputs`` keeps the labelled expectations/counts the sides were
    computed from; simulated modes carry combined standard errors so a
    violation claim can be stated in sigma units.
    """

    name: str  # "bell" | "chsh" | "wigner"
    lhs: float
    rhs: float
    violated: bool
    mode: str  # "analytic" | "simulated-per-space" | "simulated-single-space"
    inputs: tuple = ()
    lhs_std_error: float = 0.0
    rhs_std_error: float = 0.0

    def __post_init__(self) -> None:
        if self.violated != (self.lhs > self.rhs):
            raise ValueError("violated flag must equal lhs > rhs")
        if self.mode == "analytic" and (self.lhs_std_error or self.rhs_std_error):
            raise ValueError("analytic reports carry zero standard error")

    def separation_sigma(self) -> float:
        """(lhs - rhs) in units of the combined standard error; inf if exact."""
        se = math.hypot(self.lhs_std_error, self.rhs_std_error)
        if se == 0.0:
            return math.inf if self.lhs != self.rhs else 0.0
        return (self.lhs - self.rhs) / se

    def to_json(self) -> dict:
        return {
            "v": 1,
            "name": self.name,
            "mode": self.mode,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "violated": self.violated,
            "lhs_std_error": self.lhs_std_error,
            "rhs_std_error": self.rhs_std_error,
            "inputs": [[label, _input_json(v)] for label, v in self.inputs],
        }


def _input_json(v):
    if isinstance(v, ExpectationEstimate):
        return {"value": v.value, "n": v.n_samples, "std_error": v.std_error}
    if isinstance(v, Fraction):
        return float(v)
    if isinstance(v, tuple):
        return list(v)
    return v


def _value_se(x: ExpectationLike):
    # Exact numeric types (ints, Fractions) pass through unchanged so the
    # sides can be compared without rounding; floats stay floats.
    if isinstance(x, ExpectationEstimate):
        return x.value, x.std_error
    if not -1 <= x <= 1:
        raise ValueError(f"expectation value out of [-1, 1]: {x}")
    return x, 0.0


def _finalize(lhs, rhs) -> tuple[float, float, bool]:
    """Store sides as floats; decide violation on the stored values.

    float() of an exact rational is correctly rounded, hence monotone: a
    construction that saturates a bound exactly (lhs == rhs in exact
    arithmetic) can never round into a spurious strict violation.
    """
    lhs_f, rhs_f = float(lhs), float(rhs)
    return lhs_f, rhs_f, lhs_f > rhs_f


def _pick_mode(mode: str | None, values: Sequence[ExpectationLike]) -> str:
    if mode is not None:
        return mode
    return "simulated-per-space" if any(isinstance(v, ExpectationEstimate) for v in values) else "analytic"


def bell_check(
    e_ab: ExpectationLike,
    e_ac: ExpectationLike,
    e_bc: ExpectationLike,
    mode: str | None = None,
) -> InequalityReport:
    """Three-pair bound: |E(a,b) - E(a,c)| <= 1 + E(b,c)."""
    (v_ab, s_ab), (v_ac, s_ac), (v_bc, s_bc) = map(_value_se, (e_ab, e_ac, e_bc))
    lhs, rhs, violated = _finalize(abs(v_ab - v_ac), 1 + v_bc)
    return InequalityReport(
        name="bell",
        lhs=lhs,
        rhs=rhs,
        violated=violated,
        mode=_pick_mode(mode, (e_ab, e_ac, e_bc)),
        inputs=(("E(a,b)", e_ab), ("E(a,c)", e_ac), ("E(b,c)", e_bc)),
        lhs_std_error=math.hypot(s_ab, s_ac),
        rhs_std_error=s_bc,
    )


def chsh_check(
    e_ab: ExpectationLike,
    e_ac: ExpectationLike,
    e_db: ExpectationLike,
    e_dc: ExpectationLike,
    mode: str | None = None,
) -> InequalityReport:
    """Four-pair bound: |E(a,b) + E(a,c) + E(d,b) - E(d,c)| <= 2."""
    vals = [_value_se(x) for x in (e_ab, e_ac, e_db, e_dc)]
    lhs, _, violated = _finalize(abs(vals[0][0] + vals[1][0] + vals[2][0] - vals[3][0]), 2)
    return InequalityReport(
        name="chsh",
        lhs=lhs,
        rhs=2.0,
        violated=violated,
        mode=_pick_mode(mode, (e_ab, e_ac, e_db, e_dc)),
        inputs=(("E(a,b)", e_ab), ("E(a,c)", e_ac), ("E(d,b)", e_db), ("E(d,c)", e_dc)),
        lhs_std_error=math.hypot(math.hypot(vals[0][1], vals[1][1]), math.hypot(vals[2][1], vals[3][1])),
        rhs_std_error=0.0,
    )


EqualCounts = tuple[int, int]  # (n_equal, n_total) for one setting-pair experiment


def wigner_check(
    tallies: Sequence[EqualCounts],
    mode: str = "simulated-per-space",
) -> InequalityReport:
    """Count bound over equal-outcome frequencies for three setting pairs.

    Template: with pairs (x,y), (x,z), (z,y), require
    f_equal(x,y) <= f_equal(x,z) + f_equal(z,y).

    ``tallies`` are three (n_equal, n_total) tallies in template order:
    one per independently run experiment in per-space mode, or all three
    from one table (``CyclicTable.equal_tallies``) in single-space mode.
    The single-space form satisfies the bound identically, since the
    equal-count between two columns of one table is a Hamming distance
    and distances obey the triangle inequality.
    """
    tallies = [(int(ne), int(nt)) for ne, nt in tallies]
    if len(tallies) != 3:
        raise ValueError("need equal/different tallies for exactly three setting pairs")
    if mode == "simulated-single-space":
        totals = {nt for _, nt in tallies}
        if len(totals) != 1:
            raise ValueError(f"single-space tallies must share one total, got {sorted(totals)}")
    for ne, nt in tallies:
        if nt < 1 or not 0 <= ne <= nt:
            raise ValueError(f"bad equal-count tally ({ne}, {nt})")

    f = [Fraction(ne, nt) for ne, nt in tallies]
    lhs, rhs, violated = _finalize(f[0], f[1] + f[2])
    f_float = [float(fi) for fi in f]
    ses = [math.sqrt(max(0.0, fi * (1.0 - fi)) / nt) for fi, (_, nt) in zip(f_float, tallies)]
    simulated = mode.startswith("simulated")
    return InequalityReport(
        name="wigner",
        lhs=lhs,
        rhs=rhs,
        violated=violated,
        mode=mode,
        inputs=(("n[x,y]", tallies[0]), ("n[x,z]", tallies[1]), ("n[z,y]", tallies[2])),
        lhs_std_error=ses[0] if simulated else 0.0,
        rhs_std_error=math.hypot(ses[1], ses[2]) if simulated else 0.0,
    )


@dataclass(frozen=True)
class CyclicTable:
    """Single-space concatenation: columns A(a), A(b), A(c) on one draw per row."""

    s_a: np.ndarray
    s_b: np.ndarray
    s_c: np.ndarray

    def __len__(self) -> int:
        return len(self.s_a)

    def pair_expectations(self) -> tuple[Fraction, Fraction, Fraction]:
        """Row-averaged pair products (E_ab, E_ac, E_bc) as exact rationals.

        The cyclic construction saturates the three-pair bound exactly
        (every row has zero slack), so downstream comparisons must not
        depend on float rounding; exact values keep ties ties.
        """
        n = len(self)
        sa = self.s_a.astype(np.int64)
        e_ab = Fraction(-int(np.sum(sa * self.s_b)), n)
        e_ac = Fraction(-int(np.sum(sa * self.s_c)), n)
        e_bc = Fraction(-int(np.sum(self.s_b.astype(np.int64) * self.s_c)), n)
        return e_ab, e_ac, e_bc

    def equal_tallies(self) -> list[EqualCounts]:
        """Equal-outcome tallies for column pairs (a,b), (a,c), (c,b), in that order.

        Measured pair outcomes are (A(x), -A(y)), so a pair registers
        "equal" exactly when the two assignment columns differ.
        """
        n = len(self)
        return [(int(np.count_nonzero(x != y)), n)
                for x, y in ((self.s_a, self.s_b), (self.s_a, self.s_c), (self.s_c, self.s_b))]


def cyclic_concatenate(
    events: PairStream,
    key: GaugeKey,
    settings: Sequence[Setting],
) -> CyclicTable:
    """Evaluate all three settings on the SAME lam and t per event.

    This is the one-probability-space shortcut: A(a) is the left outcome,
    A(b) and A(c) are sign-flipped right outcomes computed with the same
    gauge. Two columns of a row determine the sign of the third pairwise
    product; the product of the three pair products is always -1.
    """
    a, b, c = settings
    for x, y in ((a, b), (a, c), (b, c)):
        if x.close_to(y):
            raise ValueError("the three settings must be pairwise distinct")
    if len(events) == 0:
        raise ValueError("no events to concatenate")
    g, (a_b, a_c) = outcome_columns(events.lam, events.t, key, (b, c))
    return CyclicTable(s_a=g, s_b=a_b, s_c=a_c)


@dataclass(frozen=True)
class OracleRow:
    assignment: tuple[int, int, int]
    lhs: int
    rhs: int
    satisfied: bool


def cyclic_oracle() -> list[OracleRow]:
    """Exhaustive proof table: every sign assignment satisfies the three-pair bound.

    For a single assignment the per-row pair products ARE the
    expectations, so the eight cases cover everything a single-space
    dataset can average over; all eight satisfy with exact integer
    arithmetic.
    """
    rows = []
    for s_a in (1, -1):
        for s_b in (1, -1):
            for s_c in (1, -1):
                # simulated pair products; B = -A flips each sign
                p_ab, p_ac, p_bc = -s_a * s_b, -s_a * s_c, -s_b * s_c
                lhs = abs(p_ab - p_ac)
                rhs = 1 + p_bc
                rows.append(OracleRow((s_a, s_b, s_c), lhs, rhs, lhs <= rhs))
    return rows
