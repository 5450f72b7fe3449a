"""Brute-force ground truth for b*x[n+1] = a*x[n] + f[n] (mod m).

Everything here works by direct enumeration over Z_m (no splitting, no
closed forms), so it can serve as an independent check of the solver. A
length-N prefix is constrained only by the transitions n = 0..N-2; callers
who want to compare counts against the infinite problem must cut the
unpinned tail themselves (the solver knows how deep it is).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .modring import ModulusMismatch, Residue
from .problem import ProblemSpec


class BudgetExceeded(RuntimeError):
    """The enumeration state budget ran out."""

    def __init__(self, budget: int):
        super().__init__(f"exceeded the enumeration budget of {budget} states")
        self.budget = budget


@dataclass(frozen=True)
class PrefixSet:
    """All constraint-satisfying prefixes x[0..horizon-1], as canonical value tuples."""

    horizon: int
    modulus: int
    sequences: frozenset[tuple[int, ...]]


def brute_force_prefixes(
    spec: ProblemSpec,
    horizon: int,
    y0: Residue | None = None,
    budget: int = 10_000_000,
) -> PrefixSet:
    """Every solution prefix of the given length, built level by level.

    Level k+1 extends each valid prefix x[0..k-1] by every x with b*x = a*x[k-1] + f[k-1].
    Each valid partial prefix costs one unit of budget, charged before its level
    is built; the successor table scans Z_m, so m itself must fit in the budget.
    BudgetExceeded is raised rather than a partial answer returned. Needs forcing
    terms f[0..horizon-2], all read before the first level is extended.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    m, a, b = spec.m, spec.a, spec.b
    if y0 is not None and y0.modulus != m:
        raise ModulusMismatch(f"initial value {y0} is not a residue mod {m}")
    if m > budget:
        raise BudgetExceeded(budget)
    # successor table: children[r] lists all x with b*x == r (mod m), ascending
    children: list[list[int]] = [[] for _ in range(m)]
    for x in range(m):
        children[b * x % m].append(x)
    f = [spec.forcing.term(n).value for n in range(horizon - 1)]
    level = [(y0.value,)] if y0 is not None else [(x,) for x in range(m)]
    visited = len(level)
    for fk in f:
        succ = [children[(a * p[-1] + fk) % m] for p in level]
        visited += sum(map(len, succ))
        if visited > budget:
            raise BudgetExceeded(budget)
        level = [p + (x,) for p, xs in zip(level, succ) for x in xs]
    return PrefixSet(horizon, m, frozenset(level))


def truncated_prefix_count(pfx: PrefixSet, cut: int) -> int:
    """Number of distinct prefixes after dropping the last `cut` positions."""
    if not 0 <= cut < pfx.horizon:
        raise ValueError(f"cut must lie in [0, {pfx.horizon}), got {cut}")
    keep = pfx.horizon - cut
    return len({seq[:keep] for seq in pfx.sequences})


def verify_solution(
    spec: ProblemSpec,
    seq: Sequence[Residue],
    y0: Residue | None = None,
) -> tuple[bool, int | None]:
    """Check a candidate against every transition (and the pinned start, if any).

    Returns (True, None) or (False, first failing index); a start-value
    mismatch reports index 0. Sequences of length < 2 impose no transition
    constraints.
    """
    m = spec.m
    for r in seq:
        if r.modulus != m:
            raise ModulusMismatch(f"candidate mixes moduli: expected {m}, got {r}")
    if y0 is not None and len(seq) > 0 and seq[0].value != y0.value % m:
        return False, 0
    for n in range(len(seq) - 1):
        lhs = (spec.b * seq[n + 1].value) % m
        rhs = (spec.a * seq[n].value + spec.forcing.term(n).value) % m
        if lhs != rhs:
            return False, n
    return True, None
