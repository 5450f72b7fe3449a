"""Brute-force ground truth for b*x[n+1] = a*x[n] + f[n] (mod m).

Everything here works by enumeration or by counting paths, with no closed
forms and none of the solver's splitting, so it can serve as an independent
check of the solver; count_prefixes splits Z_m only by the prime powers of m, from
modring.prime_powers (the one trial division) under the budget. A length-N prefix is
constrained only by the transitions n = 0..N-2, so its last positions are not yet
pinned by the infinite problem; count_prefixes drops that tail when told its depth
(the solver knows how deep it is). verify_solution checks a candidate of plain ints.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import compress, cycle, repeat
from operator import itemgetter, mul

from .modring import ModulusMismatch, Residue, prime_powers
from .problem import InsufficientData, ProblemSpec

DEFAULT_BUDGET = 10_000_000


class BudgetExceeded(RuntimeError):
    """The oracle's budget ran out; unit names what one unit of it pays for."""

    def __init__(self, budget: int, unit: str = "(position, residue) states"):
        super().__init__(f"exceeded the oracle budget of {budget} {unit}")
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
    budget: int = DEFAULT_BUDGET,
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
        raise BudgetExceeded(budget, "partial prefixes")
    # successor table: children[r] lists all x with b*x == r (mod m), ascending
    children: list[list[int]] = [[] for _ in range(m)]
    for x in range(m):
        children[b * x % m].append(x)
    f = spec.forcing.values(0, horizon - 1)
    level = [(y0.value,)] if y0 is not None else [(x,) for x in range(m)]
    visited = len(level)
    for fk in f:
        succ = [children[(a * p[-1] + fk) % m] for p in level]
        visited += sum(map(len, succ))
        if visited > budget:
            raise BudgetExceeded(budget, "partial prefixes")
        level = [p + (x,) for p, xs in zip(level, succ) for x in xs]
    return PrefixSet(horizon, m, frozenset(level))


def count_prefixes(
    spec: ProblemSpec,
    horizon: int,
    cut: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> tuple[int, Iterator[int]]:
    """(count, starts): how many distinct prefixes x[0..horizon-cut-1] extend to a
    solution prefix of length `horizon`, and the ascending x[0] of those full prefixes, lazily.

    By the ring CRT, Z_m is the product of Z_q over the prime powers q || m, and a
    prefix over Z_m is one prefix over each Z_q, cut alike: the count is the product
    of the per-factor counts, and x starts a prefix when every x mod q does. Per
    factor, one backward pass (the transfer-matrix method): v[x] counts the ways on
    from x at position k, clamped to 0/1 at position horizon-cut-1 so that earlier
    positions count kept paths, not completions. Each (position, residue mod q)
    state costs one unit of budget; sum(q) must fit before anything is allocated,
    so prime_powers, given the budget as its limit, tries at most min(sqrt(m), budget).
    Needs f[0..horizon-2], read in full only once sum(q) * horizon fits the budget;
    a short support is reported before that.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if not 0 <= cut < horizon:
        raise ValueError(f"cut must lie in [0, {horizon}), got {cut}")
    a, b = spec.a, spec.b
    powers = prime_powers(spec.m, budget)
    if powers is None:
        raise BudgetExceeded(budget)
    qs = [p**k for p, k in powers]
    # a short aperiodic support raises here; this reads at most len(f) + 1 terms
    spec.forcing.values(0, min(horizon - 1, len(spec.forcing.terms) + 1))
    if sum(qs) * horizon > budget:
        raise BudgetExceeded(budget)
    f = spec.forcing.values(0, horizon - 1)
    count, joined = 1, repeat(1)
    for q in qs:
        bx = [b * x % q for x in range(q)]
        gather = itemgetter(*[a * x % q for x in range(q)])
        v = [1] * q
        for k in reversed(range(horizon - 1)):
            s = [0] * q
            for t, c in zip(bx, v):
                s[t] += c
            v = gather(s[f[k] % q:] + s[:f[k] % q])  # v[x] = s[(a*x + f[k]) % q]
            if k == horizon - cut - 1:
                v = [1 if c else 0 for c in v]
        count *= sum(v)
        # x mod q runs through 0..q-1 over and over as x runs up Z_m
        joined = map(mul, joined, cycle(v))
    return count, compress(range(spec.m), joined)


def verify_solution(
    spec: ProblemSpec,
    xs: Sequence[int],
    y0: int | None = None,
) -> tuple[bool, int | None]:
    """Check a candidate x[0..], ints in [0, m), against every transition (and
    the pinned start y0 mod m, if any).

    Returns (True, None) or (False, first failing index); a start-value
    mismatch reports index 0, a value outside [0, m) raises ModulusMismatch.
    Sequences of length < 2 impose no transition constraints. A candidate
    longer than an aperiodic support raises InsufficientData, but only once
    every transition the support covers holds.
    """
    m = spec.m
    if xs and not 0 <= min(xs) <= max(xs) < m:
        n, x = next((n, x) for n, x in enumerate(xs) if not 0 <= x < m)
        raise ModulusMismatch(f"candidate value x[{n}] = {x} is not a residue in [0, {m})")
    if y0 is not None and xs and xs[0] != y0 % m:
        return False, 0
    try:
        f, short = spec.forcing.values(0, len(xs) - 1), None
    except InsufficientData as exc:  # the transitions the support covers are checked first
        f, short = spec.forcing.values(0, exc.index), exc
    for n, fn in enumerate(f):
        if (spec.b * xs[n + 1] - spec.a * xs[n] - fn) % m:
            return False, n
    if short is not None:
        raise short
    return True, None
