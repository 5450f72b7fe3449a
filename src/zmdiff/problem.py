"""Problem data for b*x[n+1] = a*x[n] + f[n] (mod m).

A forcing sequence is a finite prefix plus an optional eventual period;
with a period the sequence is totally defined, without one any question
about unseen indices is only decidable "on the provided support".
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import cycle, islice

from .modring import InvalidModulus, ModulusMismatch, Residue


class InsufficientData(LookupError):
    """A forcing term beyond the provided support was requested."""

    def __init__(self, index: int):
        super().__init__(f"forcing term at index {index} is beyond the provided support")
        self.index = index


class NonDivisibleForcing(ValueError):
    """gcd reduction requires d | f[n]; some term fails."""

    def __init__(self, witness: int):
        super().__init__(f"forcing term at index {witness} is not divisible by the gcd")
        self.witness = witness


class InvalidLiftDigit(ValueError):
    """A lift digit fell outside {0, ..., d-1}."""


@dataclass(frozen=True)
class SequenceSpec:
    """Forcing terms f[0..N-1] as canonical ints mod modulus; if period p is set,
    f[n+p] == f[n] for n >= N-p. Only term() wraps a term in a Residue."""

    terms: tuple[int, ...]
    modulus: int
    period: int | None = None

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("a forcing sequence needs at least one term")
        if not isinstance(self.modulus, int) or self.modulus < 1:
            raise InvalidModulus(f"modulus must be a positive integer, got {self.modulus!r}")
        object.__setattr__(self, "terms", tuple(t % self.modulus for t in self.terms))
        if self.period is not None and not 1 <= self.period <= len(self.terms):
            raise ValueError(f"period must lie in [1, {len(self.terms)}], got {self.period}")

    @classmethod
    def from_ints(cls, values: Sequence[int], modulus: int, period: int | None = None) -> SequenceSpec:
        return cls(tuple(values), modulus, period)

    def term(self, n: int) -> Residue:
        return Residue(self.values(n, n + 1)[0], self.modulus)

    def values(self, lo: int, hi: int) -> list[int]:
        """f[lo..hi-1]; past an aperiodic support, InsufficientData at its first missing index."""
        if lo < 0:
            raise ValueError(f"forcing index must be non-negative, got {lo}")
        return read_terms(self.terms, self.period, lo, hi)


def read_terms(terms: tuple[int, ...], period: int | None, lo: int, hi: int) -> list[int]:
    """s[lo..hi-1] for lo >= 0, where s is terms continued, under a period p, by s[n+p] == s[n]
    for n >= len(terms) - p; with no period, InsufficientData at the first index past terms."""
    size = len(terms)
    if hi <= lo:
        return []
    if hi <= size:
        return list(terms[lo:hi])
    k = max(lo, size)
    if period is None:
        raise InsufficientData(k)
    # past the prefix, rotate its final period window once to the phase of k and cycle it
    start = size - period
    phase = start + (k - start) % period
    out = list(terms[lo:size])
    out.extend(islice(cycle(terms[phase:] + terms[start:phase]), hi - k))
    return out


@dataclass(frozen=True)
class ProblemSpec:
    """One equation b*x[n+1] = a*x[n] + f[n] over Z_m; a, b stored canonically."""

    m: int
    a: int
    b: int
    forcing: SequenceSpec

    def __post_init__(self) -> None:
        if self.m < 2:
            raise InvalidModulus(f"equation modulus must be >= 2, got {self.m}")
        if self.forcing.modulus != self.m:
            raise ModulusMismatch(
                f"forcing lives mod {self.forcing.modulus}, equation mod {self.m}"
            )
        object.__setattr__(self, "a", self.a % self.m)
        object.__setattr__(self, "b", self.b % self.m)

    @property
    def d(self) -> int:
        return math.gcd(self.a, self.b, self.m)


@dataclass(frozen=True)
class ReducedSpec:
    """The gcd-reduced equation over Z_{m/d}: (b/d)*x[n+1] = (a/d)*x[n] + f[n]/d.

    The reduced modulus may be 1 (the null ring) when d == m.
    """

    d: int
    m: int
    a: int
    b: int
    forcing: SequenceSpec


def first_nondivisible_index(forcing: SequenceSpec, d: int) -> int | None:
    """First prefix index whose term is not a multiple of d.

    Scanning the prefix decides all indices when the sequence is periodic,
    since extension values repeat prefix values.
    """
    if d == 1:
        return None
    return next((n for n, t in enumerate(forcing.terms) if t % d), None)


def reduce_by_gcd(spec: ProblemSpec) -> ReducedSpec:
    """Divide the whole equation by d = gcd(a, b, m).

    Requires d | f[n] on the decidable support; raises NonDivisibleForcing
    with the first failing index otherwise. For d == 1 this is an isomorphic
    restatement of the input.
    """
    d = spec.d
    witness = first_nondivisible_index(spec.forcing, d)
    if witness is not None:
        raise NonDivisibleForcing(witness)
    mp = spec.m // d
    forcing = SequenceSpec(tuple(t // d for t in spec.forcing.terms), mp, spec.forcing.period)
    return ReducedSpec(d, mp, spec.a // d, spec.b // d, forcing)

