"""Exact arithmetic in residue class rings Z_s.

Residues are kept canonical (0 <= value < modulus) at all times. Z_1 is
supported as the null ring: it has the single element 0, which serves as
both the zero and the unit, and inverts to itself.

prime_powers is the package's one trial division; its limit caps the sum of
the prime powers it returns, and so the divisors it tries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache


class InvalidModulus(ValueError):
    """Modulus outside the supported domain."""


class ModulusMismatch(ValueError):
    """Residues from different rings were combined."""


class NotInvertible(ArithmeticError):
    """Element has no multiplicative inverse in its ring."""


class NotNilpotent(ArithmeticError):
    """Nilpotency index requested for a non-nilpotent element."""


@dataclass(frozen=True)
class Residue:
    """A canonical element [value] of Z_modulus.

    Any integer representative is accepted and reduced, so
    Residue(-75, 9) == Residue(6, 9).
    """

    value: int
    modulus: int

    def __post_init__(self) -> None:
        if not isinstance(self.modulus, int) or self.modulus < 1:
            raise InvalidModulus(f"modulus must be a positive integer, got {self.modulus!r}")
        object.__setattr__(self, "value", self.value % self.modulus)

    def _check_ring(self, other: Residue) -> None:
        if self.modulus != other.modulus:
            raise ModulusMismatch(
                f"cannot combine residues mod {self.modulus} and mod {other.modulus}"
            )

    def __add__(self, other: Residue) -> Residue:
        if not isinstance(other, Residue):
            return NotImplemented
        self._check_ring(other)
        return Residue(self.value + other.value, self.modulus)

    def __sub__(self, other: Residue) -> Residue:
        if not isinstance(other, Residue):
            return NotImplemented
        self._check_ring(other)
        return Residue(self.value - other.value, self.modulus)

    def __mul__(self, other: Residue) -> Residue:
        if not isinstance(other, Residue):
            return NotImplemented
        self._check_ring(other)
        return Residue(self.value * other.value, self.modulus)

    def __neg__(self) -> Residue:
        return Residue(-self.value, self.modulus)

    def __pow__(self, exponent: int) -> Residue:
        """Non-negative integer powers; x**0 is the ring unit (0 in Z_1)."""
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            raise ValueError("negative exponent; take inverse() first")
        return Residue(pow(self.value, exponent, self.modulus), self.modulus)

    def inverse(self) -> Residue:
        """Multiplicative inverse; 0 inverts to 0 in Z_1."""
        try:
            return Residue(pow(self.value, -1, self.modulus), self.modulus)
        except ValueError:
            g = math.gcd(self.value, self.modulus)
            raise NotInvertible(f"{self} is not invertible (gcd {g})") from None

    def __str__(self) -> str:
        return f"[{self.value}]_{self.modulus}"


@dataclass(frozen=True)
class Factorization:
    """Prime-power decomposition n == prod(p**k), primes strictly increasing."""

    n: int
    factors: tuple[tuple[int, int], ...]


FACTOR_LIMIT = 2**32 + 1  # factorize's domain ends at the CLI's largest modulus, 2**32


def prime_powers(n: int, limit: int) -> list[tuple[int, int]] | None:
    """The (p, k) with p**k || n >= 1, primes ascending, by trial division; None once
    sum(p**k) would pass limit, so it tries at most min(sqrt(n), limit) divisors."""
    out, total, p = [], 0, 2
    while n > 1 and total + p <= limit:  # every factor of n left is at least p
        k = 0
        while n % p == 0:
            n, k = n // p, k + 1
        if k:
            out.append((p, k))
            total += p**k
        p = n if p * p > n else p + 1 + (p > 2)  # past sqrt(n), what is left is prime
    return out if n == 1 and total <= limit else None


@lru_cache(maxsize=64)
def factorize(n: int) -> Factorization:
    """Factor 1 <= n < FACTOR_LIMIT by prime_powers(n, n), which never refuses, as
    coprime prime powers sum to at most their product; some 2**15 divisions at worst,
    on a prime near 2**32. No command calls it: the solver splits m by one gcd
    (crt.coprime_split), and the oracle calls prime_powers with its budget."""
    if not 1 <= n < FACTOR_LIMIT:
        raise ValueError(f"can only factor integers in [1, {FACTOR_LIMIT}), got {n}")
    return Factorization(n, tuple(prime_powers(n, n)))


def nilpotency_index(x: Residue) -> int:
    """Least k >= 1 with x**k == 0; see index_of_nilpotency."""
    return index_of_nilpotency(x.value, x.modulus)


def index_of_nilpotency(value: int, m: int) -> int:
    """Least k >= 1 with value**k == 0 (mod m), by iterated multiplication on plain ints; a
    nilpotent element's index is at most log2(m), so the search stops after bit_length(m) steps."""
    power = value % m
    for k in range(1, m.bit_length() + 1):
        if power == 0:
            return k
        power = power * value % m
    raise NotNilpotent(f"[{value % m}]_{m} is not nilpotent")
