"""Exact arithmetic in residue class rings Z_s.

Residues are kept canonical (0 <= value < modulus) at all times. Z_1 is
supported as the null ring: it has the single element 0, which serves as
both the zero and the unit, and inverts to itself.
"""

from __future__ import annotations

import math
from collections import Counter
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


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
FACTOR_LIMIT = 318665857834031151167461  # the least strong pseudoprime to all these bases


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the bases _SMALL_PRIMES; exact for odd 37 < n < FACTOR_LIMIT."""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 == q * 2**s with q odd
    for base in _SMALL_PRIMES:
        x = pow(base, (n - 1) >> s, n)
        if x != 1 and all(pow(x, 1 << r, n) != n - 1 for r in range(s)):
            return False
    return True


def _rho(n: int) -> int:
    """A proper factor of the odd composite n: Pollard's rho with Brent's cycle finding."""
    for c in range(1, n):
        y, r, g = 2, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
                if (g := math.gcd(x - y, n)) != 1:
                    break
            r *= 2
        if g != n:
            return g


def _prime_factors(n: int) -> list[int]:
    """The primes of n with multiplicity, in no particular order."""
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return [p, *_prime_factors(n // p)]
    if n < 41 * 41 or _is_prime(n):  # n has no prime factor up to 37
        return [n] if n > 1 else []
    g = _rho(n)
    return _prime_factors(g) + _prime_factors(n // g)


@lru_cache(maxsize=64)
def factorize(n: int) -> Factorization:
    """Factor 1 <= n < FACTOR_LIMIT; Factorization(1, ()) for n == 1.

    Divides out the primes up to 37, then splits the rest by Pollard's rho with
    Brent's cycle finding (BIT 20, 1980) until every part passes Miller-Rabin
    to those bases, exact below FACTOR_LIMIT ~ 3.187e23 (Sorenson & Webster,
    Math. Comp. 86, 2017); past it this raises ValueError, as no answer could
    be proven. Sub-millisecond for n <= 2**32. No command calls it: the
    solver splits m by one gcd (crt.coprime_split), which needs no prime.
    """
    if not 1 <= n < FACTOR_LIMIT:
        raise ValueError(f"can only factor integers in [1, {FACTOR_LIMIT}), got {n}")
    return Factorization(n, tuple(sorted(Counter(_prime_factors(n)).items())))


def nilpotency_index(x: Residue) -> int:
    """Least k >= 1 with x**k == 0, by iterated multiplication on plain ints.

    For a nilpotent element the index never exceeds log2(modulus), so the
    search is cut off after bit_length(modulus) steps.
    """
    power, m = x.value, x.modulus
    for k in range(1, m.bit_length() + 1):
        if power == 0:
            return k
        power = power * x.value % m
    raise NotNilpotent(f"{x} is not nilpotent")
