"""Exact arithmetic in residue class rings Z_s.

Residues are kept canonical (0 <= value < modulus) at all times. Z_1 is
supported as the null ring: it has the single element 0, which serves as
both the zero and the unit, and inverts to itself.
"""

from __future__ import annotations

import itertools
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


@lru_cache(maxsize=4096)
def factorize(n: int) -> Factorization:
    """Factor a positive integer by trial division; Factorization(1, ()) for n == 1.

    Cached: sweeps refactor the same moduli millions of times. Intended for
    moduli up to about 2**32; beyond that trial division gets slow.
    """
    if n < 1:
        raise ValueError(f"can only factor positive integers, got {n}")
    rest = n
    out: list[tuple[int, int]] = []
    for p in itertools.chain((2,), itertools.count(3, 2)):
        if p * p > rest:
            break
        k = 0
        while rest % p == 0:
            rest //= p
            k += 1
        if k:
            out.append((p, k))
    if rest > 1:
        out.append((rest, 1))
    return Factorization(n, tuple(out))


def nilpotency_index(x: Residue) -> int:
    """Least k >= 1 with x**k == 0, by iterated multiplication.

    For a nilpotent element the index never exceeds log2(modulus), so the
    search is cut off after bit_length(modulus) steps.
    """
    power = x
    for k in range(1, x.modulus.bit_length() + 1):
        if power.value == 0:
            return k
        power = power * x
    raise NotNilpotent(f"{x} is not nilpotent")
