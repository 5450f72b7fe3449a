"""Coprime two-way splitting of Z_m driven by one distinguished element.

Z_m factors as Z_m1 x Z_m2 where m2 collects exactly the prime powers of m
whose prime divides b, and m1 the rest. Modulo m1 the element b is a unit;
modulo m2 it is nilpotent. b == 0 sends everything to the m2 side. The split
takes one gcd; m is never factored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .modring import Factorization, ModulusMismatch, Residue


@dataclass(frozen=True, slots=True)
class SplitModuli:
    """m == m1 * m2 with gcd(m1, m2) == 1."""

    m: int
    m1: int
    m2: int


def coprime_split(m: int, b: int) -> SplitModuli:
    """Split m by b: p**k || m has k <= log2(m), so b**bit_length(m) holds every p**k with p | b."""
    m2 = math.gcd(m, pow(b, m.bit_length(), m))
    return SplitModuli(m, m // m2, m2)


def split_modulus(fact_m: Factorization, b: int) -> SplitModuli:
    """coprime_split of fact_m.n by b; the prime powers themselves are not read."""
    return coprime_split(fact_m.n, b)


@dataclass(frozen=True)
class CrtIso:
    """Recombination data for the split: e1 = inverse of m2 mod m1, e2 = inverse of m1 mod m2.

    Either helper is 0 when its side is the null ring (pow(x, -1, 1) == 0); combine
    degenerates to the identity embedding then.
    """

    split: SplitModuli
    e1: int
    e2: int


def crt_iso(split: SplitModuli) -> CrtIso:
    return CrtIso(split, pow(split.m2, -1, split.m1), pow(split.m1, -1, split.m2))


def project(x: Residue, target: int, split: SplitModuli) -> Residue:
    """Image of x mod m in component 1 or 2 of the split."""
    if x.modulus != split.m:
        raise ModulusMismatch(f"expected a residue mod {split.m}, got {x}")
    if target == 1:
        return Residue(x.value, split.m1)
    if target == 2:
        return Residue(x.value, split.m2)
    raise ValueError(f"target component must be 1 or 2, got {target}")


def combine(iso: CrtIso, t1: Residue, t2: Residue) -> Residue:
    """The unique x mod m with x == t1 (mod m1) and x == t2 (mod m2)."""
    sp = iso.split
    if t1.modulus != sp.m1 or t2.modulus != sp.m2:
        raise ModulusMismatch(
            f"expected residues mod {sp.m1} and mod {sp.m2}, got {t1} and {t2}"
        )
    return Residue(t1.value * iso.e1 * sp.m2 + t2.value * iso.e2 * sp.m1, sp.m)
