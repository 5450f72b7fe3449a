"""Plain-int arithmetic the benchmark checks zmdiff's answers against.

Nothing here imports zmdiff. The split, the nilpotency index and the counts
are worked out from their definitions with math.gcd and pow, and every
document comes with a solution built first, so that the start condition
and the pinned verdicts are known without solving anything.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass


def coprime_part(m: int, b: int) -> int:
    """m1: m with every prime that divides b divided out, by repeated gcd."""
    g = math.gcd(m, b)
    while g > 1:
        m //= g
        g = math.gcd(m, b)
    return m


def nil_index(b: int, m2: int) -> int:
    """Least k >= 1 with b**k == 0 (mod m2)."""
    k, power = 1, b % m2
    while power:
        k += 1
        power = power * b % m2
        if k > m2.bit_length():
            raise ValueError(f"{b} is not nilpotent mod {m2}")
    return k


@dataclass(frozen=True)
class Structure:
    """The split data of b*x[n+1] = a*x[n] + f[n] (mod m) and of its gcd reduction."""

    d: int
    m1: int
    m2: int
    ind: int | None
    mp: int
    m1p: int
    m2p: int
    indp: int | None

    @property
    def kind(self) -> str:
        """The solution kind zmdiff names for this problem."""
        if self.d > 1:
            return "lifted"
        if self.m2 == 1:
            return "explicit"
        return "nilpotent" if self.m1 == 1 else "mixed"

    @property
    def lookahead(self) -> int:
        """Forcing terms past index n that the value at n depends on."""
        ind = self.ind if self.d == 1 else self.indp
        return ind - 1 if ind is not None else 0

    @property
    def truncation(self) -> int:
        """Trailing positions of a constrained prefix that stay partly free."""
        ind = self.ind if self.d == 1 else self.indp
        return ind or 0


def structure(m: int, a: int, b: int) -> Structure:
    d = math.gcd(a, b, m)
    m1 = coprime_part(m, b)
    m2 = m // m1
    mp = m // d
    m1p = coprime_part(mp, b // d)
    m2p = mp // m1p
    ind = nil_index(b, m2) if m2 > 1 else None
    indp = nil_index(b // d, m2p) if m2p > 1 else None
    return Structure(d, m1, m2, ind, mp, m1p, m2p, indp)


def term(f: list[int], period: int | None, n: int) -> int:
    """f[n], with the eventual period folded in."""
    if n < len(f):
        return f[n]
    if period is None:
        raise IndexError(f"f[{n}] is beyond the given support")
    start = len(f) - period
    return f[start + (n - start) % period]


def first_violation(doc: dict, xs: list[int]) -> int | None:
    """First n with b*x[n+1] != a*x[n] + f[n] (mod m), or None."""
    m, a, b, f, period = doc["m"], doc["a"], doc["b"], doc["f"], doc.get("f_period")
    for n in range(len(xs) - 1):
        if (b * xs[n + 1] - a * xs[n] - term(f, period, n)) % m:
            return n
    return None


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in small:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for p in small:
        x = pow(p, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        n = rng.randrange(lo, hi) | 1
        if is_prime(n):
            return n


def unit(rng: random.Random, m: int) -> int:
    """A random residue coprime to m, other than 0 and 1 where m > 2."""
    if m <= 2:
        return 1
    while True:
        v = rng.randrange(2, m)
        if math.gcd(v, m) == 1:
            return v


def at(pre: tuple[int, ...], cycle: tuple[int, ...], n: int) -> int:
    """Index n of the sequence pre followed by cycle repeated."""
    return pre[n] if n < len(pre) else cycle[(n - len(pre)) % len(cycle)]


@dataclass(frozen=True)
class Problem:
    """A document together with one solution x of it, built before the document."""

    doc: dict
    pre: tuple[int, ...]
    cycle: tuple[int, ...]
    st: Structure
    witness: int | None = None  # first forcing index not divisible by d, if any

    def x(self, n: int) -> int:
        return at(self.pre, self.cycle, n)

    def compatibility(self) -> dict | None:
        """The start condition zmdiff reports: x[0] over m2 (d == 1) or m2' (d > 1)."""
        st = self.st
        if self.witness is not None:
            return None
        cm = st.m2 if st.d == 1 else st.m2p
        if cm == 1:
            return None
        return {"modulus": cm, "required": self.x(0) % cm}


def build(rng: random.Random, m: int, a: int, b: int, d: int = 1, periodic: bool = True) -> Problem:
    """Document for b*x[n+1] = a*x[n] + f[n] over Z_(d*m), d*a, d*b.

    A solution x of the reduced equation over Z_m is drawn first, a random
    prefix followed by a random cycle, and f is read off it, so f has the
    same eventual period; multiplying through by d keeps x a solution.
    """
    pre = tuple(rng.randrange(m) for _ in range(rng.randrange(0, 3)))
    cycle = tuple(rng.randrange(m) for _ in range(rng.randrange(2, 6)))
    f = [d * ((b * at(pre, cycle, n + 1) - a * at(pre, cycle, n)) % m)
         for n in range(len(pre) + len(cycle))]
    doc = {"m": d * m, "a": d * a, "b": d * b, "f": f}
    if periodic:
        doc["f_period"] = len(cycle)
    return Problem(doc, pre, cycle, structure(d * m, d * a, d * b))


def with_witness(p: Problem, rng: random.Random, k: int | None = None) -> Problem:
    """The same problem with forcing term k (random by default) made indivisible by d > 1."""
    f = list(p.doc["f"])
    if k is None:
        k = rng.randrange(len(f))
    f[k] = (f[k] + 1) % p.doc["m"]
    return Problem(dict(p.doc, f=f), p.pre, p.cycle, p.st, witness=k)
