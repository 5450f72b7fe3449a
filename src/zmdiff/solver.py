"""Classification and closed-form solution of b*x[n+1] = a*x[n] + f[n] over Z_m.

The split of Z_m by b separates the equation into an invertible-b part
(solvable forward and backward from any start value) and a nilpotent-b part
(one forced value per index, read off a finite window of future forcing
terms). Everything else is bookkeeping, derived once per (m, a, b), in one
pass, in a Shape that every forcing shares: dividing through by d = gcd(a, b, m)
gives an equation mod m/d that splits the same way, and the information lost
by the division comes back as one free lift digit per index.

Structure and the verdicts take and hold plain ints; a Residue start enters only
through classify_initial_problem and solve_initial_problem, which check its modulus.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce

from .crt import CrtIso, SplitModuli, coprime_split, crt_iso
from .modring import ModulusMismatch, Residue, index_of_nilpotency, nilpotency_index
from .problem import (
    InsufficientData,
    InvalidLiftDigit,
    ProblemSpec,
    SequenceSpec,
    first_nondivisible_index,
    read_terms,
)


class InsufficientLookahead(LookupError):
    """The nilpotent part at index n needs forcing terms past the support."""

    def __init__(self, index: int, window: int):
        super().__init__(
            f"value at index {index} needs forcing terms {index}..{index + window - 1}, "
            "which run past the provided support"
        )
        self.index = index
        self.window = window


@dataclass(frozen=True)
class SplitProblem:
    """The two component equations of a problem under the split of m by b."""

    iso: CrtIso
    a1: Residue
    b1: Residue
    f1: SequenceSpec
    a2: Residue
    b2: Residue
    f2: SequenceSpec
    ind_b2: int | None  # nilpotency index of b2; None when the m2 side is trivial


def split_problem(spec: ProblemSpec) -> SplitProblem:
    """Project the coefficients and the forcing of an equation onto both sides of its split by b."""
    sh = shape(spec.m, spec.a, spec.b)

    def side(modulus: int) -> tuple[Residue, Residue, SequenceSpec]:
        f = SequenceSpec(spec.forcing.terms, modulus, spec.forcing.period)
        return Residue(spec.a, modulus), Residue(spec.b, modulus), f

    return SplitProblem(crt_iso(sh.split), *side(sh.split.m1), *side(sh.split.m2), sh.ind_b2)


def explicit_solution(a1: Residue, b1: Residue, x10: Residue, f1: SequenceSpec, n: int) -> Residue:
    """Index-n value of the invertible-b recursion started at x10.

    x[n] = (b1^-1 a1)^n x10 + sum_{s=0}^{n-1} a1^s b1^-(s+1) f1[n-1-s];
    at n == 0 this is x10 itself.
    """
    if n < 0:
        raise ValueError(f"index must be non-negative, got {n}")
    binv = b1.inverse()
    acc = (binv**n) * (a1**n) * x10
    for s in range(n):
        acc = acc + (a1**s) * (binv ** (s + 1)) * f1.term(n - 1 - s)
    return acc


def nilpotent_solution(a2: Residue, b2: Residue, f2: SequenceSpec, n: int) -> Residue:
    """The single index-n value the nilpotent-b recursion admits.

    x[n] = -sum_{s=0}^{ind-1} a2^-(s+1) b2^s f2[n+s]; the whole sequence is
    forced, no initial value participates.
    """
    if n < 0:
        raise ValueError(f"index must be non-negative, got {n}")
    ind = nilpotency_index(b2)
    ainv = a2.inverse()
    acc = Residue(0, a2.modulus)
    for s in range(ind):
        try:
            t = f2.term(n + s)
        except InsufficientData:
            raise InsufficientLookahead(n, ind) from None
        acc = acc + (ainv ** (s + 1)) * (b2**s) * t
    return -acc


@dataclass(frozen=True)
class Classification:
    """Solution-set verdict for the free equation (no pinned start).

    kind is "none" (witness_index set), "finite" (count == m1 distinct
    solutions) or "infinite" (d, m1_prime set). support_qualified marks a
    divisibility check that rested on a finite aperiodic prefix.
    """

    kind: str
    count: int | None = None
    d: int | None = None
    m1_prime: int | None = None
    witness_index: int | None = None
    support_qualified: bool = False


@dataclass(frozen=True)
class InitialClassification:
    """Verdict for the pinned problem x[0] = y0.

    kind is "unique", "infinitely_many" or "none"; for "none", reason is
    "divisibility" (witness_index set) or "compatibility" (the ints required
    and actual set, both reduced mod condition_modulus = m2'). support_qualified
    marks an "infinitely_many" whose divisibility check rested on a finite
    aperiodic prefix.
    """

    kind: str
    reason: str | None = None
    witness_index: int | None = None
    required: int | None = None
    actual: int | None = None
    condition_modulus: int | None = None
    support_qualified: bool = False


def refusal(verdict: Classification | InitialClassification) -> str:
    """Why a problem whose verdict is "none" has no solution."""
    if getattr(verdict, "reason", None) == "compatibility":
        return (
            f"no solution: start value must be {verdict.required} "
            f"(mod {verdict.condition_modulus}), got {verdict.actual}"
        )
    return f"no solution: forcing term {verdict.witness_index} is not divisible by d"


@dataclass(frozen=True)
class GeneralSolution:
    """Every solution of a (solvable) problem, as an evaluator over free parameters.

    values(length, x10, alpha) returns x[0..length-1] as ints, where x10 ranges
    over [0, free_initial_modulus) and alpha[i] supplies the lift digit for index i
    (missing digits default to 0; each must lie in [0, d), and a digit pinned by an
    initial condition then overrides it); value(n, ...) and sequence(length, ...)
    return Residues, the only ones built here. All read Structure.window, started at
    x10 plus the pinned start residue mod m1', and add alpha[n]*m' for the indices that
    alpha gives or an initial condition fixes. Evaluating index n consumes forcing terms up
    through n + lookahead. A window costs one step per value, and value(n) steps n times in
    memory that does not grow with n; the nilpotent side they read is derived once per problem.
    """

    kind: str  # "explicit" | "nilpotent" | "mixed" | "lifted"
    modulus: int
    free_initial_modulus: int
    lift_digit_bound: int
    lookahead: int
    fixed_digits: tuple[tuple[int, int], ...]
    _structure: Structure = field(repr=False)
    _pin: int = field(repr=False)  # the pinned start residue mod m1'; 0 when free

    def value(self, n: int, x10: int = 0, alpha: Sequence[int] = ()) -> Residue:
        if n < 0:
            raise ValueError(f"index must be non-negative, got {n}")
        return Residue(self._window(n, 1, x10, alpha)[0], self.modulus)

    def sequence(self, length: int, x10: int = 0, alpha: Sequence[int] = ()) -> list[Residue]:
        return [Residue(x, self.modulus) for x in self.values(length, x10, alpha)]

    def values(self, length: int, x10: int = 0, alpha: Sequence[int] = ()) -> list[int]:
        return self._window(0, length, x10, alpha) if length > 0 else []

    def _window(self, start: int, length: int, x10: int, alpha: Sequence[int]) -> list[int]:
        """x[start..start+length-1]; of the errors along it, the one at the lowest index wins."""
        if not 0 <= x10 < self.free_initial_modulus:
            raise ValueError(f"free initial residue {x10} not in [0, {self.free_initial_modulus})")
        xs, error = self._structure.window(start, length, x10 + self._pin)
        sh = self._structure.shape
        if sh.d > 1 or any(alpha[start : start + len(xs)]):
            fixed = dict(self.fixed_digits)
            for n in range(start, min(start + len(xs), max(len(alpha), len(self.fixed_digits)))):
                digit = alpha[n] if n < len(alpha) else 0
                if not 0 <= digit < sh.d:
                    raise InvalidLiftDigit(f"lift digit {digit} at index {n} not in [0, {sh.d})")
                xs[n - start] += fixed.get(n, digit) * sh.psplit.m
        if error is not None:
            raise error
        return xs


@dataclass(frozen=True, slots=True)
class Shape:
    """What (m, a, b) alone decide, all derived at once by shape(): d = gcd(a, b, m), m split by b
    (split), m' = m/d split by b' = b/d (psplit, the same object when d == 1), each by one gcd
    (crt.coprime_split), the nilpotency indices ind of b mod m2 and ind' of b' mod m2' (None on
    a trivial side), kind and kernel.

    A length-N constrained prefix leaves its last truncation = ind' positions partially free
    (none with a trivial nilpotent side): constraints n = 0..N-2 force the nilpotent-side
    value at n only when the whole window n..n+ind'-1 fits, so that many are cut before
    prefix counts are compared with the infinite problem's solution-set cardinalities. The
    evaluator reads lookahead = ind' - 1 forcing terms past index n. Its kernel holds a' = a/d,
    b', b'^-1 mod m1', a'^-1 mod m2' and the CRT units u1, u2; pow(x, -1, 1) == 0 zeroes a
    trivial side."""

    d: int
    split: SplitModuli
    psplit: SplitModuli
    ind_b2: int | None
    ind_b2_prime: int | None
    truncation: int
    lookahead: int
    kind: str  # "explicit" | "nilpotent" | "mixed" | "lifted"
    kernel: tuple[int, int, int, int, int, int]


@lru_cache(maxsize=256)  # the 203 cells up to m = 8; a sweep tries one cell's forcings in a row
def shape(m: int, a: int, b: int) -> Shape:
    """The Shape of b*x[n+1] = a*x[n] + f[n] (mod m) for a, b reduced mod m; m is never factored."""
    d = math.gcd(a, b, m)
    split = coprime_split(m, b)
    ind = index_of_nilpotency(b, split.m2) if split.m2 != 1 else None
    psplit, ind_p = split, ind  # b/d == b when d == 1
    if d > 1:
        psplit = coprime_split(m // d, b // d)
        ind_p = index_of_nilpotency(b // d, psplit.m2) if psplit.m2 != 1 else None
    kind = ("lifted" if d > 1 else "explicit" if split.m2 == 1
            else "nilpotent" if split.m1 == 1 else "mixed")
    m1, m2, a, b = psplit.m1, psplit.m2, a // d, b // d
    kernel = (a, b, pow(b, -1, m1), pow(a, -1, m2), m2 * pow(m2, -1, m1), m1 * pow(m1, -1, m2))
    return Shape(d, split, psplit, ind, ind_p, ind_p or 0, (ind_p or 1) - 1, kind, kernel)


@dataclass(frozen=True)
class Structure:
    """One problem: its Shape, which alone answers (m, a, b) questions and is shared with
    every forcing, and the first index whose forcing term d does not divide (the witness)."""

    spec: ProblemSpec
    shape: Shape
    witness: int | None

    def window(self, start: int, length: int, x10: int) -> tuple[list[int], LookupError | None]:
        """x'[start..start+length-1] mod m' of the equation divided by d, started at x10 mod m1'.

        Needs length >= 1 and no witness (its callers check). The m1' side steps
        x[k+1] = b'^-1 (a' x[k] + f'[k]) forward from x10, in constant memory before
        start, and the CRT units join it to nilpotent_side, read with the forcing's
        period; a side with modulus 1 is neither stepped nor read. f'[k] = f[k] / d
        (f itself at d == 1). On an aperiodic support the values stop before the first
        index that reads past it, and that index's error comes back with them:
        InsufficientData from the m1' side or when m' == 1, otherwise InsufficientLookahead.
        """
        sh = self.shape
        a, _, binv, _, u1, u2 = sh.kernel
        m1, m2, mp, ind = sh.psplit.m1, sh.psplit.m2, sh.psplit.m, sh.truncation
        forcing, d = self.spec.forcing, sh.d
        size, p = len(forcing.terms), forcing.period
        stop, error = start + length, None
        if p is None:
            # index n rests on f[0..n-1] and f'[n..n+ind'-1], so it needs n <= len(f) - ind'
            if size + 1 - ind < stop:
                stop = max(size + 1 - ind, start)
                error = (InsufficientData(size) if stop > size and (m1 > 1 or mp == 1)
                         else InsufficientLookahead(stop, ind))
        if stop == start:
            return [], error
        if m2 > 1:
            out = read_terms(self.nilpotent_side, p, start, stop)
            if m1 == 1:  # x' is the m2' side alone
                return out, error
        f = forcing.values(start, stop - 1)
        if d > 1:
            f = [v // d for v in f]
        # step the m1' side to start, 4096 terms at a time; a trivial m1' side is 0 throughout
        head = (fk for lo in range(0, start if m1 > 1 else 0, 4096)
                for fk in forcing.values(lo, min(lo + 4096, start)))
        x1 = reduce(lambda x, fk: binv * (a * x + fk // d) % m1, head, x10 % m1)
        if m2 == 1:  # x' is the m1' side alone
            out = [x1]
            for fk in f:
                x1 = binv * (a * x1 + fk) % m1
                out.append(x1)
            return out, error
        out[0] = (u1 * x1 + u2 * out[0]) % mp
        for j, fk in enumerate(f, 1):
            x1 = binv * (a * x1 + fk) % m1
            out[j] = (u1 * x1 + u2 * out[j]) % mp
        return out, error

    @cached_property
    def nilpotent_side(self) -> tuple[int, ...]:
        """x2'[0..] mod m2', the one sequence the nilpotent side admits: len(f) values under a
        period p, from len(f) - p on repeating with p as f' does (x2'[k] sums f'[k..k+ind'-1]
        alone), and without one the len(f) + 1 - ind' that the support decides. It steps
        x[k] = a'^-1 (b' x[k+1] - f'[k]) back from 0 at ind' past the last value kept:
        (a'^-1 b')^ind' = 0 mod m2' drops that 0. Needs m2' > 1 and no witness."""
        sh, forcing = self.shape, self.spec.forcing
        _, b, _, ainv, _, _ = sh.kernel
        m2, ind, size = sh.psplit.m2, sh.truncation, len(forcing.terms)
        f = forcing.values(0, size + ind - 1) if forcing.period else forcing.terms
        out, x2 = [0] * len(f), 0
        for j in range(len(f) - 1, -1, -1):
            x2 = out[j] = ainv * (b * x2 - f[j] // sh.d) % m2
        return tuple(out[: size if forcing.period else max(size + 1 - ind, 0)])

    @cached_property
    def compatibility(self) -> int | None:
        """The start value mod m2' that the nilpotent side forces; None at a witness, where no
        start solves, and None when that side is trivial.

        Raises InsufficientLookahead when the forcing support is too short to decide it.
        """
        if self.witness is not None or self.shape.psplit.m2 == 1:
            return None
        if self.nilpotent_side:
            return self.nilpotent_side[0]
        raise InsufficientLookahead(0, self.shape.truncation)

    def classify(self) -> Classification:
        if self.witness is not None:
            return Classification("none", witness_index=self.witness)
        if self.shape.d == 1:
            return Classification("finite", count=self.shape.split.m1)
        return Classification(
            "infinite",
            d=self.shape.d,
            m1_prime=self.shape.psplit.m1,
            support_qualified=self.spec.forcing.period is None,
        )

    def classify_initial(self, y0: int) -> InitialClassification:
        """The verdict on x[0] = y0, for y0 in [0, m)."""
        if self.witness is not None:
            return InitialClassification(
                "none", reason="divisibility", witness_index=self.witness
            )
        kind = "unique" if self.shape.d == 1 else "infinitely_many"
        qualified = self.shape.d > 1 and self.spec.forcing.period is None
        required, m2 = self.compatibility, self.shape.psplit.m2
        if required is None or y0 % m2 == required:
            return InitialClassification(kind, support_qualified=qualified)
        return InitialClassification(
            "none", reason="compatibility", required=required, actual=y0 % m2, condition_modulus=m2
        )

    def solution(self, y0: int | None = None) -> GeneralSolution:
        """Every solution, free or pinned at x[0] = y0 in [0, m); ValueError when there are none.

        A pinned solution starts window at y0 mod m1' and, when d > 1,
        pins the lift digit alpha[0] = y0 // m'.
        """
        verdict = self.classify() if y0 is None else self.classify_initial(y0)
        if verdict.kind == "none":
            raise ValueError(refusal(verdict))
        sh = self.shape
        m1, mp = sh.psplit.m1, sh.psplit.m
        fixed = ((0, y0 // mp),) if y0 is not None and sh.d > 1 else ()
        free, pin = (m1, 0) if y0 is None else (1, y0 % m1)
        return GeneralSolution(sh.kind, self.spec.m, free, sh.d, sh.lookahead, fixed, self, pin)


def structure(spec: ProblemSpec) -> Structure:
    """The cached shape of (m, a, b) and the divisibility witness of f."""
    sh = shape(spec.m, spec.a, spec.b)
    return Structure(spec, sh, first_nondivisible_index(spec.forcing, sh.d))


def classify_equation(spec: ProblemSpec) -> Classification:
    return structure(spec).classify()


def classify_initial_problem(spec: ProblemSpec, y0: Residue) -> InitialClassification:
    if y0.modulus != spec.m:
        raise ModulusMismatch(f"initial value {y0} is not a residue mod {spec.m}")
    return structure(spec).classify_initial(y0.value)


def general_solution(spec: ProblemSpec) -> GeneralSolution:
    """Every solution of the free equation; raises ValueError if there are none."""
    return structure(spec).solution()


def solve_initial_problem(spec: ProblemSpec, y0: Residue) -> GeneralSolution:
    """Every solution pinned at x[0] = y0; raises ValueError when there are none."""
    if y0.modulus != spec.m:
        raise ModulusMismatch(f"initial value {y0} is not a residue mod {spec.m}")
    return structure(spec).solution(y0.value)


def truncation_depth(spec: ProblemSpec) -> int:
    """See Shape for what the truncation cuts."""
    return shape(spec.m, spec.a, spec.b).truncation
