"""Classification and closed-form solution of b*x[n+1] = a*x[n] + f[n] over Z_m.

The split of Z_m by b separates the equation into an invertible-b part
(solvable forward and backward from any start value) and a nilpotent-b part
(one forced value per index, read off a finite window of future forcing
terms). Everything else is bookkeeping, derived once per problem in a
Structure: dividing through by d = gcd(a, b, m) gives an equation mod m/d
that splits the same way, and the information lost by the division comes
back as one free lift digit per index.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import cached_property

from .crt import CrtIso, SplitModuli, combine, crt_iso, split_modulus
from .modring import ModulusMismatch, Residue, factorize, nilpotency_index
from .problem import (
    InsufficientData,
    InvalidLiftDigit,
    ProblemSpec,
    ReducedSpec,
    SequenceSpec,
    first_nondivisible_index,
    reduce_by_gcd,
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


def _components(
    problem: ProblemSpec | ReducedSpec, split: SplitModuli, ind_b2: int | None
) -> SplitProblem:
    """Project the coefficients and the forcing of an equation onto both sides of a split."""

    def side(modulus: int) -> tuple[Residue, Residue, SequenceSpec]:
        terms = tuple(Residue(t.value, modulus) for t in problem.forcing.terms)
        return (
            Residue(problem.a, modulus),
            Residue(problem.b, modulus),
            SequenceSpec(terms, problem.forcing.period),
        )

    return SplitProblem(crt_iso(split), *side(split.m1), *side(split.m2), ind_b2)


def split_problem(spec: ProblemSpec) -> SplitProblem:
    st = structure(spec)
    return _components(spec, st.split, st.ind_b2)


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


def compatibility_residue(sp: SplitProblem) -> Residue:
    """The only start value (mod m2) consistent with the nilpotent part."""
    if sp.iso.split.m2 == 1:
        raise ValueError("the nilpotent side is trivial; every start value is consistent")
    return nilpotent_solution(sp.a2, sp.b2, sp.f2, 0)


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
    "divisibility" (witness_index set) or "compatibility" (required/actual
    set, both over the relevant nilpotent-side modulus).
    """

    kind: str
    reason: str | None = None
    witness_index: int | None = None
    required: Residue | None = None
    actual: Residue | None = None


def refusal(verdict: Classification | InitialClassification) -> str:
    """Why a problem whose verdict is "none" has no solution."""
    if getattr(verdict, "reason", None) == "compatibility":
        return (
            f"no solution: start value must be {verdict.required.value} "
            f"(mod {verdict.required.modulus}), got {verdict.actual.value}"
        )
    return f"no solution: forcing term {verdict.witness_index} is not divisible by d"


DigitLookup = Callable[[int], int]


@dataclass(frozen=True)
class GeneralSolution:
    """Every solution of a (solvable) problem, as an evaluator over free parameters.

    value(n, x10, alpha) returns x[n] mod modulus, where x10 ranges over
    [0, free_initial_modulus) and alpha[i] supplies the lift digit for index
    i (missing digits default to 0; digits pinned by an initial condition
    override the caller's). Evaluating index n consumes forcing terms up
    through n + lookahead.
    """

    kind: str  # "explicit" | "nilpotent" | "mixed" | "lifted"
    modulus: int
    free_initial_modulus: int
    lift_digit_bound: int
    lookahead: int
    fixed_digits: tuple[tuple[int, int], ...]
    _value_fn: Callable[[int, int, DigitLookup], Residue] = field(repr=False)

    def value(self, n: int, x10: int = 0, alpha: Sequence[int] = ()) -> Residue:
        if n < 0:
            raise ValueError(f"index must be non-negative, got {n}")
        if not 0 <= x10 < self.free_initial_modulus:
            raise ValueError(
                f"free initial residue {x10} not in [0, {self.free_initial_modulus})"
            )
        pinned = dict(self.fixed_digits)
        bound = self.lift_digit_bound

        def digit_at(i: int) -> int:
            if i in pinned:
                return pinned[i]
            digit = alpha[i] if i < len(alpha) else 0
            if not 0 <= digit < bound:
                raise InvalidLiftDigit(f"lift digit {digit} at index {i} not in [0, {bound})")
            return digit

        return self._value_fn(n, x10, digit_at)

    def sequence(self, length: int, x10: int = 0, alpha: Sequence[int] = ()) -> list[Residue]:
        return [self.value(n, x10, alpha) for n in range(length)]


@dataclass(frozen=True)
class Structure:
    """The split and gcd-reduction data of one problem, which every verdict reads.

    d = gcd(a, b, m); split is m split by b; psplit is m' = m/d split by
    b/d, the same object as split when d == 1. witness is the first prefix
    index whose forcing term d does not divide. The nilpotency indices, the
    reduced component equations and the compatibility residue are derived
    on first use, so a caller that needs only the split never pays for them.
    """

    spec: ProblemSpec
    d: int
    split: SplitModuli
    psplit: SplitModuli
    witness: int | None

    @cached_property
    def ind_b2(self) -> int | None:
        """Nilpotency index of b mod m2; None when the m2 side is trivial."""
        m2 = self.split.m2
        return nilpotency_index(Residue(self.spec.b, m2)) if m2 != 1 else None

    @cached_property
    def ind_b2_prime(self) -> int | None:
        """Nilpotency index of b/d mod m2'; None when the m2' side is trivial."""
        m2 = self.psplit.m2
        return nilpotency_index(Residue(self.spec.b // self.d, m2)) if m2 != 1 else None

    @property
    def truncation(self) -> int:
        """Trailing positions of a length-N constrained prefix left unpinned.

        Constraints n = 0..N-2 force the nilpotent-side value at position n
        only when the whole window n..n+ind'-1 fits, so the last ind'
        positions stay partially free; with a trivial nilpotent side nothing
        is free. This is the right amount to cut before comparing prefix
        counts against the solution-set cardinalities of the infinite problem.
        """
        return self.ind_b2_prime or 0

    @property
    def lookahead(self) -> int:
        """How many forcing terms past index n the evaluator reads."""
        return max(self.truncation - 1, 0)

    @property
    def kind(self) -> str:
        if self.d > 1:
            return "lifted"
        if self.psplit.m2 == 1:
            return "explicit"
        return "nilpotent" if self.psplit.m1 == 1 else "mixed"

    @cached_property
    def parts(self) -> SplitProblem:
        """The component equations of the problem divided by d; needs witness None."""
        reduced = self.spec if self.d == 1 else reduce_by_gcd(self.spec)
        return _components(reduced, self.psplit, self.ind_b2_prime)

    @cached_property
    def compatibility(self) -> Residue | None:
        """The start value mod m2' that the nilpotent side forces; None when that side is trivial.

        Needs witness None. Raises InsufficientLookahead when the forcing
        support is too short to decide it.
        """
        return compatibility_residue(self.parts) if self.psplit.m2 != 1 else None

    def classify(self) -> Classification:
        if self.witness is not None:
            return Classification("none", witness_index=self.witness)
        if self.d == 1:
            return Classification("finite", count=self.split.m1)
        return Classification(
            "infinite",
            d=self.d,
            m1_prime=self.psplit.m1,
            support_qualified=self.spec.forcing.period is None,
        )

    def classify_initial(self, y0: Residue) -> InitialClassification:
        if y0.modulus != self.spec.m:
            raise ModulusMismatch(f"initial value {y0} is not a residue mod {self.spec.m}")
        if self.witness is not None:
            return InitialClassification(
                "none", reason="divisibility", witness_index=self.witness
            )
        kind = "unique" if self.d == 1 else "infinitely_many"
        required = self.compatibility
        if required is None or y0.value % required.modulus == required.value:
            return InitialClassification(kind)
        actual = Residue(y0.value, required.modulus)
        return InitialClassification(
            "none", reason="compatibility", required=required, actual=actual
        )

    def solution(self, y0: Residue | None = None) -> GeneralSolution:
        """Every solution, free or pinned at x[0] = y0; raises ValueError when there are none.

        x[n] is the CRT of the explicit side mod m1' and the nilpotent side
        mod m2', skipping a side of modulus 1, plus alpha[n]*m' when d > 1.
        """
        verdict = self.classify() if y0 is None else self.classify_initial(y0)
        if verdict.kind == "none":
            raise ValueError(refusal(verdict))
        split, sp, m, d = self.psplit, self.parts, self.spec.m, self.d
        zero = Residue(0, 1)
        # a pinned solution is evaluated at x10 == 0; its start residue mod m1' stands in
        pin = 0 if y0 is None else y0.value % split.m1

        def value_fn(n: int, x10: int, digit_at: DigitLookup) -> Residue:
            x1 = zero
            if split.m1 > 1:
                x1 = explicit_solution(sp.a1, sp.b1, Residue(x10 + pin, split.m1), sp.f1, n)
            x2 = nilpotent_solution(sp.a2, sp.b2, sp.f2, n) if split.m2 > 1 else zero
            x = combine(sp.iso, x1, x2)
            return Residue(x.value + digit_at(n) * split.m, m) if d > 1 else x

        fixed = ((0, y0.value // split.m),) if y0 is not None and d > 1 else ()
        free = split.m1 if y0 is None else 1
        return GeneralSolution(self.kind, m, free, d, self.lookahead, fixed, value_fn)


def structure(spec: ProblemSpec) -> Structure:
    """Derive the split of m by b, the gcd d and the split of m/d by b/d."""
    d = spec.d
    split = split_modulus(factorize(spec.m), spec.b)
    psplit = split if d == 1 else split_modulus(factorize(spec.m // d), spec.b // d)
    return Structure(spec, d, split, psplit, first_nondivisible_index(spec.forcing, d))


def classify_equation(spec: ProblemSpec) -> Classification:
    return structure(spec).classify()


def classify_initial_problem(spec: ProblemSpec, y0: Residue) -> InitialClassification:
    return structure(spec).classify_initial(y0)


def general_solution(spec: ProblemSpec) -> GeneralSolution:
    """Every solution of the free equation; raises ValueError if there are none."""
    return structure(spec).solution()


def solve_initial_problem(spec: ProblemSpec, y0: Residue) -> GeneralSolution:
    """Every solution pinned at x[0] = y0; raises ValueError when there are none."""
    return structure(spec).solution(y0)


def truncation_depth(spec: ProblemSpec) -> int:
    """See Structure.truncation."""
    return structure(spec).truncation
