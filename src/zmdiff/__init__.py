"""Exact tools for implicit linear difference equations over Z_m.

Classify, solve in closed form, enumerate, and brute-force-check equations
b*x[n+1] = a*x[n] + f[n] (mod m), with or without a pinned start value.
"""

from .modring import InvalidModulus, ModulusMismatch, Residue
from .oracle import BudgetExceeded, brute_force_prefixes, verify_solution
from .problem import InsufficientData, InvalidLiftDigit, ProblemSpec, SequenceSpec
from .solver import (
    Classification,
    GeneralSolution,
    InitialClassification,
    InsufficientLookahead,
    classify_equation,
    classify_initial_problem,
    general_solution,
    solve_initial_problem,
)

__all__ = [
    "BudgetExceeded",
    "Classification",
    "GeneralSolution",
    "InitialClassification",
    "InsufficientData",
    "InsufficientLookahead",
    "InvalidLiftDigit",
    "InvalidModulus",
    "ModulusMismatch",
    "ProblemSpec",
    "Residue",
    "SequenceSpec",
    "brute_force_prefixes",
    "classify_equation",
    "classify_initial_problem",
    "general_solution",
    "solve_initial_problem",
    "verify_solution",
]

__version__ = "0.1.0"
