"""PBE synthesizer for fixed-width bitvector functions.

Finds per-example terminal expressions by size-ordered enumeration with
signature pruning, then unifies them into a decision tree of enumerated
if0 conditions.
"""

from .semantics import App, BitVecValue, Const, Expr, OPERATORS, Var, eval_expr, expr_to_sexpr
from .semantics import signature_of
from .frontend import Example, Grammar, Problem, emit_solution, parse_problem
from .enumeration import EnumerationState, SearchLimits
from .solver import RunStats, SolveResult, solve_problem

__all__ = [
    "App",
    "BitVecValue",
    "Const",
    "EnumerationState",
    "Example",
    "Expr",
    "Grammar",
    "OPERATORS",
    "Problem",
    "RunStats",
    "SearchLimits",
    "SolveResult",
    "Var",
    "emit_solution",
    "eval_expr",
    "expr_to_sexpr",
    "parse_problem",
    "signature_of",
    "solve_problem",
]
