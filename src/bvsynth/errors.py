"""Exception types shared across the solver.

Two families matter for the CLI exit-code contract: ``ProblemFormatError``
(malformed or out-of-scope input, exit 2) and ``SynthesisFailure`` (the
search gave up or could not produce a consistent program, exit 1).
"""

from __future__ import annotations


class BvSynthError(Exception):
    """Base class for every error this package raises deliberately."""


class UnboundVariable(BvSynthError):
    def __init__(self, name: str):
        super().__init__(f"unbound variable: {name}")
        self.name = name


class WidthMismatch(BvSynthError):
    """Mixed bitvector widths inside one evaluation; a construction bug."""


class ProblemFormatError(BvSynthError):
    """The input file is malformed or outside this solver's scope."""


class SygusSyntaxError(ProblemFormatError):
    """``at`` names the node the error is on, as ``(parent, index)`` or ``(list, None)``; the
    frontend adds its ``offset`` and 1-based ``line`` and ``col`` before the error leaves it."""

    def __init__(self, message: str, line=None, col=None, offset=None, at=None):
        loc = f" at {line}:{col}" if line is not None else ""
        super().__init__(f"{message}{loc}")
        self.message, self.line, self.col, self.offset, self.at = message, line, col, offset, at


class UnsupportedArity(ProblemFormatError):
    """The synthesized function must be unary."""


class MissingIf0Rule(ProblemFormatError):
    """The grammar must contain a production named if0."""


class InconsistentExamples(ProblemFormatError):
    """Two examples share inputs but disagree on the output."""


class NotPBE(ProblemFormatError):
    """A constraint is not a concrete input/output example."""


class SynthesisFailure(BvSynthError):
    """The two-phase search could not complete."""


class NotFound(SynthesisFailure):
    """A size or candidate budget ran out before any candidate was accepted."""


class Exhausted(SynthesisFailure):
    """The pruned language is finite and was fully enumerated."""


class TimeoutExceeded(SynthesisFailure):
    """The wall-clock budget ran out."""


class UnsolvableExample(SynthesisFailure):
    """Example ``index`` has no terminal; ``__cause__`` is the end of the stream."""

    def __init__(self, index: int, detail: str):
        super().__init__(f"no terminal expression found for example {index}: {detail}")
        self.index = index


class UnunifiablePair(SynthesisFailure):
    """No condition separates ``a`` and ``b``; ``__cause__`` is the end of the stream."""

    def __init__(self, a: int, b: int, detail: str):
        super().__init__(f"no condition separates examples {a} and {b}: {detail}")
        self.a = a
        self.b = b


class GrammarViolation(SynthesisFailure):
    """The assembled solution is not derivable from the grammar."""


class VerificationFailed(SynthesisFailure):
    def __init__(self, index: int):
        super().__init__(f"solution disagrees with example {index}")
        self.index = index
