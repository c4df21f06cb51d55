"""Exception hierarchy shared by all modules.

Three families matter for callers (and map to CLI exit codes): bad input
(``DomainError``, exit 2), an enumeration over the budget of ``check_budget``
(``TermBudgetError``, exit 3), and violations of exactness guarantees that
can only mean an arithmetic bug (``ArithmeticBugError``, exit 1).
"""

from __future__ import annotations

import math
import sys

DEFAULT_TERM_BUDGET = 200_000


def decimal_str(value: int) -> str:
    """An integer in decimal, in full however many digits it has.

    Python's int-to-str digit limit is lifted for this conversion only, so
    that it still refuses over-long integers in config and points files.
    """
    try:
        return str(int(value))
    except ValueError:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(int(value))
        finally:
            sys.set_int_max_str_digits(limit)


class ThetaCalcError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ThetaCalcError, ValueError):
    """Input outside the mathematical domain of an operation."""


class DivisibilityError(DomainError):
    def __init__(self, divisor: int, dividend: int):
        self.divisor = divisor
        self.dividend = dividend
        super().__init__(f"divisibility: {divisor} does not divide {dividend}")


class LatticeMismatchError(DomainError):
    def __init__(self, message: str = "classes live in different lattices"):
        super().__init__(message)


class DegenerateConfigError(DomainError):
    """Point configuration with coincident points."""


class NuTooWeakError(DomainError):
    def __init__(self, nu: int):
        self.nu = nu
        super().__init__(
            f"nu too weak: nu = {nu} >= -1 does not exclude higher cohomology"
        )


class TermBudgetError(ThetaCalcError):
    def __init__(self, n: int, k: int, terms: int, budget: int):
        self.terms = terms
        self.budget = budget
        super().__init__(f"term budget exceeded: C({n},{k}) = {decimal_str(terms)} > {budget}")


def check_budget(n: int, k: int, term_budget: int) -> None:
    """Refuse C(n, k) terms above the budget; an out-of-range (n, k) is left to the domain check."""
    if 0 <= k <= n:
        terms = math.comb(n, k)
        if terms > term_budget:
            raise TermBudgetError(n, k, terms, term_budget)


class ArithmeticBugError(ThetaCalcError):
    """An exactness guarantee failed; indicates a bug, not bad input."""


class NotRationalError(ArithmeticBugError):
    def __init__(self, order: int, index: int):
        self.order = order
        self.index = index
        super().__init__(
            f"not rational: non-zero coefficient at index {index} (order {order})"
        )


class NotIntegralError(ArithmeticBugError):
    def __init__(self, value):
        self.value = value
        super().__init__(f"not integral: {value}")
