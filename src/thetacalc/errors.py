"""Exception hierarchy shared by all modules.

Three families matter for callers: bad input (``DomainError``), an
enumeration over the budget of ``check_budget`` (``TermBudgetError``), and
violations of exactness guarantees that can only mean an arithmetic bug
(``ArithmeticBugError``).  Each class carries its CLI exit code as
``exit_code``: 2, 3 and 1 in turn, and 1 for any other ``ThetaCalcError``.
"""

import math
import sys

DEFAULT_TERM_BUDGET = 200_000


def decimal_str(value: int) -> str:
    """An integer in decimal, in full however many digits it has.

    Python's int-to-str digit limit is lifted for this conversion only, so
    that ``decimal_int`` still refuses over-long integers read from files.
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


def decimal_int(text: str) -> int:
    """int() of an integer from a file or the command line, or of either side of a "p/q".

    Over Python's int digit limit, if any, DomainError in 3.11's words under
    every version.  Only decimal digits count, as int() counts them in any
    text it reads: no sign, blank or "_".
    """
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0 where there is none (< 3.10.7)
    digits = sum(map(str.isdecimal, text))
    if 0 < limit < digits:
        raise DomainError(
            f"Exceeds the limit ({limit} digits) for integer string conversion: value has "
            f"{digits} digits; use sys.set_int_max_str_digits() to increase the limit"
        )
    return int(text)


class ThetaCalcError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class DomainError(ThetaCalcError, ValueError):
    """Input outside the mathematical domain of an operation."""

    exit_code = 2


class DivisibilityError(DomainError):
    """A divisibility that an operation requires fails."""


class LatticeMismatchError(DomainError):
    """Classes of different lattices combined."""


class DegenerateConfigError(DomainError):
    """Point configuration with coincident points."""


class NuTooWeakError(DomainError):
    """A theta exponent nu too weak to exclude higher cohomology."""


# A refusal prints C(n,k) in full while it has at most this many digits.
COUNT_DIGITS = 10_000


class TermBudgetError(ThetaCalcError):
    """C(n, k) terms, each of `weight` items, over the budget.

    With k' = min(k, n-k), C(n, k') >= (n/k')^k', so k' log10(n/k') bounds
    the digit count from below before anything big is computed (math.log10
    takes ints of any size, where lgamma needs a float).  Under the limit
    C(n, k') <= (e n/k')^k' and n/k' >= 2 leave at most 2.5 times as many
    digits, so the exact count is cheap.
    """

    exit_code = 3

    def __init__(self, n: int, k: int, budget: int, weight: int = 1):
        terms = f"C({decimal_str(n)},{decimal_str(k)})"
        if weight != 1:
            terms = f"{decimal_str(weight)} x {terms}"
        small = min(k, n - k)
        if not small or small * (math.log10(n) - math.log10(small)) <= COUNT_DIGITS:
            count = math.comb(n, small)
            if count < 10**COUNT_DIGITS:
                terms += f" = {decimal_str(weight * count)}"
        super().__init__(f"term budget exceeded: {terms} > {decimal_str(budget)}")


def check_budget(n: int, k: int, term_budget: int, weight: int = 1) -> None:
    """Refuse C(n, k) terms of `weight` items each above the budget.

    An out-of-range (n, k) is left to the domain check.  The running product
    t_i = C(n-k'+i, i) = t_(i-1) (n-k'+i) / i, for k' = min(k, n-k), is exact
    at every step (also times weight >= 1) and grows to C(n, k), so it stops
    once it passes the budget: after at most log2(budget) + 1 products, since
    t_i >= C(2i, i) >= 2^i.
    """
    if 0 <= k <= n:
        small = min(k, n - k)
        terms = weight
        for i in range(1, small + 1):
            if terms > term_budget:
                break
            terms = terms * (n - small + i) // i
        if terms > term_budget:
            raise TermBudgetError(n, k, term_budget, weight)


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
    def __init__(self, num: int, den: int):
        from fractions import Fraction  # only when the check fails, so queries do not load it
        self.value = Fraction(num, den)
        super().__init__(f"not integral: {self.value}")
