"""Duality pairings on exterior and symmetric powers, with a point oracle.

The wedge pairing sends a k-subset basis vector e_S and an (n-k)-subset
basis vector e_T to the coefficient of e_{1..n} in e_S ^ e_T: zero unless
T is the complement of S, and then the sign of the shuffle permutation
merging S and T.  The resulting matrix is a signed permutation, hence the
pairing is a perfect duality between the k-th and (n-k)-th exterior powers.

The point oracle models an n-dimensional space of sections as bivariate
monomials over exact rationals.  For point sets Z (k points) and W (n-k
points) the theta locus "some section vanishes on all of Z union W" is
detected by the vanishing of the wedge pairing of the wedged evaluation
covectors of Z and W.  By Laplace expansion along the first k rows that
pairing is the n x n evaluation determinant, so it is computed once, by
integer Bareiss elimination over rows with one integer scale per point
(``theta_integer_rows``).  ``wedge_coefficients`` gives the wedge side of
that law as k x k minors.

Subset and monomial indices are frozen so matrices are reproducible
byte-for-byte: subsets in colexicographic order, the numeric order of
their bitmasks (``_colex_masks``), and exponents in descending-lexicographic
order.  A wedge matrix is stored as its signs alone, row i paired with
column C(n,k)-1-i; the Sym^n pairing is diagonal in monomial bases.
"""

import math
import re
import sys
from itertools import accumulate, combinations_with_replacement
from operator import sub

from ._frozen import Frozen
from .errors import DEFAULT_TERM_BUDGET, ArithmeticBugError, DegenerateConfigError, DomainError
from .errors import check_budget, decimal_str

# Only the Fraction adapters over the integer cores (det_exact,
# wedge_coefficients and the _integer_rows they share) import Fraction, so
# that no duality query loads fractions or the decimal and numbers it imports.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction


def _colex_masks(n: int, k: int):
    """The k-subsets of {1..n} as bitmasks (bit j-1 for member j), in colex order.

    Colex order is the numeric order of the masks.  Gosper's step gives the
    next larger mask with k bits: add the lowest set bit, which clears the
    lowest run of ones and sets the bit above it, then put back the rest of
    that run at the bottom.
    """
    if k == 0:
        yield 0
        return
    mask, end = (1 << k) - 1, 1 << n
    while mask < end:
        yield mask
        low = mask & -mask
        ripple = mask + low
        mask = ripple | (((mask ^ ripple) >> 2) // low)


class WedgeMatrix(Frozen):
    """Signed-permutation matrix of the pairing between complementary exterior powers.

    Rows are indexed by k-subsets, columns by (n-k)-subsets, both in colex
    order (``_colex_masks``).  Row i has its unique non-zero entry
    ``signs[i]`` in column size-1-i, the complement of the i-th row subset:
    colex order of subsets is the numeric order of their bitmasks, and the
    complement mask (2^n - 1) - mask reverses that order.
    """

    __slots__ = ("n", "k", "signs")

    @property
    def size(self) -> int:
        return len(self.signs)

    def determinant(self) -> int:
        """Exact determinant: the sign of the reversal times the product of entry signs.

        Reversing N indices takes floor(N/2) transpositions.
        """
        return -1 if (self.size // 2 + self.signs.count(-1)) % 2 else 1


def wedge_duality_matrix(n: int, k: int, *, term_budget: int = DEFAULT_TERM_BUDGET) -> WedgeMatrix:
    """Matrix of e_S (x) e_T -> coefficient of e_{1..n} in e_S ^ e_T.

    The coefficient is the sign of the shuffle (S ascending, T ascending),
    (-1)^(sum(S) - k(k+1)/2): the i-th smallest member s of S jumps over
    s - i members of T.  The signs in colex order are built without
    listing a subset, for the smaller side k' = min(k, n-k).  The
    j-subsets with largest member m are the (j-1)-subsets of {1..m-1}
    followed by m; adding m raises the sum by m and j(j+1)/2 by j, so
    their block is the first C(m-1, j-1) signs of the (j-1)-subsets times
    (-1)^(m-j).  Level j of the loop holds the j-subsets of {1..n-k'+j},
    so there are C(n+1, k') <= 2 C(n, k) signs over all levels.  For
    k > n-k, row i is the complement of row C(n,k)-1-i of the (n-k)-side,
    and swapping the two blocks of a shuffle multiplies its sign by
    (-1)^(k(n-k)).  Over the budget, C(n, k) rows raise TermBudgetError.
    """
    if not 0 <= k <= n:
        raise DomainError(f"need 0 <= k <= n, got k={k}, n={n}")
    check_budget(n, k, term_budget)
    small = min(k, n - k)
    signs = [1]
    for j in range(1, small + 1):
        flipped = [-s for s in signs]
        level = []
        for m in range(j, n - small + j + 1):
            level += (flipped if (m - j) % 2 else signs)[: math.comb(m - 1, j - 1)]
        signs = level
    if small < k:
        signs = [-s for s in reversed(signs)] if k * (n - k) % 2 else signs[::-1]
    return WedgeMatrix(n, k, tuple(signs))


def _integer_rows(rows) -> tuple[list[list[int]], int]:
    """Scale each row by the lcm of its denominators.

    Returns the integer rows and the product of the scales, so that any
    multilinear function of the rows equals its value on the integer rows
    divided by that product.
    """
    from fractions import Fraction
    int_rows = []
    scale = 1
    for row in rows:
        fracs = [Fraction(x) for x in row]
        lcm = math.lcm(*(f.denominator for f in fracs))
        int_rows.append([f.numerator * (lcm // f.denominator) for f in fracs])
        scale *= lcm
    return int_rows, scale


def bareiss_det(rows) -> int:
    """Determinant of a square integer matrix by fraction-free Bareiss elimination.

    Bareiss elimination (Math. Comp. 22, 1968) keeps every entry an
    integer: after step c each remaining entry is a (c+2)-minor of the
    row-swapped matrix, so each update divides exactly by the previous
    pivot.  The cost is O(n^3) integer operations on numbers bounded by
    Hadamard's bound for the determinant.  A remainder in one of those
    divisions is an ArithmeticBugError.
    """
    m = [list(row) for row in rows]
    n = len(m)
    if any(len(row) != n for row in m):
        raise DomainError("determinant requires a square matrix")
    sign = 1
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        top = m[col]
        p = top[col]
        for row in m[col + 1 :]:
            lead = row[col]
            for c in range(col + 1, n):
                value, remainder = divmod(p * row[c] - lead * top[c], prev)
                if remainder:
                    raise ArithmeticBugError(
                        f"Bareiss step {col}: {prev} does not divide an updated entry"
                    )
                row[c] = value
        prev = p
    return sign * prev


def det_exact(rows) -> "Fraction":
    """Determinant over the rationals: ``bareiss_det`` of the rows scaled to integers."""
    from fractions import Fraction
    m, scale = _integer_rows(rows)
    return Fraction(bareiss_det(m), scale)


def wedge_coefficients(vectors, n: int, k: int) -> "tuple[Fraction, ...]":
    """Coefficients over colex k-subsets of the wedge of k covectors in Q^n.

    The coefficient of e_S is the k x k minor of the covectors on the
    columns S: ``bareiss_det`` of the rows scaled once to integers (see
    ``_integer_rows``), over the product of the scales.
    """
    from fractions import Fraction
    if len(vectors) != k:
        raise DomainError(f"expected {k} covectors, got {len(vectors)}")
    if k > n:
        raise DomainError(f"need 0 <= k <= n, got k={k}, n={n}")
    if any(len(vec) != n for vec in vectors):
        raise DomainError(f"covectors must have length {n}")
    rows, scale = _integer_rows(vectors)
    minors = (
        bareiss_det([[row[j] for j in range(n) if mask >> j & 1] for row in rows])
        for mask in _colex_masks(n, k)
    )
    return tuple(Fraction(m, scale) for m in minors)


def reduced(num: int, den: int) -> tuple[int, int]:
    """num/den in lowest terms with a positive denominator."""
    g = math.gcd(num, den)
    if den < 0:
        g = -g
    return num // g, den // g


def ratio_text(num: int, den: int) -> str:
    """A reduced ratio in full, as Fraction prints it: "num" or "num/den"."""
    return decimal_str(num) if den == 1 else f"{decimal_str(num)}/{decimal_str(den)}"


def parse_model(data) -> tuple[tuple[int, int], ...]:
    """Exponent pairs (ex, ey) of the monomials x^ex * y^ey from JSON.

    Each pair must hold two integers, negative (Laurent) exponents
    included; a float, a boolean or a string raises DomainError rather
    than being truncated or read as a number.
    """
    model = []
    for pair in data:
        if not (
            isinstance(pair, (list, tuple))
            and len(pair) == 2
            and all(type(e) is int for e in pair)
        ):
            raise DomainError(f"model entry {pair!r} is not a pair of integer exponents")
        model.append(tuple(pair))
    return tuple(model)


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_points(data) -> tuple[list, list]:
    """The points Z and W of a points file, each a JSON list of points read by parse_ratios."""
    for key in ("Z", "W"):
        if not isinstance(data[key], list):
            raise DomainError(f"{key} is not a list of points")
    return [parse_ratios(p) for p in data["Z"]], [parse_ratios(p) for p in data["W"]]


def parse_ratios(pair) -> tuple[tuple[int, int], tuple[int, int]]:
    """A point from JSON as two reduced (num, den) pairs; each coordinate an integer or "p/q".

    The point must be a list of two coordinates, as a model entry must.
    Nothing else is accepted: exponent and decimal notation would let a
    few characters stand for a number of millions of digits.  A numerator
    or denominator over Python's int digit limit raises DomainError.
    """
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
        raise DomainError(f"point {pair!r} is not a pair of coordinates")
    x, y = pair
    for c in (x, y):
        if isinstance(c, bool) or not (
            isinstance(c, int) or (isinstance(c, str) and _RATIONAL.fullmatch(c))
        ):
            raise DomainError(f"coordinate {c!r} is not an integer or a string 'p/q'")
    return _coordinate(x, pair), _coordinate(y, pair)


def _coordinate(c, pair) -> tuple[int, int]:
    if isinstance(c, int):
        return c, 1
    num, _, den = c.partition("/")
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0 where there is none (< 3.10.7)
    for digits in (num.lstrip("-"), den):
        if 0 < limit < len(digits):  # refused here: int() words it differently in 3.10 and 3.11
            raise DomainError(
                f"Exceeds the limit ({limit} digits) for integer string conversion: value has "
                f"{len(digits)} digits; use sys.set_int_max_str_digits() to increase the limit"
            )
    num, den = int(num), int(den or 1)
    if not den:
        raise DomainError(f"zero denominator in point {pair!r}")
    return reduced(num, den)


def theta_integer_rows(
    z_points, w_points, model, *, term_budget: int = DEFAULT_TERM_BUDGET
) -> tuple[list[list[int]], int]:
    """Integer evaluation rows of Z followed by W, and the product of their scales.

    Each point is a pair of reduced (num, den) coordinates.  Raises
    DomainError unless |Z| + |W| equals the model size or when a point has
    a zero coordinate that a model monomial raises to a negative power, and
    DegenerateConfigError when two points coincide, then TermBudgetError
    before any row is built when C(n, |Z|) exceeds the budget.

    The row of a point (a/b, c/d) is its evaluation covector times
    s = a^-lx b^hx c^-ly d^hy, where lx <= 0 <= hx bound the x exponents
    of the model and ly <= 0 <= hy the y exponents: x^ex y^ey * s is
    a^(ex-lx) b^(hx-ex) c^(ey-ly) d^(hy-ey), an integer.  So a multilinear
    function of the evaluation covectors is its value on these rows
    divided by the product of the s.
    """
    n = len(model)
    points = [*z_points, *w_points]
    if len(points) != n:
        raise DomainError(
            f"|Z| + |W| = {len(points)} must equal the model size {n}"
        )
    if len(set(points)) != n:
        raise DegenerateConfigError("coincident points in the configuration")
    for x, y in points:
        for ex, ey in model:
            if (ex < 0 and not x[0]) or (ey < 0 and not y[0]):
                raise DomainError(
                    f"point ({ratio_text(*x)}, {ratio_text(*y)}) is a pole "
                    f"of the model monomial x^{ex} y^{ey}"
                )
    check_budget(n, len(z_points), term_budget)
    xs = [ex for ex, _ in model] + [0]
    ys = [ey for _, ey in model] + [0]
    lx, hx, ly, hy = min(xs), max(xs), min(ys), max(ys)
    rows = []
    scale = 1
    for (a, b), (c, d) in points:
        rows.append(
            [a ** (ex - lx) * b ** (hx - ex) * c ** (ey - ly) * d ** (hy - ey) for ex, ey in model]
        )
        scale *= a**-lx * b**hx * c**-ly * d**hy
    return rows, scale


def theta_vanishes(z_points, w_points, model) -> bool:
    """Whether some model section vanishes on all points of Z union W.

    True exactly when ``bareiss_det`` of the integer evaluation rows (see
    ``theta_integer_rows``) is zero, as ``duality theta-vanishes`` reports
    it.  Coordinates are ints or Fractions.
    """
    def ratios(points):
        return [((x.numerator, x.denominator), (y.numerator, y.denominator)) for x, y in points]

    rows, _ = theta_integer_rows(ratios(z_points), ratios(w_points), model)
    return bareiss_det(rows) == 0


def monomial_exponents(w_dim: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """Exponent tuples of total degree `degree` in w_dim variables, lex-descending.

    Stars and bars without recursion: the partial sums u_1 <= ... <= u_(w_dim-1)
    of an exponent tuple are a combination with replacement of 0..degree, and
    the tuple is their differences, with u_0 = 0 and u_w_dim = degree.
    Partial sums keep the lex order of the tuples, and the combinations come
    in ascending lex order, so the list is reversed at the end.
    """
    if w_dim < 1 or degree < 0:
        raise DomainError("need w_dim >= 1 and degree >= 0")
    monomials = [
        tuple(map(sub, (*sums, degree), (0, *sums)))
        for sums in combinations_with_replacement(range(degree + 1), w_dim - 1)
    ]
    monomials.reverse()
    return tuple(monomials)


class SymDualityMatrix(Frozen):
    """Diagonal matrix of the perfect pairing between Sym^n(W) and Sym^n(W*).

    In monomial bases on both sides the pairing of x^alpha with xi^alpha is
    the multinomial coefficient n!/alpha!; off-diagonal entries vanish.
    """

    __slots__ = ("w_dim", "degree", "monomials", "diagonal")

    @property
    def size(self) -> int:
        return len(self.monomials)

    @property
    def full_rank(self) -> bool:
        return all(d != 0 for d in self.diagonal)


def sym_duality_matrix(
    w_dim: int, n: int, *, term_budget: int = DEFAULT_TERM_BUDGET
) -> SymDualityMatrix:
    """The diagonal pairing of Sym^n(W) and Sym^n(W*), dim W = w_dim.

    Raises TermBudgetError first when the C(w_dim+n-1, n) monomials, and
    after the domain check when their w_dim exponents each, exceed the budget.
    """
    check_budget(w_dim + n - 1, n, term_budget)
    if w_dim < 1 or n < 1:
        raise DomainError("need w_dim >= 1 and n >= 1")
    check_budget(w_dim + n - 1, n, term_budget, weight=w_dim)
    monomials = monomial_exponents(w_dim, n)
    # n!/alpha! is the product of C(s_i, alpha_i) over the partial sums s_i of
    # alpha.  A table of 0!..n! is faster where w_dim >= 3, but at w_dim = 2,
    # where n reaches the term budget, it holds about n^2 log2(n) / 2 bits.
    diagonal = tuple(math.prod(map(math.comb, accumulate(alpha), alpha)) for alpha in monomials)
    return SymDualityMatrix(w_dim, n, monomials, diagonal)
