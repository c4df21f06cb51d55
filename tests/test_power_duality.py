from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetacalc import power_duality
from thetacalc.cli import main
from thetacalc.errors import ArithmeticBugError, DegenerateConfigError, DomainError, TermBudgetError
from thetacalc.power_duality import (
    _colex_masks,
    bareiss_det,
    det_exact,
    monomial_exponents,
    parse_model,
    parse_points,
    parse_ratios,
    sym_duality_matrix,
    theta_integer_rows,
    theta_vanishes,
    wedge_coefficients,
    wedge_duality_matrix,
)

from conftest import evaluation_covector, subsets_colex

GOLDEN = Path(__file__).resolve().parent / "golden"
MODEL3 = ((0, 0), (1, 0), (0, 1))
MODEL4 = ((0, 0), (1, 0), (0, 1), (1, 1))
MODEL6 = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def _mask(subset) -> int:
    return sum(1 << (j - 1) for j in subset)


def test_subsets_colex_order():
    assert subsets_colex(4, 2) == ((1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4))
    assert subsets_colex(3, 0) == ((),)
    for n in range(9):
        for k in range(n + 1):
            assert list(_colex_masks(n, k)) == [_mask(s) for s in subsets_colex(n, k)]


def _entry(matrix, s, t) -> int:
    """Entry of a wedge matrix at row subset s and column subset t."""
    i = subsets_colex(matrix.n, matrix.k).index(s)
    j = subsets_colex(matrix.n, matrix.n - matrix.k).index(t)
    return matrix.signs[i] if i + j == matrix.size - 1 else 0


def _dense(matrix) -> list[list[int]]:
    last = matrix.size - 1
    return [
        [s if i + j == last else 0 for j in range(matrix.size)]
        for i, s in enumerate(matrix.signs)
    ]


def test_wedge_matrix_two_one():
    m = wedge_duality_matrix(2, 1)
    assert _entry(m, (1,), (2,)) == 1
    assert _entry(m, (2,), (1,)) == -1
    assert _entry(m, (1,), (1,)) == 0


def test_wedge_matrix_three_one_signs():
    m = wedge_duality_matrix(3, 1)
    assert _entry(m, (1,), (2, 3)) == 1
    assert _entry(m, (2,), (1, 3)) == -1
    assert _entry(m, (3,), (1, 2)) == 1


def test_wedge_matrix_k_zero():
    for n in (1, 4, 7):
        m = wedge_duality_matrix(n, 0)
        assert m.signs == (1,) and m.determinant() == 1


def test_wedge_matrix_out_of_range():
    with pytest.raises(DomainError):
        wedge_duality_matrix(3, 4)
    with pytest.raises(DomainError):
        wedge_duality_matrix(3, -1)


@pytest.mark.parametrize("n", range(0, 9))
def test_wedge_determinant_agrees_with_dense(n):
    for k in range(n + 1):
        m = wedge_duality_matrix(n, k)
        assert m.determinant() in (-1, 1)
        assert det_exact(_dense(m)) == m.determinant()


def test_wedge_transpose_sign_law_small():
    for n in range(1, 9):
        for k in range(n + 1):
            forward = wedge_duality_matrix(n, k)
            backward = wedge_duality_matrix(n, n - k)
            sign = (-1) ** (k * (n - k))
            back_rows = {s: i for i, s in enumerate(subsets_colex(n, n - k))}
            for i, s in enumerate(subsets_colex(n, k)):
                j = back_rows[_complement(n, s)]
                assert forward.signs[i] == sign * backward.signs[j]


def test_evaluation_covector_examples():
    assert evaluation_covector((Fraction(0), Fraction(0)), MODEL3) == (1, 0, 0)
    assert evaluation_covector((Fraction(1), Fraction(2)), MODEL3) == (1, 1, 2)
    assert evaluation_covector((Fraction(2), Fraction(0)), ((0, 0), (1, 0), (2, 0))) == (1, 2, 4)


def test_theta_vanishes_examples():
    z = [(Fraction(0), Fraction(0))]
    assert not theta_vanishes(z, [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))], MODEL3)
    assert theta_vanishes(z, [(Fraction(1), Fraction(1)), (Fraction(2), Fraction(2))], MODEL3)
    vandermonde = [(Fraction(0), Fraction(5))], [(Fraction(1), Fraction(7))]
    assert not theta_vanishes(*vandermonde, ((0, 0), (1, 0)))
    with pytest.raises(DegenerateConfigError):
        theta_vanishes([(Fraction(1), Fraction(1))], [(Fraction(1), Fraction(1))], ((0, 0), (1, 0)))
    with pytest.raises(DomainError):
        theta_vanishes(z, [], MODEL3)


def _random_point(rng: random.Random):
    return (
        Fraction(rng.randint(-9, 9), rng.randint(1, 3)),
        Fraction(rng.randint(-9, 9), rng.randint(1, 3)),
    )


def _distinct_points(rng: random.Random, count: int):
    points = set()
    while len(points) < count:
        points.add(_random_point(rng))
    return sorted(points)


def _pairing_data(z_points, w_points, model):
    """The evaluation determinant, and the wedge pairing summed here from the two wedges."""
    n = len(model)
    k = len(z_points)
    rows = [list(evaluation_covector(p, model)) for p in list(z_points) + list(w_points)]
    alpha = wedge_coefficients(rows[:k], n, k)
    beta = wedge_coefficients(rows[k:], n, n - k)
    signs = wedge_duality_matrix(n, k).signs
    return det_exact(rows), sum(a * s * b for a, s, b in zip(alpha, signs, reversed(beta)))


@pytest.mark.parametrize(
    "model,k",
    [(MODEL3, 1), (MODEL3, 2), (MODEL4, 1), (MODEL4, 2), (MODEL6, 2), (MODEL6, 3)],
)
def test_determinant_equals_wedge_pairing(model, k):
    rng = random.Random(len(model) * 31)
    n = len(model)
    for _ in range(60):
        points = _distinct_points(rng, n)
        det, pairing = _pairing_data(points[:k], points[k:], model)
        assert det == pairing
        assert theta_vanishes(points[:k], points[k:], model) == (pairing == 0)


def test_vanishing_configurations_detected():
    rng = random.Random(2024)
    # three collinear points kill a linear section
    slope, intercept = Fraction(2, 3), Fraction(1, 5)
    xs = (Fraction(0), Fraction(1), Fraction(2))
    line = [(x, slope * x + intercept) for x in xs]
    assert theta_vanishes(line[:1], line[1:], MODEL3)
    det, pairing = _pairing_data(line[:1], line[1:], MODEL3)
    assert det == pairing == 0
    # (x-a)(y-b) lies in the span of MODEL4 and kills an axis-aligned cross
    a, b = Fraction(1), Fraction(-2)
    cross = [(a, Fraction(0)), (a, Fraction(3)), (Fraction(5), b), (Fraction(-1), b)]
    assert theta_vanishes(cross[:2], cross[2:], MODEL4)
    # six points on a degenerate conic (two lines) kill a quadratic section
    lines = []
    for s, c in ((Fraction(1), Fraction(0)), (Fraction(-1, 2), Fraction(3))):
        for x in rng.sample(range(-5, 6), 3):
            lines.append((Fraction(x), s * x + c))
    assert len(set(lines)) == 6
    assert theta_vanishes(lines[:3], lines[3:], MODEL6)


def test_vanishing_invariant_under_basis_change():
    rng = random.Random(77)
    n = 4
    for _ in range(40):
        points = _distinct_points(rng, n)
        rows = [list(evaluation_covector(p, MODEL4)) for p in points]
        base_det = det_exact(rows)
        while True:
            basis = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            change = det_exact(basis)
            if change != 0:
                break
        mixed = [
            [sum(row[i] * basis[i][j] for i in range(n)) for j in range(n)]
            for row in rows
        ]
        assert det_exact(mixed) == base_det * change
        assert (det_exact(mixed) == 0) == (base_det == 0)


def test_monomial_exponents_order():
    assert monomial_exponents(2, 2) == ((2, 0), (1, 1), (0, 2))
    assert monomial_exponents(3, 1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert monomial_exponents(1, 5) == ((5,),)


def _recursive_monomials(w_dim: int, degree: int):
    """The first exponent descending, then the rest recursively: the oracle of the order."""
    if w_dim == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in _recursive_monomials(w_dim - 1, degree - first):
            yield (first,) + rest


def test_monomial_exponents_match_the_recursive_generator():
    for w_dim in range(1, 5):
        for degree in range(0, 7):
            assert monomial_exponents(w_dim, degree) == tuple(_recursive_monomials(w_dim, degree))


def test_monomial_exponents_do_not_recurse_per_variable():
    # A generator that recursed once per variable would go 1,500 calls deep.
    monomials = monomial_exponents(1500, 1)
    assert len(monomials) == 1500
    assert monomials[0] == (1,) + (0,) * 1499 and monomials[-1] == (0,) * 1499 + (1,)
    assert monomial_exponents(2, 5) == ((5, 0), (4, 1), (3, 2), (2, 3), (1, 4), (0, 5))


def test_sym_duality_matrix_counts_every_exponent_against_the_budget():
    # C(1500, 1) = 1,500 monomials of 1,500 exponents each: refused before building.
    with pytest.raises(TermBudgetError, match=r"^term budget exceeded: 1500 x C\(1500,1\) = 2250000 > 200000$"):
        sym_duality_matrix(1500, 1)
    assert sym_duality_matrix(1500, 1, term_budget=2_250_000).size == 1500
    with pytest.raises(TermBudgetError, match=r"= 2250000 > 2249999$"):
        sym_duality_matrix(1500, 1, term_budget=2_249_999)
    assert sym_duality_matrix(3, 2, term_budget=18).size == 6
    with pytest.raises(TermBudgetError, match=r"^term budget exceeded: 3 x C\(4,2\) = 18 > 17$"):
        sym_duality_matrix(3, 2, term_budget=17)
    # C(5,3) = 10 monomials of 3 exponents: a budget of 5 is short of both
    # counts, and the monomials are refused first.
    with pytest.raises(TermBudgetError, match=r"^term budget exceeded: C\(5,3\) = 10 > 5$"):
        sym_duality_matrix(3, 3, term_budget=5)
    with pytest.raises(TermBudgetError, match=r"^term budget exceeded: 3 x C\(5,3\) = 30 > 29$"):
        sym_duality_matrix(3, 3, term_budget=29)
    # n = 0 has C(2,0) = 1 monomial: a budget below 1 refuses it before the domain check.
    with pytest.raises(TermBudgetError, match=r"^term budget exceeded: C\(2,0\) = 1 > 0$"):
        sym_duality_matrix(3, 0, term_budget=0)
    for w_dim, n in ((3, 0), (0, 3), (-2, 3), (3, -1)):
        with pytest.raises(DomainError, match="need w_dim >= 1 and n >= 1"):
            sym_duality_matrix(w_dim, n, term_budget=1)


def test_wedge_duality_matrix_refuses_over_the_budget():
    with pytest.raises(TermBudgetError, match=r"^term budget exceeded: C\(20,10\) = 184756 > 184755$"):
        wedge_duality_matrix(20, 10, term_budget=184_755)
    assert wedge_duality_matrix(20, 10, term_budget=184_756).size == 184_756
    with pytest.raises(TermBudgetError, match=r"^term budget exceeded: C\(21,11\) = 352716 > 200000$"):
        wedge_duality_matrix(21, 11)
    # An out-of-range k is a domain error under any budget.
    for n, k in ((3, 4), (3, -1)):
        with pytest.raises(DomainError, match="need 0 <= k <= n"):
            wedge_duality_matrix(n, k, term_budget=0)


def test_theta_rows_refuse_over_the_budget_after_the_point_checks():
    one = (1, 1)
    z, w = [((2, 1), one)], [((3, 1), one)]
    with pytest.raises(TermBudgetError, match=r"^term budget exceeded: C\(2,1\) = 2 > 1$"):
        theta_integer_rows(z, w, MODEL3[:2], term_budget=1)
    assert theta_integer_rows(z, w, MODEL3[:2], term_budget=2) == ([[1, 2], [1, 3]], 1)
    with pytest.raises(DomainError, match="must equal the model size"):
        theta_integer_rows(z, [], MODEL3[:2], term_budget=0)
    with pytest.raises(DegenerateConfigError):
        theta_integer_rows(z, z, MODEL3[:2], term_budget=0)
    with pytest.raises(DomainError, match="pole"):
        theta_integer_rows([((0, 1), one)], w, ((0, 0), (-1, 0)), term_budget=0)
    # 21 monomials with |Z| = 10: C(21,10) = 352,716 terms over the default budget.
    model = tuple((i, 0) for i in range(21))
    points = [(Fraction(i), Fraction(1)) for i in range(21)]
    with pytest.raises(TermBudgetError, match=r"^term budget exceeded: C\(21,10\) = 352716 > 200000$"):
        theta_vanishes(points[:10], points[10:], model)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit")
def test_coordinate_over_the_int_digit_limit_is_a_domain_error():
    """The refusal reads the same under every Python that has the limit."""
    digits = "1" * 4301
    message = (
        "Exceeds the limit (4300 digits) for integer string conversion: value has 4301 digits; "
        "use sys.set_int_max_str_digits() to increase the limit"
    )
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        for coordinate in (digits, "-" + digits, f"{digits}/3", f"1/{digits}"):
            with pytest.raises(DomainError) as info:
                parse_ratios([1, coordinate])
            assert str(info.value) == message
        assert parse_ratios([1, "-" + digits[1:]]) == ((1, 1), (-int(digits[1:]), 1))
        sys.set_int_max_str_digits(5000)
        assert parse_ratios([1, digits]) == ((1, 1), (int(digits), 1))
    finally:
        sys.set_int_max_str_digits(limit)


def test_sym_diagonal_against_permutation_count():
    """The entry of x^alpha, n!/alpha!, counts the words with alpha_i letters i."""
    for w_dim, n in ((2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (4, 4), (3, 5), (1, 5)):
        matrix = sym_duality_matrix(w_dim, n)
        for alpha, entry in zip(matrix.monomials, matrix.diagonal):
            letters = []
            for symbol, count in enumerate(alpha):
                letters += [symbol] * count
            assert entry == len(set(permutations(letters)))


def test_sym_duality_matrix_examples():
    assert sym_duality_matrix(1, 4).diagonal == (1,)
    assert sym_duality_matrix(2, 1).diagonal == (1, 1)
    assert sym_duality_matrix(2, 2).diagonal == (1, 2, 1)
    assert sym_duality_matrix(2, 2).monomials == ((2, 0), (1, 1), (0, 2))
    with pytest.raises(DomainError):
        sym_duality_matrix(0, 1)


def test_sym_duality_matrix_full_rank():
    for w_dim in range(1, 5):
        for n in range(1, 5):
            matrix = sym_duality_matrix(w_dim, n)
            assert matrix.size == math.comb(w_dim + n - 1, n)
            assert matrix.full_rank
            dense = [
                [d if i == j else 0 for j in range(matrix.size)]
                for i, d in enumerate(matrix.diagonal)
            ]
            assert det_exact(dense) != 0


@pytest.mark.parametrize("n, k", [(16, 8), (7, 5), (4, 0), (4, 4)])
def test_wedge_json_export_layout(n, k, tmp_path, capsys):
    """``duality wedge --export`` writes the matrix built from colex subsets and shuffle signs."""
    target = tmp_path / "m.json"
    assert main(["duality", "wedge", str(n), str(k), "--export", str(target)]) == 0
    cols = {t: j for j, t in enumerate(subsets_colex(n, n - k))}
    entries = [
        [i, cols[_complement(n, s)], _shuffle_sign(s)] for i, s in enumerate(subsets_colex(n, k))
    ]
    expected = {"n": n, "k": k, "index_order": "colex", "entries": entries}
    assert target.read_text() == json.dumps(expected, separators=(",", ":")) + "\n"
    assert json.loads(capsys.readouterr().out)["entries"] == entries


def test_point_parsing_errors():
    with pytest.raises(DomainError, match="zero denominator"):
        parse_ratios(["1/0", 2])
    assert parse_model([[0, 0], [-1, 2]]) == ((0, 0), (-1, 2))
    for entry in ([1.5, 0], [0, True], ["1", 0], [0], [0, 0, 0]):
        with pytest.raises(DomainError, match="integer exponents"):
            parse_model([[0, 0], entry])
    assert parse_ratios(["-3/4", -5]) == ((-3, 4), (-5, 1))
    assert parse_ratios(["6/8", "-0/3"]) == ((3, 4), (0, 1))
    for coordinate in ("1e10000000", "2E3", "0.5", ".5", "1_000", "-1/-2", 1.5, False):
        with pytest.raises(DomainError, match="not an integer or a string 'p/q'"):
            parse_ratios([1, coordinate])


def test_points_must_be_lists_of_pairs():
    """A string or an object of two items is not a point, and Z and W must be lists."""
    for point in ("12", {"1": 0, "2": 0}, [1], [1, 2, 3], 12, None):
        with pytest.raises(DomainError, match="not a pair of coordinates"):
            parse_ratios(point)
    good = {"Z": [[1, 2]], "W": [["3/6", 4]]}
    assert parse_points(good) == ([((1, 1), (2, 1))], [((1, 2), (4, 1))])
    for key in ("Z", "W"):
        for points in ({"12": 0}, "12", 12, None):
            with pytest.raises(DomainError, match=f"{key} is not a list of points"):
                parse_points({**good, key: points})


def test_theta_laurent_model_poles():
    model = ((0, 0), (-1, 0), (0, -2))
    points = [(Fraction(1), Fraction(2)), (Fraction(-1, 2), Fraction(3)), (Fraction(2), Fraction(-1))]
    # Laurent monomials evaluate at points off the coordinate axes
    det, pairing = _pairing_data(points[:1], points[1:], model)
    assert det == pairing != 0
    assert not theta_vanishes(points[:1], points[1:], model)
    with pytest.raises(DomainError, match="pole"):
        theta_vanishes([(Fraction(0), Fraction(1))], points[1:], model)
    with pytest.raises(DomainError, match="pole"):
        theta_vanishes(points[:2], [(Fraction(5), Fraction(0))], model)



def test_theta_rows_memory_grows_with_the_entries_not_the_exponent_span():
    # rows [[1, 2^S], [1, 3^S]] take about 8 kB at S = 20,000; a table of
    # every power of 2 and 3 up to S would take about 60 MB
    span = 20_000
    one = (1, 1)
    tracemalloc.start()
    try:
        rows, scale = theta_integer_rows([((2, 1), one)], [((3, 1), one)], ((0, 0), (span, 0)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    assert (rows, scale) == ([[1, 2**span], [1, 3**span]], 1)

# Reference implementations: one Fraction Gaussian elimination per minor.


def _reference_det(rows) -> Fraction:
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] / m[col][col]
            for c in range(col, n):
                m[r][c] -= factor * m[col][c]
    return det


def _reference_wedge(vectors, n, k):
    return tuple(
        _reference_det([[vec[j - 1] for j in subset] for vec in vectors])
        for subset in subsets_colex(n, k)
    )


def _random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-7, 7), rng.randint(1, 6))


def _random_rows(rng: random.Random, k: int, n: int) -> list[list[Fraction]]:
    """Random rational k x n rows, some with zero columns or dependent rows."""
    rows = [[_random_rational(rng) for _ in range(n)] for _ in range(k)]
    shape = rng.randrange(4)
    if shape == 1 and n:  # zero columns
        for j in rng.sample(range(n), rng.randint(1, n)):
            for row in rows:
                row[j] = Fraction(0)
    elif shape == 2 and k >= 2:  # one row a combination of two others
        a, b = _random_rational(rng), _random_rational(rng)
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    elif shape == 3 and k >= 1:  # a zero row
        rows[rng.randrange(k)] = [Fraction(0)] * n
    return rows


def _random_configurations(seed: int):
    """Random k x n rows for n <= 10 and every k, k = 0 and k = n included."""
    rng = random.Random(seed)
    for n in range(0, 11):
        for k in range(0, n + 1):
            for _ in range(3 if n <= 8 else 1):
                yield n, k, _random_rows(rng, k, n)


def test_wedge_coefficients_match_reference_minors():
    for n, k, rows in _random_configurations(4242):
        got = wedge_coefficients(rows, n, k)
        assert got == _reference_wedge(rows, n, k)
        assert all(type(c) is Fraction for c in got)


class _OffByOne(int):
    """An int whose products are one too large: a faulty multiplication."""

    def __mul__(self, other):
        return int(self) * other + 1

    __rmul__ = __mul__


# Bareiss elimination fails its exact-division check on this matrix.
_BAREISS_FAULT = [[_OffByOne(2), 1, 0], [1, 2, 1], [0, 1, 2]]


def test_exact_division_checks_can_fail():
    with pytest.raises(ArithmeticBugError, match="Bareiss step 1: 2 does not divide"):
        bareiss_det(_BAREISS_FAULT)


@pytest.mark.parametrize(
    "rows, k, message",
    [(_BAREISS_FAULT, 1, "Bareiss step 1: 2 does not divide an updated entry")],
)
def test_cli_exits_1_when_an_exact_division_fails(rows, k, message, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        power_duality, "theta_integer_rows", lambda z, w, model, term_budget: ([list(r) for r in rows], 1)
    )
    points = tmp_path / "points.json"
    xs = [[1, 2], [3, 4], [5, 6]]
    points.write_text(json.dumps({"model": [[0, 0], [1, 0], [0, 1]], "Z": xs[:k], "W": xs[k:]}))
    assert main(["duality", "theta-vanishes", "--points", str(points)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("name", ["false", "true", "laurent", "z_empty", "w_empty"])
def test_theta_query_builds_no_wedge(name, capsys, monkeypatch):
    """``duality theta-vanishes`` prints the determinant as the pairing, without a wedge."""
    argv = ["duality", "theta-vanishes", "--points", str(GOLDEN / f"corpus_points_{name}.json")]
    assert main(argv) == 0
    expected = capsys.readouterr()

    def no_wedge(*args):
        raise AssertionError("a theta query built a wedge")

    monkeypatch.setattr(power_duality, "wedge_coefficients", no_wedge)
    assert main(argv) == 0
    assert capsys.readouterr() == expected
    result = json.loads(expected.out)
    assert result["pairing"] == result["determinant"]


@st.composite
def _theta_configurations(draw):
    """A model of n <= 9 monomials, Laurent ones included, and n distinct points off its poles.

    Each coordinate is written as an int or as a string "p/q" not in lowest terms.
    """
    n = draw(st.integers(1, 9))
    exponents = st.tuples(st.integers(-2, 3), st.integers(-2, 3))
    model = draw(st.lists(exponents, min_size=n, max_size=n, unique=True))
    nonzero = [any(e[axis] < 0 for e in model) for axis in (0, 1)]
    coords = [
        st.builds(Fraction, st.integers(-6, 6).filter(lambda v, nz=nz: v or not nz), st.integers(1, 5))
        for nz in nonzero
    ]
    points = draw(st.lists(st.tuples(*coords), min_size=n, max_size=n, unique=True))
    k = draw(st.integers(0, n))
    scales = draw(st.lists(st.integers(1, 3), min_size=2 * n, max_size=2 * n))

    def written(x: Fraction, m: int):
        if x.denominator == 1 and m == 1:
            return x.numerator
        return f"{x.numerator * m}/{x.denominator * m}"

    text = [[written(x, scales[2 * i]), written(y, scales[2 * i + 1])] for i, (x, y) in enumerate(points)]
    return model, points, k, {"model": model, "Z": text[:k], "W": text[k:]}


@settings(max_examples=150, deadline=None)
@given(_theta_configurations())
def test_cli_theta_values_match_the_fraction_reference(config):
    """The integer path prints the determinant of the Fraction evaluation rows, twice."""
    model, points, k, data = config
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "points.json"
        path.write_text(json.dumps(data))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["duality", "theta-vanishes", "--points", str(path)])
    assert code == 0
    result = json.loads(out.getvalue())
    expected = _reference_det([list(evaluation_covector(p, model)) for p in points])
    assert result["determinant"] == result["pairing"] == str(expected)
    assert result["vanishes"] is (expected == 0)


@pytest.mark.parametrize("n,k", [(18, 17), (16, 14), (16, 2)])
def test_wedge_coefficients_unbalanced_match_reference(n, k):
    # few subsets but far from n/2 rows: the reduction keeps every
    # intermediate layer within the C(n,k) output terms
    rng = random.Random(n * 100 + k)
    rows = [[_random_rational(rng) for _ in range(n)] for _ in range(k)]
    got = wedge_coefficients(rows, n, k)
    assert any(got)
    assert got == _reference_wedge(rows, n, k)


def test_wedge_coefficients_unbalanced_memory_bounded():
    # 15 covectors in Q^16 have 16 coefficients; building the wedge without
    # the reduction passes through C(16,8) = 12870 terms (about 3 MB here)
    rng = random.Random(16)
    rows = [[_random_rational(rng) for _ in range(16)] for _ in range(15)]
    tracemalloc.start()
    try:
        wedge_coefficients(rows, 16, 15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_wedge_coefficients_rank_deficient_vanish():
    rng = random.Random(9)
    for n in range(2, 9):
        for k in range(2, n + 1):
            rows = [[_random_rational(rng) for _ in range(n)] for _ in range(k - 1)]
            rows.append([3 * x - y for x, y in zip(rows[0], rows[-1])])
            assert set(wedge_coefficients(rows, n, k)) == {0}


def test_wedge_coefficients_shape_errors():
    with pytest.raises(DomainError):
        wedge_coefficients([[1, 2]], 2, 2)
    with pytest.raises(DomainError):
        wedge_coefficients([[1, 2, 3]], 2, 1)
    with pytest.raises(DomainError):
        wedge_coefficients([[1, 2]], 2, 3)


def test_det_exact_matches_reference():
    rng = random.Random(31337)
    for n in range(0, 9):
        for _ in range(25):
            rows = _random_rows(rng, n, n)
            assert det_exact(rows) == _reference_det(rows)


def test_det_exact_edge_cases():
    assert det_exact([]) == 1 and type(det_exact([])) is Fraction
    assert det_exact([[Fraction(-3, 4)]]) == Fraction(-3, 4)
    # zero leading entries force row swaps; each swap flips the sign
    assert det_exact([[0, 1], [1, 0]]) == -1
    assert det_exact([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert det_exact([[0, 2, 0], [0, 0, 3], [5, 0, 0]]) == 30
    swapped = [[0, Fraction(1, 2), 3], [Fraction(2, 3), 1, 1], [1, 1, Fraction(1, 5)]]
    assert det_exact(swapped) == _reference_det(swapped)
    # singular: a zero column, a zero row, and dependent rows
    assert det_exact([[1, 0], [2, 0]]) == 0
    assert det_exact([[1, 2], [0, 0]]) == 0
    assert det_exact([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0
    with pytest.raises(DomainError):
        det_exact([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(DomainError):
        det_exact([[1, 2], [3]])


@pytest.mark.parametrize("n", range(0, 11))
def test_wedge_matrix_matches_complement_lookup(n):
    for k in range(n + 1):
        matrix = wedge_duality_matrix(n, k)
        rows = subsets_colex(n, k)
        cols = {t: j for j, t in enumerate(subsets_colex(n, n - k))}
        # row i pairs with column size-1-i, the complement of its subset
        assert [cols[_complement(n, s)] for s in rows] == list(range(matrix.size - 1, -1, -1))
        assert matrix.signs == tuple(_merge_sign(n, s) for s in rows)


def _complement(n, subset):
    return tuple(x for x in range(1, n + 1) if x not in subset)


def _merge_sign(n, subset):
    """Sign of (subset ascending, complement ascending) by counting inversions."""
    order = list(subset) + list(_complement(n, subset))
    inversions = sum(a > b for i, a in enumerate(order) for b in order[i + 1 :])
    return -1 if inversions % 2 else 1


def _shuffle_sign(subset):
    """Sign of (subset ascending, complement ascending): sum(subset) - k(k+1)/2 inversions."""
    k = len(subset)
    return -1 if (sum(subset) - k * (k + 1) // 2) % 2 else 1


def _cycle_walk_determinant(row_to_col, signs):
    """Sign of the permutation, from its cycle lengths, times the product of the signs."""
    sign = 1
    seen = [False] * len(row_to_col)
    for start in range(len(row_to_col)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = row_to_col[i]
            length += 1
        if length % 2 == 0:
            sign = -sign
    for s in signs:
        sign *= s
    return sign


@pytest.mark.parametrize(
    "n, ks",
    [(n, range(n + 1)) for n in range(13)] + [(14, (7,)), (15, (7, 8)), (16, (8,))],
)
def test_wedge_matrix_matches_per_subset_reference(n, ks):
    """The colex recurrence against the per-subset construction it replaced."""
    for k in ks:
        rows = subsets_colex(n, k)
        row_to_col = tuple(range(len(rows) - 1, -1, -1))
        signs = tuple(_shuffle_sign(s) for s in rows)
        matrix = wedge_duality_matrix(n, k)
        assert matrix.signs == signs
        assert matrix.determinant() == _cycle_walk_determinant(row_to_col, signs)


# Monomials x^i y^j by total degree; a model of size n is the first n.
_MONOMIALS = tuple((i, d - i) for d in range(5) for i in range(d, -1, -1))


def test_size_thirteen_theta_configuration():
    model = _MONOMIALS[:13]
    xs = [Fraction(i - 6, 2) for i in (3, 11, 0, 7, 12, 5, 1, 9, 2, 8, 4, 10, 6)]
    ys = [Fraction(j - 6, 3) for j in (8, 2, 12, 5, 0, 10, 7, 3, 11, 1, 6, 9, 4)]
    points = list(zip(xs, ys))
    det, pairing = _pairing_data(points[:6], points[6:], model)
    assert det == pairing != 0
    assert not theta_vanishes(points[:6], points[6:], model)
    # on the line y = 1/2 - x the section y + x - 1/2 vanishes at every point
    line = [(x, Fraction(1, 2) - x) for x in xs]
    det, pairing = _pairing_data(line[:7], line[7:], model)
    assert det == pairing == 0
    assert theta_vanishes(line[:7], line[7:], model)
