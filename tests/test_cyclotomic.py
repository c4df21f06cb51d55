from __future__ import annotations

import math
import pickle
import random
from fractions import Fraction

import mpmath
import pytest

from thetacalc.cyclotomic import (
    CycloElement,
    _divexact,
    cyclotomic_polynomial,
    four_sin_squared,
    real_cyclotomic_polynomial,
    real_traces,
    to_rational,
    trace_of_product,
    two_sin,
)
from thetacalc.errors import ArithmeticBugError, DomainError, NotRationalError


def test_cyclotomic_polynomials_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_inexact_polynomial_division_is_a_bug():
    # x^2 + 1 = (x + 1)(x - 1) + 2
    with pytest.raises(ArithmeticBugError, match="remainder"):
        _divexact([1, 0, 1], (1, 1))


def test_cyclotomic_product_recovers_x_m_minus_one():
    # multiplying the cyclotomic polynomials of all divisors of m gives x^m - 1
    for m in (6, 8, 12, 30):
        product = [1]
        for d in range(1, m + 1):
            if m % d == 0:
                phi = cyclotomic_polynomial(d)
                new = [0] * (len(product) + len(phi) - 1)
                for i, a in enumerate(product):
                    for j, b in enumerate(phi):
                        new[i + j] += a * b
                product = new
        assert product == [-1] + [0] * (m - 1) + [1]


def test_two_sin_values():
    assert to_rational(two_sin(4, 2)) == 2
    assert to_rational(two_sin(4, 1) ** 2) == 2
    assert to_rational(two_sin(3, 1) * two_sin(3, 2)) == 3


def test_two_sin_domain_errors():
    with pytest.raises(DomainError):
        two_sin(4, 0)
    with pytest.raises(DomainError):
        two_sin(4, 4)


def test_to_rational_constant():
    element = CycloElement(7, (Fraction(7, 3), 0, 0))
    value = to_rational(element)
    assert value == Fraction(7, 3) and type(value) is Fraction
    value = to_rational(CycloElement.one(7) * -4)
    assert value == -4 and type(value) is int
    with pytest.raises(NotRationalError):
        to_rational(CycloElement(7, (0, 1, 0)))


def test_to_rational_fourth_power_of_sqrt2():
    assert to_rational(two_sin(4, 1) ** 4) == 4


@pytest.mark.parametrize("n", range(2, 13))
def test_two_sin_symmetric_about_midpoint(n):
    for d in range(1, n):
        assert two_sin(n, d) == two_sin(n, n - d)


def test_two_sin_is_the_sine():
    # Evaluating the power basis at theta cancels up to about 20 digits at n = 40.
    with mpmath.workdps(80):
        for n in range(2, 41):
            for d in range(1, n):
                element = two_sin(n, d)
                assert element.order == 4 * n
                expected = 2 * mpmath.sinpi(mpmath.mpf(d) / n)
                assert abs(_value_at_theta(element) - expected) < mpmath.mpf(10) ** -40


@pytest.mark.parametrize("n", range(2, 13))
def test_full_sine_product_equals_n(n):
    product = CycloElement.one(4 * n)
    for d in range(1, n):
        product = product * two_sin(n, d)
    assert to_rational(product) == n


def _random_element(rng: random.Random, m: int) -> CycloElement:
    deg = len(real_cyclotomic_polynomial(m)) - 1
    coeffs = tuple(
        Fraction(rng.randint(-6, 6), rng.randint(1, 4)) if rng.random() < 0.5 else rng.randint(-6, 6)
        for _ in range(deg)
    )
    return CycloElement(m, coeffs)


def _add(a: CycloElement, b: CycloElement) -> CycloElement:
    return CycloElement(a.order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))


@pytest.mark.parametrize("m", [5, 8, 12, 20, 13])
def test_ring_axioms_on_random_triples(m):
    rng = random.Random(1000 + m)
    for _ in range(25):
        a, b, c = (_random_element(rng, m) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * _add(b, c) == _add(a * b, a * c)
        assert a * 1 == 1 * a == a * CycloElement.one(m) == a


def test_reduction_is_idempotent():
    rng = random.Random(7)
    for m in (5, 8, 12):
        for _ in range(10):
            element = _random_element(rng, m)
            assert CycloElement.from_polynomial(m, element.coeffs) == element


def test_reduction_of_the_modulus_is_zero():
    for m in (4, 5, 12, 13):
        psi = real_cyclotomic_polynomial(m)
        zero = CycloElement.one(m) * 0
        assert CycloElement.from_polynomial(m, psi) == zero
        assert CycloElement.from_polynomial(m, [0, 0, *psi]) == zero  # theta^2 * psi


def test_pow_matches_repeated_multiplication():
    rng = random.Random(99)
    element = _random_element(rng, 12)
    by_hand = CycloElement.one(12)
    for e in range(7):
        assert element**e == by_hand
        by_hand = by_hand * element


def test_order_mismatch_rejected():
    with pytest.raises(DomainError, match="order mismatch: 5 vs 7"):
        CycloElement(5, (0, 1)) * CycloElement(7, (0, 1, 0))
    with pytest.raises(DomainError, match="order mismatch: 16 vs 12"):
        two_sin(4, 1) * two_sin(3, 1)


def test_trace_of_product_is_the_trace_of_the_reduced_product():
    """The form over Tr(theta^s), s <= 2*deg - 2, equals Tr of the product reduced mod psi_n."""
    rng = random.Random(23)
    for n in range(3, 41):
        deg = len(real_cyclotomic_polynomial(n)) - 1
        traces = real_traces(n)
        for _ in range(4):
            x, y = (
                CycloElement(n, tuple(rng.randint(-(1 << 200), 1 << 200) for _ in range(deg)))
                for _ in range(2)
            )
            product = (x * y).coeffs
            assert trace_of_product(x, y) == sum(c * t for c, t in zip(product, traces[:deg]))
    with pytest.raises(DomainError, match="order mismatch: 5 vs 7"):
        trace_of_product(CycloElement(5, (0, 1)), CycloElement(7, (0, 1, 0)))


def test_scalar_arithmetic():
    x = two_sin(4, 1)
    assert to_rational(x * Fraction(1, 2) * x) == 1
    assert to_rational(3 * (x * x)) == 6
    assert math.prod([x, x], start=CycloElement.one(16)) == x * x
    with pytest.raises(TypeError):
        x * 0.5  # a float is not an exact scalar


def _theta(n: int):
    return 2 * mpmath.cos(2 * mpmath.pi / n)


def _value_at_theta(element: CycloElement):
    theta = _theta(element.order)
    return sum(c * theta**j for j, c in enumerate(element.coeffs))


@pytest.mark.parametrize("n", range(2, 61))
def test_real_cyclotomic_polynomial_is_monic_integral_of_half_degree(n):
    psi = real_cyclotomic_polynomial(n)
    assert psi[-1] == 1 and all(isinstance(c, int) for c in psi)
    assert len(psi) - 1 == (1 if n == 2 else (len(cyclotomic_polynomial(n)) - 1) // 2)
    with mpmath.workdps(50):
        value = sum(c * _theta(n) ** j for j, c in enumerate(psi))
        assert abs(value) < mpmath.mpf(10) ** -40


def test_real_cyclotomic_polynomials_small():
    assert real_cyclotomic_polynomial(2) == (2, 1)  # theta = -2
    assert real_cyclotomic_polynomial(3) == (1, 1)  # theta = -1
    assert real_cyclotomic_polynomial(4) == (0, 1)  # theta = 0
    assert real_cyclotomic_polynomial(5) == (-1, 1, 1)  # theta = (sqrt(5) - 1) / 2
    assert real_cyclotomic_polynomial(6) == (-1, 1)  # theta = 1
    with pytest.raises(DomainError):
        real_cyclotomic_polynomial(1)


@pytest.mark.parametrize("n", range(2, 31))
def test_four_sin_squared_product_is_n_squared(n):
    # prod_{d=1..n-1} 2*sin(pi*d/n) = n; the factors above n/2 by symmetry
    product = CycloElement.one(n)
    for d in range(1, n):
        product = product * four_sin_squared(n, min(d, n - d))
    assert product.coeffs == (n * n,) + (0,) * (len(product.coeffs) - 1)
    assert to_rational(product) == n * n


@pytest.mark.parametrize("n", range(2, 25))
def test_four_sin_squared_values(n):
    with mpmath.workdps(40):
        for d in range(1, n):
            element = four_sin_squared(n, d)
            assert element == four_sin_squared(n, n - d)
            expected = 4 * mpmath.sinpi(mpmath.mpf(d) / n) ** 2
            assert abs(_value_at_theta(element) - expected) < mpmath.mpf(10) ** -30
    with pytest.raises(DomainError):
        four_sin_squared(n, n)


def test_theta_is_not_rational():
    theta = CycloElement.from_polynomial(5, [0, 1])
    with pytest.raises(NotRationalError) as info:
        to_rational(theta)
    assert (info.value.order, info.value.index) == (5, 1)
    # theta^2 + theta - 1 = 0 at n = 5
    assert (theta * theta).coeffs == (1, -1)


def test_real_elements_are_records_of_their_own_class():
    theta = CycloElement(5, (0, 1))
    assert theta != CycloElement(5, (1, 0))
    assert theta != CycloElement(10, (0, 1))
    assert hash(theta) == hash(CycloElement(5, (0, 1)))
    assert repr(theta) == "CycloElement(order=5, coeffs=(0, 1))"
    assert pickle.loads(pickle.dumps(theta)) == theta
    assert type(theta**3) is type(theta * 2) is type(2 * theta) is CycloElement
    with pytest.raises(DomainError):
        CycloElement(5, (0, 1, 0, 0))


def test_power_by_squaring_edge_exponents():
    theta = CycloElement(7, (0, 1, 0))
    assert theta**0 == CycloElement.one(7)
    assert theta**1 == theta
    by_hand = CycloElement.one(7)
    for e in range(12):
        assert theta**e == by_hand
        by_hand = by_hand * theta
    with pytest.raises(DomainError):
        theta**-1
