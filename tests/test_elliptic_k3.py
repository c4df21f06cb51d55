from __future__ import annotations

import math

import pytest

from thetacalc import elliptic_k3 as ek
from thetacalc.cli import main
from thetacalc.elliptic_k3 import (
    chi_of_vector,
    chi_pair,
    compute_nu,
    normalize_vector,
    normalized_vector,
    ns_class,
    strange_duality_dims,
    theta_bundle_class,
)
from thetacalc.errors import ArithmeticBugError, DivisibilityError, DomainError, NuTooWeakError
from thetacalc.mukai import lattice_preset, mukai_pairing


def test_lattice_shape():
    lattice = ns_class(0, 0).lattice
    assert lattice == lattice_preset("k3_elliptic")
    assert lattice.gram == ((-2, 1), (1, 0))
    sigma, fiber = ns_class(1, 0), ns_class(0, 1)
    assert sigma.dot(sigma) == -2
    assert fiber.dot(fiber) == 0
    assert sigma.dot(fiber) == 1


def test_normalize_already_normalized():
    vector, twists = normalize_vector(2, 3, -1)
    assert twists == 0
    assert vector.a == 5
    assert mukai_pairing(vector.vector, vector.vector) == 8


def test_normalize_rank_one_is_ideal_sheaf_twist():
    vector, twists = normalize_vector(1, 7, 0)
    assert twists == 0
    assert vector.a == 7
    assert vector.vector.rank == 1
    assert vector.vector.c1.coords == (1, 7)
    assert vector.vector.point == 0


def test_normalize_with_down_twist():
    # one down-twist reaches chi = 1; the half-dimension is twist-invariant
    vector, twists = normalize_vector(2, 2, 0)
    assert twists == -1
    assert vector.a == 2
    assert mukai_pairing(vector.vector, vector.vector) == 2 * vector.a - 2


def test_normalize_with_up_twists():
    vector, twists = normalize_vector(3, 4, -5)
    assert twists == 3
    assert vector.a == 4 + 15
    assert chi_of_vector(vector.vector) == 1


def test_normalized_vector_pairing_grid():
    for r in range(1, 7):
        for a in range(1, 41):
            vector = normalized_vector(r, a).vector
            assert mukai_pairing(vector, vector) == 2 * a - 2
            assert vector.c1.dot(ns_class(0, 1)) == 1
            assert chi_of_vector(vector) == 1


def test_compute_nu_examples():
    result = compute_nu(2, 3, 12, 15)
    assert result.nu == -2 and result.divisible and result.nu_strong
    result = compute_nu(2, 2, 5, 5)
    assert result.nu == 0 and not result.nu_strong
    with pytest.raises(DivisibilityError) as info:
        compute_nu(2, 2, 10, 10)
    assert str(info.value) == "divisibility: 4 does not divide 18"


def test_chi_pair_examples():
    assert chi_pair(2, 3, 12, 15) == 10
    assert chi_pair(2, 2, 5, 5) == 0
    assert chi_pair(1, 1, 1, 1) == 0


def test_chi_pair_nu_consistency():
    for r in range(1, 5):
        for s in range(1, 5):
            total = r + s
            for m in range(1, 12):
                a_plus_b = m * total + 2
                a = max(1, a_plus_b // 2)
                b = a_plus_b - a
                if b < 1:
                    continue
                nu = compute_nu(r, s, a, b).nu
                assert chi_pair(r, s, a, b) + nu * total == 0


def test_theta_class_frozen_case():
    theta = theta_bundle_class(2, 3, 12, 15)
    assert theta.L.coords == (5, 10)
    assert theta.chi == 27
    assert theta.m_exponent == 1
    assert theta.hilb_points == 12
    assert theta.nu == compute_nu(2, 3, 12, 15).nu == -2


def test_theta_class_second_case():
    # nu = (4-2) - 16/4 = -2, so L = 4s + 8f and chi(L) = 18 = a+b
    theta = theta_bundle_class(2, 2, 9, 9)
    assert compute_nu(2, 2, 9, 9).nu == -2
    assert theta.L.coords == (4, 8)
    assert theta.chi == 18


def test_theta_class_identity_failure_exits_1(monkeypatch, capsys):
    """chi(L) = a+b holds by construction; a class that breaks it is a bug, not a traceback."""
    ns_class = ek.ns_class
    monkeypatch.setattr(ek, "ns_class", lambda sigma, fiber: ns_class(sigma, fiber + 1))
    with pytest.raises(ArithmeticBugError):
        theta_bundle_class(2, 3, 12, 15)
    assert main(["elliptic", "theta-class", "2", "3", "12", "15"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: chi(L) = 32 differs from a+b = 27\n"


def test_theta_class_requires_rank_two():
    with pytest.raises(DomainError):
        theta_bundle_class(1, 4, 12, 15)
    with pytest.raises(DivisibilityError):
        theta_bundle_class(2, 2, 10, 10)


def test_dims_frozen_case():
    dims = strange_duality_dims(2, 3, 12, 15)
    assert dims.dim_a == dims.dim_b == math.comb(27, 12) == 17383860
    assert dims.equal
    assert dims.corollary_applies  # boundary: <v,v> + <w,w> = 50 = 2*(r+s)^2
    assert dims.theta == theta_bundle_class(2, 3, 12, 15)
    with pytest.raises(DivisibilityError):
        strange_duality_dims(2, 2, 10, 10)


def test_dims_weak_nu_rejected():
    with pytest.raises(NuTooWeakError):
        strange_duality_dims(2, 2, 5, 5)  # nu = 0


def test_dims_balanced_case():
    dims = strange_duality_dims(3, 3, 19, 19)
    assert compute_nu(3, 3, 19, 19).nu == -2
    assert dims.dim_a == math.comb(38, 19)
    assert dims.equal


def test_dims_rank_one_partner_excluded_from_corollary():
    dims = strange_duality_dims(2, 1, 5, 6)  # nu = 1 - 9/3 = -2
    assert dims.dim_a == dims.dim_b == math.comb(11, 5)
    assert dims.equal
    assert not dims.corollary_applies  # needs both ranks >= 2


def test_chi_identity_and_dims_on_grid():
    for r in range(2, 8):
        for s in range(1, 8 - r + 1):
            total = r + s
            for a_plus_b in range(total + 2, 81, total):
                if (a_plus_b - 2) % total:
                    continue
                a = a_plus_b // 2
                b = a_plus_b - a
                if a < 1 or b < 1:
                    continue
                theta = theta_bundle_class(r, s, a, b)
                assert theta.chi == a + b
                nu = compute_nu(r, s, a, b).nu
                if nu < -1:
                    dims = strange_duality_dims(r, s, a, b)
                    assert dims.dim_a == dims.dim_b
                else:
                    with pytest.raises(NuTooWeakError):
                        strange_duality_dims(r, s, a, b)


def test_strength_condition_equivalences():
    for r in range(1, 7):
        for s in range(1, 7):
            total = r + s
            for m in range(1, 16):
                a_plus_b = m * total + 2
                a = a_plus_b // 2
                b = a_plus_b - a
                if a < 1 or b < 1:
                    continue
                result = compute_nu(r, s, a, b)
                strong = -result.nu > 1
                assert strong == (a + b >= total**2 + 2)
                pairing_sum = (2 * a - 2) + (2 * b - 2)
                assert strong == (pairing_sum >= 2 * total**2)
                assert result.nu_strong == strong


def _count_calls(monkeypatch):
    calls = {"compute_nu": 0, "theta_bundle_class": 0}
    for name in calls:
        original = getattr(ek, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(ek, name, counted)
    return calls


@pytest.mark.parametrize("query", ["theta-class", "dims"])
def test_each_quantity_computed_once(monkeypatch, capsys, query):
    calls = _count_calls(monkeypatch)
    assert main(["elliptic", query, "2", "3", "12", "15"]) == 0
    capsys.readouterr()
    assert calls == {"compute_nu": 1, "theta_bundle_class": 1}
