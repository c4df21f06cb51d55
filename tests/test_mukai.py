from __future__ import annotations

import random

import pytest

from thetacalc.errors import (
    DomainError,
    LatticeMismatchError,
    NotIntegralError,
)
from thetacalc.mukai import (
    MukaiVector,
    NSClass,
    NSLattice,
    c1_proportional,
    c1_tensor,
    check_conjecture,
    chi_abelian,
    chi_k3,
    chi_tensor,
    dv,
    fm_transform,
    lattice_preset,
    mukai_pairing,
    presets_from_json,
)

AB = lattice_preset("abelian_pp")
K3E = lattice_preset("k3_elliptic")
# rank-one lattice generated by a genus-5 hyperplane class, C^2 = 8
QUADRIC = NSLattice(((8,),), name="net_of_quadrics")


def _vec(lattice, rank, coords, point):
    return MukaiVector(rank, NSClass(lattice, tuple(coords)), point)


def test_lattice_validation():
    with pytest.raises(DomainError):
        NSLattice(((0, 1), (2, 0)))
    with pytest.raises(DomainError):
        NSLattice(((1, 2),))
    # both presets are even lattices
    assert all(lattice.gram[i][i] % 2 == 0 for lattice in (K3E, AB) for i in range(lattice.rank))


def test_point_vector_pairings():
    w = _vec(QUADRIC, 1, (0,), -1)
    v = _vec(QUADRIC, 2, (1,), 2)
    assert mukai_pairing(w, w) == 2
    assert mukai_pairing(v, v) == 0
    assert mukai_pairing(v, w) == 0


def test_chi_tensor_examples():
    w = _vec(QUADRIC, 1, (0,), -1)
    v = _vec(QUADRIC, 2, (1,), 2)
    assert chi_tensor(v, w) == 0
    assert chi_tensor(w, w) == -2
    structure = _vec(QUADRIC, 1, (0,), 0)
    point = _vec(QUADRIC, 0, (0,), 1)
    assert chi_tensor(structure, point) == 1


def test_dv_examples():
    assert dv(_vec(QUADRIC, 1, (0,), -1)) == 2
    assert dv(_vec(QUADRIC, 2, (1,), 2)) == 1
    eight = _vec(AB, 1, (2,), 0)
    assert mukai_pairing(eight, eight) == 8
    assert dv(eight) == 5


def test_dv_parity_error_on_odd_lattice():
    odd = NSLattice(((1,),), name="odd")
    v = _vec(odd, 0, (1,), 0)
    with pytest.raises(DomainError):
        dv(v)


def test_chi_k3_examples():
    d2 = _vec(AB, 1, (1,), 0)
    d3 = _vec(AB, 1, (2,), 2)
    assert dv(d2) == 2 and dv(d3) == 3
    assert chi_k3(d2, d3) == 10
    d1 = _vec(AB, 1, (0,), 0)
    assert chi_k3(d1, d1) == 2
    w = _vec(QUADRIC, 1, (0,), -1)
    v = _vec(QUADRIC, 2, (1,), 2)
    assert chi_k3(v, w) == 3


def test_chi_k3_symmetry_random():
    rng = random.Random(42)
    for _ in range(200):
        v = _vec(AB, rng.randint(0, 3), (rng.randint(-3, 3),), rng.randint(-2, 2))
        w = _vec(AB, rng.randint(0, 3), (rng.randint(-3, 3),), rng.randint(-2, 2))
        if dv(v) < 0 or dv(w) < 0:
            continue
        assert chi_k3(v, w) == chi_k3(w, v)


def test_chi_abelian_kummer_frozen():
    d2 = _vec(AB, 1, (1,), 0)
    assert chi_abelian(d2, d2, "kummer") == 1
    assert chi_abelian(d2, d2, "s4") == 1


def test_chi_abelian_kummer_not_swap_symmetric():
    # the Kummer-side count depends on which vector cuts out the Kummer fiber
    d3 = _vec(AB, 1, (2,), 2)
    d2 = _vec(AB, 1, (1,), 0)
    assert chi_abelian(d3, d2, "kummer") == 4
    assert chi_abelian(d2, d3, "kummer") == 1


def test_chi_abelian_albanese_frozen_regression():
    v = _vec(AB, 1, (1,), 0)
    w = _vec(AB, 1, (2,), 4)
    assert mukai_pairing(v, w) == 0
    assert chi_abelian(v, w, "albanese_plus") == 9
    assert chi_abelian(w, v, "albanese_plus") == 9
    assert chi_abelian(v, w, "albanese_minus") == 16


def test_chi_abelian_swap_symmetry_orthogonal_pairs():
    rng = random.Random(11)
    checked = 0
    for _ in range(400):
        v = _vec(AB, 1, (rng.randint(-4, 4),), rng.randint(-3, 3))
        w0, cw = rng.randint(1, 3), rng.randint(-4, 4)
        w = _vec(AB, w0, (cw,), 2 * v.c1.coords[0] * cw - v.point * w0)
        if mukai_pairing(v, w) != 0 or dv(v) + dv(w) < 3:
            continue
        try:
            forward = chi_abelian(v, w, "albanese_plus")
        except NotIntegralError:
            # value lies outside the theorem's reach; the swap must agree on that too
            with pytest.raises(NotIntegralError):
                chi_abelian(w, v, "albanese_plus")
            continue
        assert forward == chi_abelian(w, v, "albanese_plus")
        if dv(v) == dv(w):
            assert chi_abelian(v, w, "kummer") == chi_abelian(w, v, "kummer")
        checked += 1
    assert checked >= 100


def test_chi_abelian_not_integral_signals_bad_input():
    v = _vec(AB, 1, (2,), 2)
    w = _vec(AB, 1, (3,), 7)
    assert mukai_pairing(v, w) != 0
    with pytest.raises(NotIntegralError):
        chi_abelian(v, w, "albanese_plus")


def test_chi_abelian_small_dimension_rejected():
    d1 = _vec(AB, 1, (0,), 0)
    with pytest.raises(DomainError):
        chi_abelian(d1, d1, "kummer")
    with pytest.raises(DomainError):
        chi_abelian(d1, d1, "bogus_variant")


def test_chi_abelian_vanishes_when_a_dv_is_zero():
    # C(dv+dw-2, dv-1) is 0 when dv = 0 (negative lower index) or dw = 0
    # (lower index above the upper), so every variant gives 0 there.
    zero = _vec(AB, 1, (0,), 1)
    nine = _vec(AB, 1, (3,), 1)
    assert (dv(zero), dv(nine)) == (0, 9)
    for variant in ("albanese_plus", "kummer", "s2", "s4"):
        assert chi_abelian(zero, nine, variant) == 0
        assert chi_abelian(nine, zero, variant) == 0


def test_albanese_minus_equals_albanese_plus_on_transforms():
    rng = random.Random(5)
    for _ in range(100):
        v = _vec(AB, 1, (rng.randint(-4, 4),), rng.randint(-3, 3))
        w0, cw = rng.randint(1, 3), rng.randint(-4, 4)
        w = _vec(AB, w0, (cw,), 2 * v.c1.coords[0] * cw - v.point * w0)
        if dv(v) + dv(w) < 3:
            continue
        try:
            direct = chi_abelian(v, w, "albanese_minus")
        except NotIntegralError:
            with pytest.raises(NotIntegralError):
                chi_abelian(fm_transform(v), fm_transform(w), "albanese_plus")
            continue
        assert direct == chi_abelian(fm_transform(v), fm_transform(w), "albanese_plus")


def test_fm_transform_examples():
    assert fm_transform(_vec(AB, 1, (0,), -1)) == _vec(AB, -1, (0,), 1)
    assert fm_transform(_vec(AB, 0, (0,), 1)) == _vec(AB, 1, (0,), 0)


def test_fm_transform_involution_up_to_c1_sign():
    rng = random.Random(17)
    for _ in range(200):
        v = _vec(AB, rng.randint(-3, 3), (rng.randint(-4, 4),), rng.randint(-3, 3))
        twice = fm_transform(fm_transform(v))
        flip = MukaiVector(v.rank, -v.c1, v.point)
        assert twice in (v, flip)
        assert mukai_pairing(twice, twice) == mukai_pairing(v, v)


def test_fm_transform_preserves_pairing():
    rng = random.Random(23)
    for _ in range(500):
        v = _vec(AB, rng.randint(-5, 5), (rng.randint(-5, 5),), rng.randint(-5, 5))
        w = _vec(AB, rng.randint(-5, 5), (rng.randint(-5, 5),), rng.randint(-5, 5))
        assert mukai_pairing(fm_transform(v), fm_transform(w)) == mukai_pairing(v, w)


def test_fm_transform_requires_abelian_preset():
    v = _vec(K3E, 1, (0, 0), -1)
    with pytest.raises(DomainError):
        fm_transform(v)


def test_pairing_is_symmetric_and_bilinear():
    rng = random.Random(3)
    for _ in range(100):
        u = _vec(K3E, rng.randint(-4, 4), (rng.randint(-4, 4), rng.randint(-4, 4)), rng.randint(-4, 4))
        v = _vec(K3E, rng.randint(-4, 4), (rng.randint(-4, 4), rng.randint(-4, 4)), rng.randint(-4, 4))
        w = _vec(K3E, rng.randint(-4, 4), (rng.randint(-4, 4), rng.randint(-4, 4)), rng.randint(-4, 4))
        assert mukai_pairing(u, v) == mukai_pairing(v, u)
        lam = rng.randint(-3, 3)
        scaled = MukaiVector(lam * u.rank + v.rank, lam * u.c1 + v.c1, lam * u.point + v.point)
        assert mukai_pairing(scaled, w) == lam * mukai_pairing(u, w) + mukai_pairing(v, w)
        assert (chi_tensor(u, v) == 0) == (mukai_pairing(u, v) == 0)


def test_conjecture_checklist_positive_case():
    v = _vec(QUADRIC, 2, (1,), 2)
    w = _vec(QUADRIC, 1, (0,), -1)
    H = NSClass(QUADRIC, (1,))
    verdict = check_conjecture(v, w, H)
    assert verdict.orthogonal
    assert verdict.v_primitive and verdict.w_primitive
    assert verdict.v_positive and verdict.w_positive
    assert verdict.slope_condition
    assert verdict.applicable


def test_conjecture_rejects_imprimitive_vector():
    w = _vec(QUADRIC, 1, (0,), -1)
    H = NSClass(QUADRIC, (1,))
    doubled = 2 * _vec(QUADRIC, 1, (0,), -1)
    verdict = check_conjecture(doubled, w, H)
    assert not verdict.v_primitive
    assert not verdict.applicable


def test_conjecture_rank_zero_positivity():
    H = NSClass(K3E, (1, 3))
    # <v,v> = 4 fails the positivity requirement even with effective c1
    four = _vec(K3E, 0, (1, 3), 0)
    assert mukai_pairing(four, four) == 4
    partner = _vec(K3E, 1, (0, 0), 0)
    verdict = check_conjecture(four, partner, H, v_c1_effective=True)
    assert not verdict.v_positive
    # <v,v> = 2 is positive once the caller vouches for effectivity
    two = _vec(K3E, 0, (1, 2), 0)
    assert mukai_pairing(two, two) == 2
    assert check_conjecture(two, partner, H, v_c1_effective=True).v_positive
    assert not check_conjecture(two, partner, H).v_positive


def test_c1_tensor_and_proportionality():
    v = _vec(K3E, 2, (1, 3), 0)
    w = _vec(K3E, 1, (2, 6), 1)
    assert c1_tensor(v, w).coords == (1 * 1 + 2 * 2, 1 * 3 + 2 * 6)
    assert c1_proportional(v, w)
    assert not c1_proportional(v, _vec(K3E, 1, (0, 1), 0))
    assert c1_proportional(v, _vec(K3E, 1, (0, 0), 0))


def test_lattice_mismatch_rejected():
    v = _vec(AB, 1, (1,), 0)
    w = _vec(QUADRIC, 1, (1,), 0)
    with pytest.raises(LatticeMismatchError):
        mukai_pairing(v, w)


# <v,v> = -4, so dv = -1 on either surface: each function below would refuse
# these vectors for their dimension too, so the lattice check must come first.
K3_V = _vec(K3E, 1, (0, 0), 2)
AB_W = _vec(AB, 1, (0,), 2)
ON_PAIRS = {
    "mukai_pairing": mukai_pairing,
    "chi_tensor": chi_tensor,
    "c1_tensor": c1_tensor,
    "chi_k3": chi_k3,
    **{
        f"chi_abelian[{variant}]": lambda v, w, variant=variant: chi_abelian(v, w, variant)
        for variant in ("s2", "s3", "s4", "albanese_plus", "albanese_minus", "kummer")
    },
    "check_conjecture[v,w]": lambda v, w: check_conjecture(v, w, v.c1),
    "check_conjecture[H]": lambda v, w: check_conjecture(v, v, w.c1),
}


@pytest.mark.parametrize("name", ON_PAIRS)
@pytest.mark.parametrize("v, w", [(K3_V, AB_W), (AB_W, K3_V)], ids=["k3-abelian", "abelian-k3"])
def test_lattice_mismatch_table(name, v, w):
    with pytest.raises(LatticeMismatchError):
        ON_PAIRS[name](v, w)


def test_presets_and_config_file():
    assert lattice_preset("k3_elliptic").gram == ((-2, 1), (1, 0))
    assert lattice_preset("abelian_pp").gram == ((2,),)
    with pytest.raises(DomainError):
        lattice_preset("nope")
    presets = presets_from_json({"abelian_product": [[0, 1], [1, 0]]})
    assert presets["abelian_product"].gram == ((0, 1), (1, 0))
    assert lattice_preset("abelian_product", presets).name == "abelian_product"
    bad = ([[1]], {"x": 5}, {"x": [[1.5]]}, {"x": [[False]]}, {"x": []}, {"x": [[0, 1], [2, 0]]})
    for data in bad:
        with pytest.raises(DomainError):
            presets_from_json(data)
