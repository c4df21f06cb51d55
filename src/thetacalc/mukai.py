"""Mukai vectors on surfaces with trivial canonical class.

Provides the integral Neron-Severi intersection pairing, the Mukai form
<v,w> = c1(v).c1(w) - v0*w4 - v4*w0, the Euler characteristics of theta
line bundles on the moduli spaces attached to a pair of vectors (the
binomial count on a K3, and the three Albanese/Kummer variants on an
abelian surface), the cohomological Fourier-Mukai transform, and the
hypothesis checklist of the strange-duality conjecture.

Conventions fixed here once:

* chi(v (x) w) = -<v, w>, so orthogonality for the Mukai form is the same
  as the vanishing of the Euler pairing.
* The Fourier-Mukai transform acts by (v0, c1, v4) -> (v4, -c1, v0) under
  the principal-polarization identification of a surface with its dual;
  this choice preserves the Mukai form (a verified property, see tests).
"""

import math

from ._frozen import Frozen
from .errors import DomainError, LatticeMismatchError, NotIntegralError

BUILTIN_PRESETS: dict[str, tuple[tuple[int, ...], ...]] = {
    "k3_elliptic": ((-2, 1), (1, 0)),
    "abelian_pp": ((2,),),
}


class NSLattice(Frozen):
    """Integral lattice with a symmetric Gram matrix (divisor intersection form)."""

    __slots__ = ("gram", "name")

    def __init__(self, gram: tuple[tuple[int, ...], ...], name: str = ""):
        super().__init__(gram, name)

    def _validate(self) -> None:
        n = len(self.gram)
        if n == 0 or any(len(row) != n for row in self.gram):
            raise DomainError("Gram matrix must be square and non-empty")
        for i in range(n):
            for j in range(n):
                if self.gram[i][j] != self.gram[j][i]:
                    raise DomainError("Gram matrix must be symmetric")

    @property
    def rank(self) -> int:
        return len(self.gram)

    def dot(self, u: tuple[int, ...], v: tuple[int, ...]) -> int:
        return sum(
            u[i] * self.gram[i][j] * v[j]
            for i in range(self.rank)
            for j in range(self.rank)
        )

    def cls(self, *coords: int) -> "NSClass":
        return NSClass(self, tuple(coords))


def lattice_preset(name: str, extra: dict[str, NSLattice] | None = None) -> NSLattice:
    if extra and name in extra:
        return extra[name]
    if name not in BUILTIN_PRESETS:
        raise DomainError(f"unknown lattice preset {name!r}")
    return NSLattice(BUILTIN_PRESETS[name], name=name)


def presets_from_json(data) -> dict[str, NSLattice]:
    """Named lattices from a parsed JSON object {name: [[...], ...]}.

    Each Gram matrix must be a non-empty, square, symmetric list of lists
    of JSON integers; a float, a boolean or any other shape raises
    DomainError.
    """
    if not isinstance(data, dict):
        raise DomainError("lattice presets must be a JSON object {name: Gram matrix}")
    presets = {}
    for name, gram in data.items():
        if not isinstance(gram, list) or not all(
            isinstance(row, list) and all(type(x) is int for x in row) for row in gram
        ):
            raise DomainError(
                f"Gram matrix of lattice preset {name!r} must be a list of lists of integers"
            )
        presets[name] = NSLattice(tuple(tuple(row) for row in gram), name=name)
    return presets


class NSClass(Frozen):
    """Integer divisor class in a fixed lattice."""

    __slots__ = ("lattice", "coords")

    def _validate(self) -> None:
        if len(self.coords) != self.lattice.rank:
            raise DomainError(
                f"class has {len(self.coords)} coordinates, "
                f"lattice rank is {self.lattice.rank}"
            )

    def _check(self, other: "NSClass") -> None:
        if self.lattice != other.lattice:
            raise LatticeMismatchError("classes live in different lattices")

    def dot(self, other: "NSClass") -> int:
        self._check(other)
        return self.lattice.dot(self.coords, other.coords)

    @property
    def self_intersection(self) -> int:
        return self.dot(self)

    def __add__(self, other: "NSClass") -> "NSClass":
        self._check(other)
        return NSClass(self.lattice, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "NSClass":
        return NSClass(self.lattice, tuple(-a for a in self.coords))

    def __mul__(self, scalar: int) -> "NSClass":
        return NSClass(self.lattice, tuple(scalar * a for a in self.coords))

    __rmul__ = __mul__


class MukaiVector(Frozen):
    """Triple (rank, c1, point coefficient) in the even cohomology of a surface."""

    __slots__ = ("rank", "c1", "point")

    @property
    def lattice(self) -> NSLattice:
        return self.c1.lattice

    def components(self) -> tuple[int, ...]:
        return (self.rank, *self.c1.coords, self.point)

    def __mul__(self, scalar: int) -> "MukaiVector":
        return MukaiVector(scalar * self.rank, scalar * self.c1, scalar * self.point)

    __rmul__ = __mul__


def mukai_pairing(v: MukaiVector, w: MukaiVector) -> int:
    """<v, w> = c1(v).c1(w) - v0*w4 - v4*w0."""
    return v.c1.dot(w.c1) - v.rank * w.point - v.point * w.rank


def chi_tensor(v: MukaiVector, w: MukaiVector) -> int:
    """Euler pairing chi(v (x) w) = -<v, w> on a surface with trivial canonical class."""
    return -mukai_pairing(v, w)


def dv(v: MukaiVector) -> int:
    """Half the Mukai self-pairing plus one; the moduli space has dimension 2*dv."""
    s = mukai_pairing(v, v)
    if s % 2 != 0:
        raise DomainError(f"parity: <v,v> = {s} is odd (lattice is not even?)")
    return s // 2 + 1


def chi_k3(v: MukaiVector, w: MukaiVector) -> int:
    """Theta-bundle Euler characteristic C(dv + dw, dv) for K3 moduli; symmetric in v, w."""
    v.c1._check(w.c1)
    a, b = dv(v), dv(w)
    if a < 0 or b < 0:
        raise DomainError(f"dv must be non-negative, got {a} and {b}")
    return math.comb(a + b, a)


def c1_tensor(v: MukaiVector, w: MukaiVector) -> NSClass:
    """First Chern class of the tensor product, rk(w)*c1(v) + rk(v)*c1(w)."""
    return w.rank * v.c1 + v.rank * w.c1


def c1_proportional(v: MukaiVector, w: MukaiVector) -> bool:
    """Whether c1(v) and c1(w) are proportional over Q (zero counts as proportional)."""
    a, b = v.c1.coords, w.c1.coords
    n = len(a)
    return all(a[i] * b[j] == a[j] * b[i] for i in range(n) for j in range(i + 1, n))


# The formula name of each abelian variant, which s2, s3 and s4 alias in turn.
_ABELIAN_FORMULAS = {
    "albanese_plus": "chi_albanese_det",
    "albanese_minus": "chi_albanese_fm_det",
    "kummer": "chi_kummer",
}
# Aliases in the order of the --variant choices in cli.COMMANDS.
ABELIAN_VARIANTS = dict(zip(("s2", "s3", "s4", *_ABELIAN_FORMULAS), (*_ABELIAN_FORMULAS,) * 2))


def chi_abelian(v: MukaiVector, w: MukaiVector, variant: str) -> int:
    """Theta-bundle Euler characteristic on abelian-surface moduli.

    * ``albanese_plus``: c1(v(x)w)^2 / (2*(dv+dw-2)) * C(dv+dw-2, dv-1),
      computed on the fibers of the determinant morphism; symmetric in v, w.
    * ``albanese_minus``: the same expression evaluated on the Fourier-Mukai
      transforms of v and w (fibers of the dual determinant morphism).
    * ``kummer``: (dv-1)^2 / (dv+dw-2) * C(dv+dw-2, dv-1), the count on the
      Kummer fiber of v paired against the full moduli space of w.  Not
      symmetric under swapping v and w.  It was derived under the
      assumption that c1(v) and c1(w) are proportional; use
      ``c1_proportional`` to check that hypothesis.
    """
    v.c1._check(w.c1)
    if variant not in ABELIAN_VARIANTS:
        raise DomainError(f"unknown variant {variant!r}")
    variant = ABELIAN_VARIANTS[variant]
    if variant == "albanese_minus":
        return chi_abelian(fm_transform(v), fm_transform(w), "albanese_plus")
    a, b = dv(v), dv(w)
    if a + b < 3:
        raise DomainError(f"dv + dw must be >= 3, got {a + b}")
    if a < 1:
        return 0  # C(a+b-2, a-1) vanishes; math.comb refuses a negative lower index
    binom = math.comb(a + b - 2, a - 1)
    if variant == "albanese_plus":
        num, den = c1_tensor(v, w).self_intersection * binom, 2 * (a + b - 2)
    else:
        num, den = (a - 1) ** 2 * binom, a + b - 2
    value, remainder = divmod(num, den)
    if remainder:
        raise NotIntegralError(num, den)
    return value


def fm_transform(v: MukaiVector) -> MukaiVector:
    """Cohomological Fourier-Mukai transform (v0, c1, v4) -> (v4, -c1, v0).

    Only defined on abelian-surface presets, where a principal polarization
    identifies the surface with its dual; the sign on c1 is the unique
    choice (up to the c1 -> -c1 ambiguity) preserving the Mukai form.
    """
    if not v.lattice.name.startswith("abelian"):
        raise DomainError(
            f"unsupported lattice preset {v.lattice.name!r} for the Fourier-Mukai transform"
        )
    return MukaiVector(v.point, -v.c1, v.rank)


class ConjectureVerdict(Frozen):
    """Individual strange-duality hypotheses for a pair of vectors, and their conjunction."""

    __slots__ = (
        "orthogonal",
        "v_primitive",
        "w_primitive",
        "v_positive",
        "w_positive",
        "slope_condition",
        "applicable",
    )


def _is_primitive(v: MukaiVector) -> bool:
    return math.gcd(*(abs(c) for c in v.components())) == 1


def _is_positive(v: MukaiVector, c1_effective: bool) -> bool:
    if v.rank > 0:
        return True
    if v.rank < 0:
        return False
    return c1_effective and mukai_pairing(v, v) not in (0, 4)


def check_conjecture(
    v: MukaiVector,
    w: MukaiVector,
    H: NSClass,
    *,
    v_c1_effective: bool = False,
    w_c1_effective: bool = False,
) -> ConjectureVerdict:
    """Check the strange-duality hypotheses for (v, w) with polarization H.

    Positivity in rank 0 requires effectivity of c1, which cannot be decided
    from the lattice alone; callers assert it through the keyword flags.
    """
    orthogonal = mukai_pairing(v, w) == 0
    v_primitive = _is_primitive(v)
    w_primitive = _is_primitive(w)
    v_positive = _is_positive(v, v_c1_effective)
    w_positive = _is_positive(w, w_c1_effective)
    slope = c1_tensor(v, w).dot(H) > 0
    return ConjectureVerdict(
        orthogonal=orthogonal,
        v_primitive=v_primitive,
        w_primitive=w_primitive,
        v_positive=v_positive,
        w_positive=w_positive,
        slope_condition=slope,
        applicable=orthogonal and v_primitive and w_primitive and v_positive and w_positive and slope,
    )
