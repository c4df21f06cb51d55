"""Seeded workload generators.

A workload is a pool of rounds; a round is a fixed list of slots, and each
slot draws its query from the seed.  Every round of a workload has the same
slots, and a slot's variants cost about the same at the commit where the
benchmark was defined.  Runs execute whole rounds, so every run, whatever
its seed, measures the same mix of query costs, and the spread between runs
stays small.

The program sees only the generated argv and, for ``theta-vanishes``, the
points files written into ``inputs_dir``.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import oracle

DEFAULT_SEED = 0
POOL_ROUNDS = 4
FORMATS = ("json", "markdown", "csv")

# Exit codes of the CLI (README.md of the package).
OK, DOMAIN, BUDGET, USAGE = 0, 2, 3, 64


@dataclass(frozen=True)
class Query:
    """One CLI invocation: its argv, the exit code it must give, and what to check."""

    argv: tuple[str, ...]
    kind: str
    expect_code: int = OK
    params: dict = field(default_factory=dict, compare=False)


class _Builder:
    def __init__(self, seed: int, inputs_dir: Path):
        self.rng = random.Random(seed)
        self.inputs_dir = inputs_dir
        self.files = 0

    def pick(self, options):
        return options[self.rng.randrange(len(options))]

    def oriented(self, a: int, b: int) -> tuple[int, int]:
        return (a, b) if self.rng.random() < 0.5 else (b, a)

    def points_file(self, model, z_points, w_points) -> str:
        path = self.inputs_dir / f"points_{self.files}.json"
        self.files += 1
        data = {
            "model": [list(m) for m in model],
            "Z": [[_coord(x), _coord(y)] for x, y in z_points],
            "W": [[_coord(x), _coord(y)] for x, y in w_points],
        }
        path.write_text(json.dumps(data) + "\n")
        return str(path)


def _coord(x: Fraction):
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _fmt(b: _Builder, slot: int, round_no: int) -> tuple[str, ...]:
    # Formats rotate so that every slot meets every format within three rounds.
    fmt = FORMATS[(slot + round_no) % len(FORMATS)]
    return () if fmt == "json" and b.rng.random() < 0.5 else ("--format", fmt)


def _verlinde(r: int, k: int, g: int, *flags: str, prefix=()) -> Query:
    argv = (*prefix, "verlinde", str(r), str(k), str(g), *flags)
    return Query(argv, "verlinde", params={"r": r, "k": k, "g": g})


# -- verlinde-wide -----------------------------------------------------------

# ({r, k}, g, flagged), with r + k from 12 to 15.  Splits are off balance
# where needed so that each slot's sum costs 0.05-0.5 s at the defining
# commit; the two flagged slots carry --modified --check-symmetry, which
# computes the sum five times.  The seed picks only the order of r and k,
# which does not change the cost: complementing a subset maps the k-subsets
# onto the r-subsets with the same distances.  In cost order a round is:
# {5, 7}, flagged {4, 8}, then {4, 9}, {4, 11} and flagged {3, 11} (about
# equal), then the two {5, 8} and {5, 10}.  So the median falls inside the
# group of three and p75 (6.25th of 8) between the two {5, 8} slots.
WIDE_SLOTS = (
    ((5, 7), 3, False),
    ((4, 8), 2, True),
    ((5, 8), 2, False),
    ((4, 9), 3, False),
    ((5, 8), 2, False),
    ((3, 11), 2, True),
    ((4, 11), 3, False),
    ((5, 10), 2, False),
)


def _wide_round(b: _Builder, round_no: int) -> list[Query]:
    out = []
    for split, g, flagged in WIDE_SLOTS:
        r, k = b.oriented(*split)
        flags = ("--modified", "--check-symmetry") if flagged else ()
        out.append(_verlinde(r, k, g, *flags))
    return out


# -- verlinde-deep -----------------------------------------------------------

# {r, k} with r + k from 10 to 14; slot i draws g from the i-th eighth of
# 20..80, so every round spans the whole genus range.  In this range the
# cost of a query hardly depends on g, so {r, k} sets it.  In cost order a
# round is: {4, 6}, {5, 7}, the three {5, 6}, then the two {4, 9} and
# {7, 7}.  So the median falls inside the {5, 6} group and p75 (6.25th of
# 8) between the two {4, 9} slots.
DEEP_SLOTS = ((4, 6), (5, 7), (5, 6), (5, 6), (5, 6), (4, 9), (4, 9), (7, 7))


def _deep_round(b: _Builder, round_no: int) -> list[Query]:
    out = []
    for i, split in enumerate(DEEP_SLOTS):
        r, k = b.oriented(*split)
        lo = 20 + (60 * i) // len(DEEP_SLOTS)
        hi = 20 + (60 * (i + 1)) // len(DEEP_SLOTS)
        out.append(_verlinde(r, k, b.rng.randint(lo, hi)))
    return out


# -- duality-oracle ----------------------------------------------------------

# Monomials x^i y^j by total degree; the model of size n is the first n.
_MONOMIALS = tuple((i, d - i) for d in range(5) for i in range(d, -1, -1))


def _theta_query(b: _Builder, model, z_size: int, vanishing: bool, fmt=()) -> Query:
    """Points for ``duality theta-vanishes``, distinct as exact values.

    The x coordinates are n fixed halves and the y coordinates n fixed
    thirds, each in seeded order.  So the seed changes the points but not
    the size of their fractions, which sets the cost of a query.  A
    vanishing configuration puts every point on the line y = c + s*x, a zero
    set of the section y - c - s*x, which every model here contains.
    """
    n = len(model)
    xs = [Fraction(i - n // 2, 2) for i in range(n)]
    b.rng.shuffle(xs)
    if vanishing:
        c, s = Fraction(b.pick((-1, 1)), 2), b.pick((-1, 1))
        ys = [c + s * x for x in xs]
    else:
        ys = [Fraction(j - n // 2, 3) for j in range(n)]
        b.rng.shuffle(ys)
    points = list(zip(xs, ys))
    # The x are distinct, so no two points coincide; the CLI refuses a
    # configuration that repeats a point, even as "1" and "1/1".
    assert len(set(points)) == n
    z, w = points[:z_size], points[z_size:]
    path = b.points_file(model, z, w)
    return Query(
        (*fmt, "duality", "theta-vanishes", "--points", path),
        "theta",
        params={"model": tuple(model), "Z": tuple(z), "W": tuple(w)},
    )


def _oracle_round(b: _Builder, round_no: int) -> list[Query]:
    out = []
    # One configuration per round lies on the theta divisor: the n = 13 one.
    for n in (10, 11, 12, 13):
        z_size = b.pick((n // 2, (n + 1) // 2))
        out.append(_theta_query(b, _MONOMIALS[:n], z_size, vanishing=n == 13))
    # Thirteen wedge matrices, whose cost does not depend on the seed.  In
    # cost order a round is: six n = 14 wedges, five n = 15 wedges, then two
    # n = 16 wedges and the n = 10 theta query (about equal), then the other
    # three theta queries.  So the median (9th of 17) is the middle n = 15
    # wedge and p75 (13th) the middle of the n = 16 group, never on the edge
    # between two groups of different cost.
    for n in (14,) * 6 + (15,) * 5 + (16,) * 2:
        k = b.pick((n // 2, (n + 1) // 2))
        out.append(Query(("duality", "wedge", str(n), str(k)), "wedge", params={"n": n, "k": k}))
    return out


# -- cli-mix -----------------------------------------------------------------


def _k3_vector(b: _Builder) -> tuple[int, int, int, int]:
    """(rank, sigma, fiber, point) on the elliptic K3 lattice with d_v >= 0."""
    while True:
        v = (b.rng.randint(1, 3), b.rng.randint(-2, 2), b.rng.randint(-3, 3), b.rng.randint(-3, 3))
        if oracle.half_dim(oracle.K3_GRAM, v) >= 0:
            return v


def _ab_vector(b: _Builder) -> tuple[int, int, int]:
    """(rank, c1, point) on the principally polarized abelian lattice, d_v >= 1."""
    while True:
        v = (b.rng.randint(1, 3), b.rng.randint(-3, 3), b.rng.randint(-3, 3))
        if oracle.half_dim(oracle.AB_GRAM, v) >= 1:
            return v


def _mix_round(b: _Builder, round_no: int) -> list[Query]:
    rng = b.rng
    out: list[Query] = []

    def fmt():
        return _fmt(b, len(out), round_no)

    r, k = rng.randint(1, 4), rng.randint(1, 4)
    out.append(_verlinde(r, k, rng.randint(2, 5), prefix=fmt()))
    r, k = rng.randint(1, 3), rng.randint(1, 3)
    out.append(_verlinde(r, k, rng.randint(2, 4), "--modified", "--check-symmetry",
                         "--float-oracle", prefix=fmt()))
    r, k, prec = rng.randint(1, 4), rng.randint(1, 3), rng.randint(20, 40)
    out.append(_verlinde(r, k, rng.randint(2, 6), "--float-oracle",
                         prefix=(*fmt(), "--precision", str(prec))))

    v, w = _k3_vector(b), _k3_vector(b)
    out.append(Query((*fmt(), "mukai", "pair", f"--v={oracle.vector_spec(v)}", f"--w={oracle.vector_spec(w)}"),
                     "mukai-pair", params={"v": v, "w": w}))
    v, w = _k3_vector(b), _k3_vector(b)
    out.append(Query((*fmt(), "mukai", "chi-k3", f"--v={oracle.vector_spec(v)}", f"--w={oracle.vector_spec(w)}"),
                     "mukai-chi-k3", params={"v": v, "w": w}))
    variant = b.pick(tuple(oracle.ABELIAN_VARIANTS))
    while True:  # only pairs on which the formula is defined and integral
        v, w = _ab_vector(b), _ab_vector(b)
        chi = oracle.chi_abelian(v, w, variant)
        if chi is not None and chi.denominator == 1:
            break
    out.append(Query((*fmt(), "--lattice", "abelian_pp", "mukai", "chi-abelian",
                      f"--v={oracle.vector_spec(v)}", f"--w={oracle.vector_spec(w)}", "--variant", variant),
                     "mukai-chi-abelian", params={"v": v, "w": w, "variant": variant}))
    v = _ab_vector(b)
    out.append(Query((*fmt(), "--lattice", "abelian_pp", "mukai", "fm", f"--v={oracle.vector_spec(v)}"),
                     "mukai-fm", params={"v": v}))
    v, w = _k3_vector(b), _k3_vector(b)
    h = (rng.randint(1, 3), rng.randint(1, 6))
    effective = tuple(f for f in ("--v-effective", "--w-effective") if rng.random() < 0.5)
    out.append(Query((*fmt(), "mukai", "conjecture", f"--v={oracle.vector_spec(v)}", f"--w={oracle.vector_spec(w)}",
                      f"--H={h[0]},{h[1]}", *effective),
                     "mukai-conjecture",
                     params={"v": v, "w": w, "H": h,
                             "v_eff": "--v-effective" in effective,
                             "w_eff": "--w-effective" in effective}))

    n = rng.randint(3, 6)
    k = rng.randint(0, n)
    export = str(b.inputs_dir / f"wedge_{round_no}.json")
    out.append(Query((*fmt(), "duality", "wedge", str(n), str(k), "--export", export),
                     "wedge", params={"n": n, "k": k, "export": export}))
    wdim, deg = rng.randint(1, 3), rng.randint(1, 4)
    out.append(Query((*fmt(), "duality", "sym", str(wdim), str(deg)), "sym",
                     params={"wdim": wdim, "n": deg}))
    size = rng.randint(3, 6)
    out.append(_theta_query(b, _MONOMIALS[:size], rng.randint(1, size - 1),
                            rng.random() < 0.25, fmt=fmt()))

    r, a, p = rng.randint(1, 4), rng.randint(1, 8), rng.randint(-3, 1)
    out.append(Query((*fmt(), "elliptic", "normalize", str(r), str(a + r * p), str(p)),
                     "elliptic-normalize", params={"r": r, "k": a + r * p, "p": p}))
    for op in ("nu", "theta-class", "dims"):
        r, s = rng.randint(2, 3), rng.randint(2, 3) if op == "dims" else rng.randint(1, 3)
        m = rng.randint(r + s, r + s + 3) if op == "dims" else rng.randint(1, 8)
        total = m * (r + s) + 2
        a = rng.randint(1, total - 1)
        out.append(Query((*fmt(), "elliptic", op, str(r), str(s), str(a), str(total - a)),
                         f"elliptic-{op}", params={"r": r, "s": s, "a": a, "b": total - a}))

    # Expected refusals: the term budget (3), a domain error (2), a usage error (64).
    r, k = rng.randint(4, 6), rng.randint(4, 6)
    budget = math.comb(r + k, k) - rng.randint(1, 50)
    out.append(Query((*fmt(), "--term-budget", str(budget), "verlinde", str(r), str(k), "2"),
                     "refusal", BUDGET))
    r, s = rng.randint(1, 3), rng.randint(1, 3)
    out.append(Query((*fmt(), "elliptic", "nu", str(r), str(s), "1", str(r + s + 2)),
                     "refusal", DOMAIN))
    out.append(Query((*fmt(), "verlinde", str(rng.randint(1, 5)), str(rng.randint(1, 5))),
                     "refusal", USAGE))
    return out


ROUNDS = {
    "verlinde-wide": _wide_round,
    "verlinde-deep": _deep_round,
    "cli-mix": _mix_round,
    "duality-oracle": _oracle_round,
}

def build(workload: str, seed: int, inputs_dir: Path) -> list[list[Query]]:
    """The pool of ``POOL_ROUNDS`` rounds for one workload and seed; writes input files."""
    inputs_dir.mkdir(parents=True, exist_ok=True)
    b = _Builder(seed, inputs_dir)
    make = ROUNDS[workload]
    return [make(b, i) for i in range(POOL_ROUNDS)]
