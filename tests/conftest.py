from __future__ import annotations

from itertools import combinations

import pytest

from thetacalc.verlinde import VerlindeQuery, verlinde_number

GRID_SUM_MAX = 10
GRID_GENERA = tuple(range(2, 6))


def subsets_colex(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All k-subsets of {1..n} in colexicographic order, as ascending tuples.

    The colex oracle of the tests, independent of the bitmask order the
    package uses.  Colex order compares subsets by their largest members
    first.  Drawn from (n, n-1, ..., 1), combinations come as descending
    tuples in the reverse of that order, so reversing both gives colex
    without a sort.
    """
    return tuple(s[::-1] for s in reversed(list(combinations(range(n, 0, -1), k))))


@pytest.fixture(scope="session")
def verlinde_grid() -> dict[tuple[int, int, int], int]:
    """All v_{r,k} with r+k <= 10 and 2 <= g <= 5, computed once per session."""
    values = {}
    for n in range(2, GRID_SUM_MAX + 1):
        for r in range(1, n):
            for g in GRID_GENERA:
                values[(r, n - r, g)] = verlinde_number(VerlindeQuery(r, n - r, g))
    return values
