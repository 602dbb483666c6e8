"""Shared fixtures: the order-9 golden table and a bank of known SHQs."""

import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

from quandlekit import (
    GaloisField,
    Permutation,
    QuandleTable,
    affine_quandle,
    galois_affine_quandle,
    shq_family,
)

FIXTURES = Path(__file__).parent / "fixtures"

# Connected order-9 quandle with profile (1, 2, 6); row i holds i*1 .. i*9.
Q94_ROWS = (
    (1, 3, 2, 7, 8, 9, 4, 5, 6),
    (3, 2, 1, 9, 6, 5, 8, 7, 4),
    (2, 1, 3, 5, 4, 7, 6, 9, 8),
    (5, 7, 9, 4, 1, 8, 2, 6, 3),
    (6, 4, 8, 2, 5, 1, 9, 3, 7),
    (7, 9, 5, 8, 3, 6, 1, 4, 2),
    (8, 6, 4, 3, 9, 2, 7, 1, 5),
    (9, 5, 7, 6, 2, 4, 3, 8, 1),
    (4, 8, 6, 1, 7, 3, 5, 2, 9),
)


def trivial_quandle(n: int) -> QuandleTable:
    return QuandleTable.from_rows([(i,) * n for i in range(1, n + 1)])


def dihedral_quandle(n: int) -> QuandleTable:
    """i*j = 2j - i mod n, built directly rather than via the affine helper."""
    return QuandleTable.from_rows(
        [
            tuple((2 * j - i) % n + 1 for j in range(n))
            for i in range(n)
        ]
    )


def relabel(q: QuandleTable, f: Permutation) -> QuandleTable:
    """Transport the table along f: new(f(x), f(y)) = f(old(x, y))."""
    n = q.n
    rows = [[0] * n for _ in range(n)]
    for x in range(1, n + 1):
        for y in range(1, n + 1):
            rows[f(x) - 1][f(y) - 1] = f(q.op(x, y))
    return QuandleTable.from_rows(rows)


def disjoint_union(*pieces: QuandleTable) -> QuandleTable:
    """The pieces side by side, labelled in turn, with x * y = x across
    pieces; built through from_rows, which validates."""
    n = sum(q.n for q in pieces)
    rows = [[x] * n for x in range(1, n + 1)]
    lo = 0
    for q in pieces:
        for x, row in enumerate(q.rows):
            rows[lo + x][lo:lo + q.n] = [lo + v for v in row]
        lo += q.n
    return QuandleTable.from_rows(rows)


def shuffled(q: QuandleTable, seed: int) -> QuandleTable:
    """q relabelled by a seeded random permutation."""
    image = list(range(1, q.n + 1))
    random.Random(seed).shuffle(image)
    return relabel(q, Permutation(image))


# Three orbits with three different translation types, relabelled so that no
# orbit is a block of labels: profile [(1^13, 2); (1^11, 4); (1^9, 6)].
UNION = shuffled(
    disjoint_union(affine_quandle(3, 2), affine_quandle(5, 2), affine_quandle(7, 3)), 15
)


def cyclic_type_quandle(p: int, a: int) -> QuandleTable:
    """Galois affine quandle whose multiplier generates the unit group."""
    field = GaloisField(p, a)
    return galois_affine_quandle(p, a, field.multiplicative_generator())


# Connected and disconnected quandles of order <= 12; affine (8, 5) and
# (12, 7) hold non-isomorphic subquandles of one order.
SMALL = (
    [trivial_quandle(n) for n in (1, 2, 4)]
    + [dihedral_quandle(n) for n in (3, 4, 6, 8, 10, 12)]
    + [affine_quandle(m, h) for m, h in ((5, 2), (7, 3), (9, 2), (11, 2), (8, 5), (12, 7))]
    + [cyclic_type_quandle(2, 2), cyclic_type_quandle(2, 3)]
)

# Tables whose R_1 has distinct cycle lengths, so canonical_relabel applies.
SHQS = [shq_family(p, c) for p, c in ((3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2))] + [
    cyclic_type_quandle(p, a) for p, a in ((2, 2), (2, 3), (2, 4), (3, 2))
]

# The 24 distinct-length profiles within the default search cap that the
# per-block candidate limit accepts, by order.
ACCEPTED_PROFILES = [
    (1, 2), (1, 3), (1, 4), (1, 2, 3), (1, 5), (1, 2, 4), (1, 6), (1, 2, 5),
    (1, 3, 4), (1, 7), (1, 2, 6), (1, 3, 5), (1, 8), (1, 2, 3, 4), (1, 2, 7),
    (1, 3, 6), (1, 4, 5), (1, 9), (1, 2, 3, 5), (1, 2, 8), (1, 3, 7), (1, 4, 6),
    (1, 10), (1, 2, 4, 5),
]


@st.composite
def relabelled(draw, bank):
    q = draw(st.sampled_from(bank))
    return relabel(q, Permutation(draw(st.permutations(range(1, q.n + 1)))))


@pytest.fixture(scope="session")
def q94() -> QuandleTable:
    return QuandleTable.from_rows(Q94_ROWS)


@pytest.fixture(scope="session")
def shq_fixtures(q94) -> list[tuple[str, QuandleTable]]:
    """Every SHQ fixture of order <= 81 used by the property suites."""
    bank = [("q94", q94)]
    for p, c in [(3, 2), (3, 3), (3, 4), (3, 5), (5, 2), (5, 3), (7, 2), (7, 3)]:
        bank.append((f"family({p},{c})", shq_family(p, c)))
    for p, a in [(2, 2), (2, 3), (2, 4), (3, 2), (5, 2)]:
        bank.append((f"cyclic({p}^{a})", cyclic_type_quandle(p, a)))
    return bank
