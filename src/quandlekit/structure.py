"""Connectivity, profiles, subquandles, and isomorphism of quandle tables.

The profile of a quandle collects the cycle structures of its right
translations: a connected quandle has a single common structure, otherwise
the deduplicated structures are listed in lexicographic order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import (
    CycleStructure,
    Permutation,
    QuandleTable,
    ValidationResult,
    _close_mask,
    _cycles,
)
from .errors import (
    IndexOutOfRange,
    InvalidQuandleError,
    ParamOutOfRange,
    ProfileInconsistency,
    SizeLimitExceeded,
)
from .limits import DEFAULT_ENUM_CAP, resolve_cap

# The all-pairs closure matrix costs n(n-1)/2 * n bytes (4.3 GB at order
# 2048); past this order the subquandle enumeration closes every extension
# from scratch instead.
_PAIR_MATRIX_LIMIT = 512


@dataclass(frozen=True)
class Profile:
    """Deduplicated translation cycle structures; one entry when connected."""

    structures: tuple[CycleStructure, ...]
    connected_form: CycleStructure | None

    @property
    def connected(self) -> bool:
        return self.connected_form is not None

    def __str__(self) -> str:
        if self.connected_form is not None:
            return str(self.connected_form)
        return "[" + "; ".join(str(s) for s in self.structures) + "]"


def orbits(q: QuandleTable) -> tuple[tuple[int, ...], ...]:
    """Orbit partition under the group generated by all right translations."""
    tbl = q.array
    left = np.ones(q.n, dtype=bool)
    out = []
    while left.any():
        # the orbit of the smallest label left: grow it by the rows of its
        # members, since row x lists x * j for every j
        orbit = np.zeros(q.n, dtype=bool)
        orbit[left.argmax()] = True
        size = 1
        while True:
            orbit[tbl[orbit].ravel()] = True
            grown = int(orbit.sum())
            if grown == size:
                break
            size = grown
        left &= ~orbit
        out.append(tuple((np.flatnonzero(orbit) + 1).tolist()))
    return tuple(out)


def is_connected(q: QuandleTable) -> bool:
    """True when the right translations act transitively."""
    return len(orbits(q)) == 1


def is_latin(q: QuandleTable) -> bool:
    """True when every row is also a bijection (left translations invert)."""
    return bool((np.sort(q.array, axis=1) == np.arange(q.n)).all())


def _cycle_lengths(q: QuandleTable) -> list[tuple[int, ...]]:
    """Sorted cycle lengths of each right translation, i.e. of each column."""
    return [tuple(sorted(map(len, _cycles(col)))) for col in q.array.T.tolist()]


def profile(q: QuandleTable) -> Profile:
    """Profile of q; raises ProfileInconsistency if a connected table's
    translations disagree (impossible for a valid table, kept as a guard)."""
    structures = [CycleStructure(lengths) for lengths in _cycle_lengths(q)]
    if is_connected(q):
        first = structures[0]
        for i, s in enumerate(structures[1:], start=2):
            if s != first:
                raise ProfileInconsistency(
                    f"connected table with differing structures at 1 and {i}"
                )
        return Profile((first,), first)
    return Profile(tuple(sorted(set(structures))), None)


def _pair_closure_matrix(tbl: np.ndarray):
    """Closure of every unordered pair, one boolean row per pair.

    Each translation R_g is an automorphism, so closure({a*g, b*g}) is the
    image of closure({a, b}) under R_g.  One direct closure per pair orbit;
    the rest are permutation gathers.
    """
    n = tbl.shape[0]
    inv_cols = np.argsort(tbl, axis=0)  # inv_cols[j, g] = the i with i*g = j
    pair_id = np.full((n, n), -1, dtype=np.int32)
    mat = np.zeros((n * (n - 1) // 2, n), dtype=bool)
    next_id = 0
    queue: deque[tuple[int, int]] = deque()
    for x in range(n):
        for y in range(x + 1, n):
            if pair_id[x, y] >= 0:
                continue
            mat[next_id, [x, y]] = True
            _close_mask(tbl, mat[next_id])
            pair_id[x, y] = next_id
            next_id += 1
            queue.append((x, y))
            while queue:
                a, b = queue.popleft()
                vec = mat[pair_id[a, b]]
                lo = np.minimum(tbl[a], tbl[b])
                hi = np.maximum(tbl[a], tbl[b])
                for g in np.flatnonzero(pair_id[lo, hi] < 0):
                    a2, b2 = int(lo[g]), int(hi[g])
                    if pair_id[a2, b2] >= 0:
                        continue
                    mat[next_id] = vec[inv_cols[:, g]]
                    pair_id[a2, b2] = next_id
                    next_id += 1
                    queue.append((a2, b2))
    return pair_id, mat


def _enumerate_sets(tbl: np.ndarray) -> set[frozenset[int]]:
    """Closed subsets (0-based) by breadth-first growth over boolean masks.

    Every known set S is extended by one outside element e and closed.  Up
    to _PAIR_MATRIX_LIMIT the closure starts from the union of the precomputed
    closures of {s, e} for s in S, and the first layer is read off the matrix.
    """
    n = tbl.shape[0]
    pairs = _pair_closure_matrix(tbl) if n <= _PAIR_MATRIX_LIMIT else None
    known: dict[bytes, np.ndarray] = {}
    for x in range(n):
        v = np.zeros(n, dtype=bool)
        v[x] = True
        known[v.tobytes()] = v
    if pairs is None:
        layer = list(known.values())
    else:
        pair_id, mat = pairs
        layer = []
        for x in range(n):  # extending a singleton is exactly a pair closure
            for y in range(x + 1, n):
                v = mat[pair_id[x, y]]
                key = v.tobytes()
                if key not in known:
                    v = v.copy()
                    known[key] = v
                    layer.append(v)
    while layer:
        grown: list[np.ndarray] = []
        for svec in layer:
            s_idx = np.flatnonzero(svec)
            for e in np.flatnonzero(~svec):
                if pairs is None:
                    u = svec.copy()
                    u[e] = True
                else:
                    ids = pair_id[np.minimum(s_idx, e), np.maximum(s_idx, e)]
                    u = svec | mat[ids].any(axis=0)
                if not u.all():
                    u = _close_mask(tbl, u)
                key = u.tobytes()
                if key not in known:
                    known[key] = u
                    grown.append(u)
        layer = grown
    return {frozenset(np.flatnonzero(v).tolist()) for v in known.values()}


def subquandle_closure(q: QuandleTable, seed) -> frozenset[int]:
    """Smallest subset containing seed and closed under the operation."""
    seed = set(seed)
    if not seed:
        raise ParamOutOfRange("closure needs a non-empty seed")
    for x in seed:
        if not 1 <= x <= q.n:
            raise IndexOutOfRange(f"label {x} outside 1..{q.n}")
    mask = np.zeros(q.n, dtype=bool)
    mask[[x - 1 for x in seed]] = True
    return frozenset((np.flatnonzero(_close_mask(q.array, mask)) + 1).tolist())


def subtable(q: QuandleTable, elements) -> QuandleTable:
    """Extract the table induced on a closed subset, relabeled 1..k by rank.

    A set that is not closed raises InvalidQuandleError with an
    EntryOutOfRange witness at the first escaping product in row-major order.
    """
    elems = sorted(set(elements))
    for x in elems:
        if not 1 <= x <= q.n:
            raise IndexOutOfRange(f"label {x} outside 1..{q.n}")
    if not elems:
        raise InvalidQuandleError(ValidationResult(False, "NonSquare", ()))
    idx = np.array(elems) - 1
    rank = np.full(q.n, -1, dtype=np.int32)
    rank[idx] = np.arange(len(idx))
    sub = rank[q.array[np.ix_(idx, idx)]]
    escaped = np.argwhere(sub < 0)
    if escaped.size:
        i, j = escaped[0].tolist()
        raise InvalidQuandleError(
            ValidationResult(False, "EntryOutOfRange", (i + 1, j + 1))
        )
    return QuandleTable._from_array(sub)


@dataclass(frozen=True)
class SubquandleEntry:
    """One closed subset: its elements (1-based), induced profile, iso class.

    iso_class is the index (into the inventory) of the first entry isomorphic
    to this one, so entries sharing iso_class form an isomorphism class.
    """

    elements: tuple[int, ...]
    order: int
    profile: Profile
    iso_class: int


@dataclass(frozen=True)
class SubquandleInventory:
    parent_order: int
    entries: tuple[SubquandleEntry, ...]

    def classes(self) -> dict[int, tuple[int, ...]]:
        """Map from class representative index to member entry indices."""
        out: dict[int, list[int]] = {}
        for i, e in enumerate(self.entries):
            out.setdefault(e.iso_class, []).append(i)
        return {k: tuple(v) for k, v in sorted(out.items())}

    def non_trivial_proper(self) -> tuple[int, ...]:
        """Indices of entries with 1 < order < parent order."""
        return tuple(
            i for i, e in enumerate(self.entries) if 1 < e.order < self.parent_order
        )


def enumerate_subquandles(
    q: QuandleTable, max_order: int | None = None
) -> SubquandleInventory:
    """All closed subsets, by breadth-first growth from singleton closures.

    Every known subset is extended by one outside element and closed;
    deduplication is by element set.  Entries are sorted by (order, elements)
    and grouped into isomorphism classes.
    """
    cap = resolve_cap(max_order, DEFAULT_ENUM_CAP)
    if q.n > cap:
        raise SizeLimitExceeded(f"order {q.n} exceeds enumeration cap {cap}")
    known = _enumerate_sets(q.array)
    subsets = sorted(known, key=lambda s: (len(s), sorted(s)))
    tables = []
    profiles = []
    for s in subsets:
        elems = tuple(x + 1 for x in sorted(s))
        sub = subtable(q, elems)
        tables.append((elems, sub))
        profiles.append(profile(sub))

    # Group into isomorphism classes, bucketed by (order, profile) first.
    iso_class = [0] * len(subsets)
    buckets: dict[tuple, list[int]] = {}
    for i, (elems, sub) in enumerate(tables):
        buckets.setdefault((len(elems), profiles[i].structures), []).append(i)
    subs = [sub for _, sub in tables]
    for members in buckets.values():
        for rep, group in _group_isomorphic(subs, members).items():
            for i in group:
                iso_class[i] = rep

    entries = tuple(
        SubquandleEntry(elems, len(elems), profiles[i], iso_class[i])
        for i, (elems, sub) in enumerate(tables)
    )
    return SubquandleInventory(q.n, entries)


def _group_isomorphic(tables, members) -> dict[int, list[int]]:
    """Isomorphism classes of tables[i] for i in members, taken in order.

    Maps the first member of each class to its members; every later table is
    compared with the class representatives in the order they were found.
    """
    classes: dict[int, list[int]] = {}
    for i in members:
        for rep, group in classes.items():
            if are_isomorphic(tables[i], tables[rep]) is not None:
                group.append(i)
                break
        else:
            classes[i] = [i]
    return classes


def _element_invariants(q: QuandleTable) -> list[tuple]:
    """Cheap per-element isomorphism invariant: translation cycle lengths
    plus fixed-point count."""
    return [(lengths, lengths.count(1)) for lengths in _cycle_lengths(q)]


def are_isomorphic(q1: QuandleTable, q2: QuandleTable) -> Permutation | None:
    """A bijection f with f(x * y) = f(x) * f(y), or None.

    Backtracking over images, ordered by fewest candidates first; every
    assignment is propagated through the operation, which pins down most of
    the map once a generating set is assigned.
    """
    if q1.n != q2.n:
        return None
    n = q1.n
    inv1 = _element_invariants(q1)
    inv2 = _element_invariants(q2)
    if sorted(inv1) != sorted(inv2):
        return None
    t1 = q1.array.tolist()
    t2 = q2.array.tolist()
    buckets: dict[tuple, list[int]] = {}
    for v in range(n):
        buckets.setdefault(inv2[v], []).append(v)
    cands = [buckets[inv1[x]] for x in range(n)]
    order = sorted(range(n), key=lambda x: (len(cands[x]), x))

    fwd = [-1] * n
    bwd = [-1] * n
    assigned: list[int] = []  # domain elements in assignment order

    def assign(x: int, v: int, trail: list[int]) -> bool:
        stack = [(x, v)]
        while stack:
            a, b = stack.pop()
            cur = fwd[a]
            if cur >= 0:
                if cur != b:
                    return False
                continue
            if bwd[b] >= 0 or inv1[a] != inv2[b]:
                return False
            fwd[a] = b
            bwd[b] = a
            assigned.append(a)
            trail.append(a)
            i = 0
            while i < len(assigned):
                c = assigned[i]
                d = fwd[c]
                stack.append((t1[a][c], t2[b][d]))
                stack.append((t1[c][a], t2[d][b]))
                i += 1
        return True

    def undo(trail: list[int]) -> None:
        for a in reversed(trail):
            b = fwd[a]
            fwd[a] = -1
            bwd[b] = -1
            assigned.pop()  # trail order matches append order

    def backtrack(pos: int) -> bool:
        while pos < n and fwd[order[pos]] >= 0:
            pos += 1
        if pos == n:
            return True
        x = order[pos]
        for v in cands[x]:
            if bwd[v] >= 0:
                continue
            trail: list[int] = []
            if assign(x, v, trail) and backtrack(pos + 1):
                return True
            undo(trail)
        return False

    if not backtrack(0):
        return None
    f = np.array(fwd)
    if not np.array_equal(f[q1.array], q2.array[np.ix_(f, f)]):
        return None  # unreachable; guards the propagation logic
    return Permutation((f + 1).tolist())
