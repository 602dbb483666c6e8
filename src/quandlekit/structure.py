"""Connectivity, profiles, subquandles, and isomorphism of quandle tables.

The profile of a quandle collects the cycle structures of its right
translations: a connected quandle has a single common structure, otherwise
the deduplicated structures are listed in lexicographic order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .core import (
    CycleStructure,
    Permutation,
    QuandleTable,
    ValidationResult,
    _cycles,
    _generators,
    _merged_orbits,
    _orbit_minima,
    _orbits_meeting,
)
from .errors import (
    IndexOutOfRange,
    InvalidQuandleError,
    ParamOutOfRange,
    SizeLimitExceeded,
)
from .limits import DEFAULT_ENUM_CAP, resolve_cap

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
    """Orbit partition under the group generated by all right translations
    (row x lists the images x * j), ordered by smallest label."""
    groups: dict[int, list[int]] = {}
    for x, low in enumerate(_orbit_minima(q.array).tolist(), start=1):
        groups.setdefault(low, []).append(x)
    return tuple(map(tuple, groups.values()))


def is_connected(q: QuandleTable) -> bool:
    """True when the right translations act transitively."""
    return not _orbit_minima(q.array).any()


def is_latin(q: QuandleTable) -> bool:
    """True when every row is also a bijection (left translations invert)."""
    return bool((np.sort(q.array, axis=1) == np.arange(q.n)).all())


def _cycle_lengths(q: QuandleTable, low: np.ndarray | None = None) -> list[tuple[int, ...]]:
    """Sorted cycle lengths of each column R_x, given low = _orbit_minima(q.array).
    R_(x*j) = R_j R_x R_j^-1, so the translations of one orbit are conjugate:
    only the column of each orbit's smallest label is walked, and orbits whose
    columns are equal share one walk."""
    low = (_orbit_minima(q.array) if low is None else low).tolist()
    reps = sorted(set(low))
    walks, walked = {}, {}
    for x, col in zip(reps, q.array.T[reps]):
        key = col.tobytes()
        if key not in walks:
            walks[key] = tuple(sorted(map(len, _cycles(col.tolist()))))
        walked[x] = walks[key]
    return [walked[x] for x in low]


def profile(q: QuandleTable) -> Profile:
    """Profile of q: the sorted distinct cycle types of its translations,
    one per orbit of labels, and the connected form when there is one orbit."""
    return _typed_profile(q)[1]


def _typed_profile(q: QuandleTable) -> tuple[list[tuple[int, ...]], Profile]:
    """The cycle types of q's columns (_cycle_lengths) and q's profile, from
    one _orbit_minima and one cycle walk per orbit."""
    low = _orbit_minima(q.array)
    types = _cycle_lengths(q, low)
    structures = tuple(map(CycleStructure, sorted(set(types))))
    return types, Profile(structures, None if low.any() else structures[0])


def _grown(tbl: np.ndarray, seeds: np.ndarray, lows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closures of one generation's growth candidates, with their orbits.

    seeds (k, n) are closed sets S as masks, and lows[i] the orbit minima
    of G_S = <R_s : s in S>.  The candidates (S, e), taken seed by seed with
    e ascending, are the smallest labels e of the G_S-orbits outside S.
    Returns, one row per candidate, the mask of closure(S + e) and the
    orbit minima of G_(S + e), merged from lows along R_e (_merged_orbits).

    Every R_x is an automorphism, so closure(X) = <R_x : x in X> . X, the
    lemma the validator's walk rests on too (core._distributive).  The
    closure is the union of the merged orbits that meet S + e, read for all
    candidates in one scatter and one gather, and it generates the same
    group, so the merged minima are also the closure's own orbits when it
    seeds the next generation.
    """
    n = tbl.shape[0]
    which, e = np.nonzero((lows == np.arange(n)) & ~seeds)
    low = _merged_orbits(lows[which], tbl[:, e].T)
    rows = np.arange(len(e))
    members = seeds[which]
    members[rows, e] = True
    hit = np.zeros((len(e), n + 1), dtype=bool)  # column n collects the non-members
    hit[rows[:, None], np.where(members, low, n)] = True
    return np.take_along_axis(hit, low, axis=1), low


def _closed_orbits(tbl: np.ndarray) -> list[np.ndarray]:
    """Closed subsets of a quandle table as boolean masks, one (k, n) array
    of k masks per orbit of the inner automorphism group Inn(Q).

    Every right translation R_g is an automorphism, so Inn(Q) maps closed
    sets to closed sets, and the columns of a generating set generate it.
    An orbit is seeded by one set, its first member, and filled a
    breadth-first layer at a time: one scatter gives the images of the
    whole layer under those columns, with no closure, and the images not
    seen before make the next layer.  The singletons seed the first orbits,
    one per orbit of labels.  Only the first member S of each orbit is
    grown, by one outside element e: growing R(S) by R(e) gives R applied
    to a set found from S, so no orbit is missed.  As each g in
    G_S = <R_s : s in S> maps S onto itself, e need only be the smallest
    label of each G_S-orbit outside S.  Each seed carries those orbits; a
    singleton's come from _orbit_minima on its column, and the seeds found
    by one generation's growth are grown together, their closures and
    orbits read off merged partitions (_grown).  The generating set comes
    from the validator's walk (core._generators), whose closures are read
    off merged partitions too: no closure here is an all-pairs fixpoint.
    """
    n = tbl.shape[0]
    cols = tbl[:, list(_generators(tbl))].T  # row j is R_(gen j)
    rows = np.arange(len(cols))[:, None]
    known: set[bytes] = set()
    out: list[np.ndarray] = []

    def fill(seed: np.ndarray) -> None:
        known.add(seed.tobytes())
        layers = [seed[None]]
        while len(layers[-1]):
            layer = layers[-1]
            images = np.empty((len(layer), len(cols), n), dtype=bool)
            images[:, rows, cols] = layer[:, None]  # [i, j] is R_(gen j)(layer[i])
            images = images.reshape(-1, n)
            fresh = []
            for k, image in enumerate(images):
                key = image.tobytes()
                if key not in known:
                    known.add(key)
                    fresh.append(k)
            layers.append(images[fresh])
        out.append(np.concatenate(layers))

    seeds, lows = [], []
    for x, singleton in enumerate(np.eye(n, dtype=bool)):
        if singleton.tobytes() not in known:
            fill(singleton)
            seeds.append(singleton)
            lows.append(_orbit_minima(tbl[:, [x]]))
    while seeds:
        closures, merged = _grown(tbl, np.array(seeds), np.array(lows))
        seeds, lows = [], []
        for closure, low in zip(closures, merged):
            if closure.tobytes() not in known:
                fill(closure)
                seeds.append(closure)
                lows.append(low)
    return out


def subquandle_closure(q: QuandleTable, seed) -> frozenset[int]:
    """Smallest subset containing seed and closed under the operation: the
    union of the orbits of <R_s : s in seed> that meet seed, as every right
    translation is an automorphism (core._distributive)."""
    seed = set(seed)
    if not seed:
        raise ParamOutOfRange("closure needs a non-empty seed")
    for x in seed:
        if not 1 <= x <= q.n:
            raise IndexOutOfRange(f"label {x} outside 1..{q.n}")
    idx = [x - 1 for x in seed]
    closure = _orbits_meeting(_orbit_minima(q.array[:, idx]), idx)
    return frozenset((np.flatnonzero(closure) + 1).tolist())


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
    """All closed subsets, found orbit by orbit under Inn(Q) (_closed_orbits).

    Entries are sorted by (order, elements).  The members of an orbit are
    isomorphic subquandles, so each orbit's subtable is built once, from
    its first entry: the labels ranked by a cumulative sum, then one
    gather.  Equal subtables (by their bytes) are one class, so cycle
    types and profile are computed once per distinct subtable, and only
    the distinct subtables are grouped into isomorphism classes: the
    trivial subquandles of one order, for one, share a subtable.
    iso_class is the first entry of the class.
    """
    cap = resolve_cap(max_order, DEFAULT_ENUM_CAP)
    if q.n > cap:
        raise SizeLimitExceeded(f"order {q.n} exceeds enumeration cap {cap}")
    # each orbit as its sorted (order, elements, row) keys, read from one
    # stack of all the masks; orbits by their first
    found = _closed_orbits(q.array)
    masks = np.concatenate(found)
    labels = iter((np.nonzero(masks)[1] + 1).tolist())  # row by row
    keys = iter([
        (size, tuple(islice(labels, size)), row)
        for row, size in enumerate(masks.sum(axis=1).tolist())
    ])
    orbits = sorted(sorted(islice(keys, len(orbit))) for orbit in found)
    kinds: dict[bytes, int] = {}  # subtable bytes -> index into subs
    subs, owner, kind = [], [], []  # owner: the first orbit of each subtable
    for i, orbit in enumerate(orbits):
        mask = masks[orbit[0][2]]
        idx = np.flatnonzero(mask)
        rank = np.cumsum(mask, dtype=np.int32) - 1
        sub = rank[q.array[np.ix_(idx, idx)]]
        kind.append(kinds.setdefault(sub.tobytes(), len(subs)))
        if kind[-1] == len(subs):
            subs.append(QuandleTable._from_array(sub))
            owner.append(i)
    types, profiles = zip(*map(_typed_profile, subs))
    listed = sorted((key[:2], i) for i, orbit in enumerate(orbits) for key in orbit)
    index = {key: k for k, (key, _) in enumerate(listed)}

    # Group the subtables into isomorphism classes, bucketed by (order, profile).
    buckets: dict[tuple, list[int]] = {}
    for d, sub in enumerate(subs):
        buckets.setdefault((sub.n, profiles[d].structures), []).append(d)
    iso_class: dict[int, int] = {}
    for members in buckets.values():
        for rep, group in _group_isomorphic(subs, types, members).items():
            iso_class.update(dict.fromkeys(group, index[orbits[owner[rep]][0][:2]]))
    entries = tuple(
        SubquandleEntry(elems, order, profiles[kind[i]], iso_class[kind[i]])
        for (order, elems), i in listed
    )
    return SubquandleInventory(q.n, entries)


def _group_isomorphic(tables, types, members) -> dict[int, list[int]]:
    """Isomorphism classes of tables[i] for i in members, taken in order,
    given the cycle types types[i] of each table's columns (_cycle_lengths).

    Maps the first member of each class to its members.  When there are two
    or more members, a table with a _pair_key joins the class of the first
    table with the same key.  A table without one is compared by
    _isomorphism with the unkeyed class representatives in the order they
    were found; having a key is invariant under isomorphism, so no keyed
    table is isomorphic to an unkeyed one.
    """
    classes: dict[int, list[int]] = {}
    keyed: dict[tuple[int, ...], int] = {}
    unkeyed: list[int] = []
    for i in members:
        key = _pair_key(tables[i].array) if len(members) > 1 else None
        if key is not None:
            classes.setdefault(keyed.setdefault(key, i), []).append(i)
            continue
        for rep in unkeyed:
            if _isomorphism(tables[i], types[i], tables[rep], types[rep]) is not None:
                classes[rep].append(i)
                break
        else:
            unkeyed.append(i)
            classes[i] = [i]
    return classes


def _pair_key(tbl: np.ndarray) -> tuple[int, ...] | None:
    """A canonical form of the connected table tbl (0-based) that some pair
    generates, or None when tbl is disconnected or no pair does.

    Aut(Q) contains Inn(Q), which is transitive on a connected Q, so one
    element of the pair can be 0.  For y != 0, the labelling from (0, y)
    numbers 0 and y first, then each new product a * b and b * a of
    labelled elements, pairs taken by the larger label number b, then a.
    R_0 is an automorphism fixing 0, so every y of one cycle of R_0 gives
    the same relabelled table; one y is taken per cycle, at the shortest
    cycle length at which some (0, y) generates.  An isomorphism fixing 0
    maps these pairs onto each other, so the least relabelled table, in
    row-major order, is the same for isomorphic tables, and only for them.
    Generated by 0 and y, Q is connected when R_0 and R_y have one orbit
    (_orbit_minima on those two columns).
    """
    t = tbl.tolist()
    n = len(t)
    cycles: dict[int, list[int]] = {}  # cycle length of R_0 -> one y per cycle
    for cyc in _cycles([row[0] for row in t])[1:]:
        cycles.setdefault(len(cyc), []).append(cyc[0])
    if set(cycles) == {1}:  # R_0 is the identity, so all R_x are: Q is trivial
        return None

    def labelling(y: int) -> list[int] | None:  # the labels in order, if (0, y) generates
        lab, pos = [0, y], {0: 0, y: 1}
        b = 0
        while b < len(lab) < n:
            x = lab[b]
            row = t[x]
            for a in lab[: b + 1]:
                for z in (t[a][x], row[a]):
                    if z not in pos:
                        pos[z] = len(lab)
                        lab.append(z)
            b += 1
        return lab if len(lab) == n else None

    for size in sorted(cycles):
        labs = [lab for lab in map(labelling, cycles[size]) if lab is not None]
        if labs:
            break
    else:
        return None
    if _orbit_minima(tbl[:, [0, labs[0][1]]]).any():
        return None
    keys = []
    for lab in labs:
        pos = {x: k for k, x in enumerate(lab)}
        keys.append(tuple(pos[t[x][z]] for x in lab for z in lab))
    return min(keys)


def are_isomorphic(q1: QuandleTable, q2: QuandleTable) -> Permutation | None:
    """A bijection f with f(x * y) = f(x) * f(y), or None.

    Backtracking over images, ordered by fewest candidates first; every
    assignment is propagated through the operation, which pins down most of
    the map once a generating set is assigned.
    """
    return _isomorphism(q1, _cycle_lengths(q1), q2, _cycle_lengths(q2))


def _isomorphism(q1, inv1, q2, inv2) -> Permutation | None:
    """are_isomorphic, given the cycle types inv1 and inv2 of the columns."""
    n = q1.n
    if q2.n != n or sorted(inv1) != sorted(inv2):
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
