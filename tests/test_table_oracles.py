"""The array forms of the structure and SHQ checks against reference oracles.

The library reads every table through `q.array`, whose column x - 1 is the
right translation R_x.  The reference_* functions below are the scalar
forms it used before: they read `q.rows` or build 1-based `Permutation`
objects with `right_translation`.  The hypothesis tests compare the two on
relabelled affine, family, trivial and dihedral tables, on their canonical
forms, and on unchecked copies of those with two columns or two entries of
a column swapped, which make the partition and conjugation checks fail.
`profile` is compared only on the copies that are still quandles: it walks
one translation per orbit, which stands for the orbit only in a quandle.
`reference_fix_block_report` is the fix-block report as it ran before its
power tables, compared on relabelled SHQs and on the copies that still
classify as SHQs; the power and orbit kernels are compared with
`Permutation.__pow__` and `reference_orbits`.

The search checks the conjugation closure only by propagation inside
`_Searcher.generators`.  `batched_closed`, the batched check it ran on each
tree level before, stays here as an oracle: it is compared with
`reference_closed`, the loop over permutation tuples the search ran before
that, on stacks of candidate tables built by `partial_tables`.
`reference_unary_survivors` is the unary filter as it ran before the search
found each block's generators by backtracking: every candidate generator,
unranked a slice of rows at a time by `candidate_slices`, then the commute,
lcm and `batched_closed` filters on its partial table.  The search keeps the
backtracking's leaves with no check of its own, so this is the test that
pins them.  The unranking is compared with `reference_cycle_candidates`,
the recursion that wrote the candidates one row at a time before it.

`reference_inventory` is the subquandle inventory as it was built before the
enumeration went orbit by orbit: every closed set from the breadth-first
growth of `reference_enumerate_sets`, each with its own subtable, profile and
isomorphism test.  test_structure.py compares `enumerate_subquandles` with it.
Its closures come from `reference_closure`, the all-pairs product fixpoint
the library ran before it read every closure off an orbit partition; the
tests hold the validator's generating walk, `subquandle_closure` and the
enumeration's growth to it.

`reference_affine_rows` and `reference_galois_rows` are the per-cell loops
the affine constructions ran before they shared the array kernel
`construct._affine_table`; `reference_family_embedding` is the pairwise
`op` loop `family_embedding` ran before its one gather.  The constructions
wrap their tables without validating them, so `validate_quandle` is checked
on them here.

`reference_parse_qdl` is the `.qdl` reader as it was before the body was read
as one array: one `int()` per token and one list per row;
`reference_read_qdl` decodes the whole file before it.  They and the
per-cell writer `reference_format_qdl` are compared with `read_qdl`,
`parse_qdl` and `format_qdl` on relabelled and trivial tables in varied
layouts, with and without broken, hostile or oversized tokens and bytes,
short and long bodies, and orders above the cap.
"""

import itertools
import os
import random
import sys
from collections import deque
from functools import lru_cache
from math import factorial, gcd, lcm
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quandlekit import (
    ConjugationCheck,
    ConjugationViolation,
    EmbeddingReport,
    FixBlockPartition,
    FixBlockReport,
    FixedPointMissing,
    GaloisField,
    LcmCheck,
    NotAPartition,
    NotCanonicalForm,
    NotRelabelable,
    NotSHQShape,
    ParamOutOfRange,
    ParseError,
    Permutation,
    Profile,
    ProfileInconsistency,
    QuandleTable,
    SubquandleEntry,
    SubquandleInventory,
    affine_quandle,
    are_isomorphic,
    canonical_relabel,
    check_conjugation_relations,
    check_lcm_divisibility,
    classify_shq,
    enumerate_subquandles,
    family_embedding,
    fix_block_report,
    fix_blocks,
    format_qdl,
    from_translations,
    galois_affine_quandle,
    is_connected,
    is_latin,
    orbits,
    parse_qdl,
    profile,
    read_qdl,
    right_translation,
    shq_family,
    subquandle_closure,
    subtable,
    translations,
    validate_quandle,
    verify_main_theorem,
    write_qdl,
)
from quandlekit import construct, core
from quandlekit.core import _column_powers, _orbit_minima
from quandlekit.limits import DEFAULT_TABLE_CAP, ENV_MAX_ORDER, resolve_cap
from quandlekit.shq import CheckOutcome, _block_bounds
from quandlekit.search import _candidate_count, _Searcher
from conftest import (
    ACCEPTED_PROFILES,
    SHQS,
    SMALL,
    UNION,
    dihedral_quandle,
    relabel,
    relabelled,
    trivial_quandle,
)
from test_core import relabelled_rows, union_arrays


def reference_orbits(q: QuandleTable) -> tuple[tuple[int, ...], ...]:
    """Union-find over q.rows: x joins every product x * j."""
    parent = list(range(q.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, row in enumerate(q.rows):
        for v in row:
            rx, rv = find(x), find(v - 1)
            if rx != rv:
                parent[rv] = rx
    groups: dict[int, list[int]] = {}
    for x in range(q.n):
        groups.setdefault(find(x), []).append(x + 1)
    return tuple(tuple(g) for g in sorted(groups.values()))


def reference_is_latin(q: QuandleTable) -> bool:
    full = list(range(1, q.n + 1))
    return all(sorted(row) == full for row in q.rows)


def reference_profile(q: QuandleTable) -> Profile:
    structures = [right_translation(q, i).cycle_structure() for i in range(1, q.n + 1)]
    if len(reference_orbits(q)) == 1:
        first = structures[0]
        for i, s in enumerate(structures[1:], start=2):
            if s != first:
                raise ProfileInconsistency(
                    f"connected table with differing structures at 1 and {i}"
                )
        return Profile((first,), first)
    return Profile(tuple(sorted(set(structures))), None)


def reference_block_lengths(q: QuandleTable) -> list[int]:
    """R_1's cycle lengths; NotCanonicalForm unless R_1 is the block permutation."""
    r1 = right_translation(q, 1)
    lengths = sorted(len(c) for c in r1.cycles())
    canonical, lo = [], 0
    for length in lengths:
        canonical += list(range(lo + 2, lo + length + 1)) + [lo + 1]
        lo += length
    if list(r1.image) != canonical:
        raise NotCanonicalForm(
            "translation 1 is not the canonical block permutation; "
            "use canonical_relabel first"
        )
    return lengths


def reference_fix_blocks(q: QuandleTable, exponent: int) -> FixBlockPartition:
    if exponent < 1:
        raise ParamOutOfRange(f"exponent must be positive, got {exponent}")
    reference_block_lengths(q)
    distinct: dict[frozenset[int], int] = {}
    for x in range(1, q.n + 1):
        p = right_translation(q, x) ** exponent
        fset = frozenset(p.fixed_points())
        if fset not in distinct:
            distinct[fset] = min(fset)
    covered: set[int] = set()
    for fset in distinct:
        if covered & fset:
            raise NotAPartition(
                f"fixed-point sets of R_x^{exponent} overlap: {sorted(fset)}"
            )
        covered |= fset
    if covered != set(range(1, q.n + 1)):
        raise NotAPartition(f"fixed-point sets of R_x^{exponent} do not cover 1..{q.n}")
    sizes = {len(f) for f in distinct}
    if len(sizes) != 1:
        raise NotAPartition(f"fixed-point blocks have unequal sizes {sorted(sizes)}")
    return FixBlockPartition(exponent, {rep: fset for fset, rep in distinct.items()})


def reference_fix_block_report(q: QuandleTable) -> FixBlockReport:
    """fix_block_report as it ran before its power tables: the fixed sets of
    each column (reference_fix_blocks), two powers per label for R_y^l and
    one block_of scan per label for B_x inside F_x."""
    params = classify_shq(q)
    if params is None:
        raise NotSHQShape("fix block laws apply to SHQs only")
    canon, decomp = canonical_relabel(q)
    ell = params.ell
    checked = 0
    bad: list[str] = []
    for m in range(2, decomp.c + 1):
        n_m = decomp.ns[m - 1]
        n_prev = decomp.ns[m - 2]
        ambient = subtable(canon, range(1, n_m + 1))
        try:
            fpart = reference_fix_blocks(ambient, decomp.ell(m - 1))
            bpart = reference_fix_blocks(ambient, ell)
        except NotAPartition as exc:
            bad.append(f"prefix X_{m}: {exc}")
            continue
        checked += 1
        if set(fpart.sizes) != {n_prev}:
            bad.append(f"prefix X_{m}: F sizes {fpart.sizes}, want {n_prev}")
        if set(bpart.sizes) != {ell + 1}:
            bad.append(f"prefix X_{m}: B sizes {bpart.sizes}, want {ell + 1}")
        if m >= 3:
            for x in range(1, n_m + 1):
                if not bpart.block_of(x) <= fpart.block_of(x):
                    bad.append(f"prefix X_{m}: B_{x} escapes F_{x}")
        if not fpart.block_of(n_m) <= set(decomp.block(m)):
            bad.append(f"prefix X_{m}: F_{n_m} escapes L_{m}")
        for rep, blk in sorted(bpart.blocks.items()):
            base = right_translation(ambient, rep) ** ell
            for y in sorted(blk):
                if right_translation(ambient, y) ** ell != base:
                    bad.append(f"prefix X_{m}: R_{y}^{ell} differs inside B_{rep}")
        if m >= 3:
            step = ell * (ell + 1) ** (m - 3)
            want = {n_prev + j * step for j in range(1, ell + 2)}
            got = set(bpart.block_of(n_m))
            if got != want:
                bad.append(
                    f"prefix X_{m}: B_{n_m} = {sorted(got)}, "
                    f"want spacing {step}: {sorted(want)}"
                )
    return FixBlockReport(checked, tuple(bad))


def reference_conjugation(q: QuandleTable) -> ConjugationCheck:
    lengths = reference_block_lengths(q)
    ns = [sum(lengths[:i]) for i in range(1, len(lengths) + 1)]
    trans = translations(q)
    r1 = trans[0]
    r1_inv = r1.inverse()
    for i in range(2, len(lengths) + 1):
        conj = trans[ns[i - 1] - 1]
        for k in range(1, lengths[i - 1] + 1):
            conj = r1 * conj * r1_inv
            if trans[ns[i - 2] + k - 1] != conj:
                return ConjugationCheck(False, (i, k))
    return ConjugationCheck(True)


def reference_lcm(q: QuandleTable) -> LcmCheck:
    lengths = reference_block_lengths(q)
    block_len = (0,) + tuple(x for x in lengths for _ in range(x))  # by label
    bad = []
    for x in range(1, q.n + 1):
        row = q.rows[x - 1]
        for y in range(1, q.n + 1):
            v = row[y - 1]
            if lcm(block_len[x], block_len[y]) % block_len[v]:
                bad.append((x, y, v))
    return LcmCheck(q.n * q.n, tuple(bad))


def reference_from_translations(perms) -> QuandleTable:
    n = len(perms)
    imgs = [p.image for p in perms]
    invs = [p.inverse().image for p in perms]
    for i in range(n):
        for j in range(n):
            target = imgs[imgs[i][j] - 1]
            for x in range(n):
                if target[x] != imgs[i][imgs[j][invs[i][x] - 1] - 1]:
                    raise ConjugationViolation(i + 1, j + 1)
    for i in range(n):
        if imgs[i][i] != i + 1:
            raise FixedPointMissing(i + 1)
    return QuandleTable.from_rows([[imgs[i][j] for i in range(n)] for j in range(n)])


def reference_closed(table, labels) -> bool:
    """R_(v*u) = R_u R_v R_u^-1 at every point, for all u, v in labels with
    v*u in labels; column u of table is R_u, read as a 0-based image tuple."""
    n = len(table)
    trans = {u: tuple(int(x) for x in table[:, u]) for u in labels}
    for u, tu in trans.items():
        tu_inv = [0] * n
        for i, v in enumerate(tu):
            tu_inv[v] = i
        for v, tv in trans.items():
            t = tu[v]
            if t not in trans:
                continue
            tt = trans[t]
            for x in range(n):
                if tt[x] != tu[tv[tu_inv[x]]]:
                    return False
    return True


def batched_closed(tables: np.ndarray, labels) -> np.ndarray:
    """Indices of the tables in a (B, n, n) stack that satisfy the
    conjugation closure on labels: R_(v*u) = R_u R_v R_u^-1 for all u, v in
    labels with v*u in labels, compared pointwise as (y*u)*(v*u) = (y*v)*u,
    which needs no inverse.  Column u of each table is R_u for u in labels;
    no other column is read as a translation.  All pairs of all tables are
    taken in one gather of each side."""
    labels = np.asarray(labels)
    inside = np.zeros(tables.shape[1], dtype=bool)
    inside[labels] = True
    b = np.arange(len(tables))[:, None, None, None]
    cols = tables[:, :, labels]  # (B, n, L): y*u
    v_u = tables[:, labels[:, None], labels]  # (B, V, U): v*u
    lhs = tables[b, cols[:, :, None, :], v_u[:, None]]  # (B, n, V, U): (y*u)*(v*u)
    rhs = tables[b, cols[:, :, :, None], labels]  # (B, n, V, U): (y*v)*u
    ok = (lhs == rhs) | ~inside[v_u][:, None]
    return np.flatnonzero(ok.all(axis=(1, 2, 3)))


def reference_cycle_candidates(n: int, lengths, fixed: int) -> np.ndarray:
    """All 0-based images with cycle type `lengths` whose unique fixed point
    is `fixed`, one per row, written by a recursion over the cycles."""
    out = np.empty((_candidate_count(n, lengths), n), dtype=np.int8)
    big = [x for x in lengths if x > 1]
    img = list(range(n))
    row = 0

    def rec(level: int, remaining: tuple[int, ...]):
        nonlocal row
        if level == len(big):
            out[row] = img
            row += 1
            return
        length = big[level]
        for subset in itertools.combinations(remaining, length):
            left = tuple(x for x in remaining if x not in subset)
            head = subset[0]
            for tail in itertools.permutations(subset[1:]):
                cyc = (head,) + tail
                for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                    img[a] = b
                rec(level + 1, left)
                for a in cyc:
                    img[a] = a

    rec(0, tuple(x for x in range(n) if x != fixed))
    return out


# candidate rows are unranked and filtered this many at a time
SLICE = 4096


def lex_permutations(ranks: np.ndarray, m: int) -> np.ndarray:
    """Row b is the ranks[b]-th permutation of range(m) in lexicographic
    order, the order of itertools.permutations.

    The factorial digits of a rank are its Lehmer code: digit k picks the
    digit-th smallest value not used left of k.  Read from the right, each
    digit shifts up the values at or above it on its right.
    """
    out = np.empty((len(ranks), m), dtype=np.int8)
    for k in range(m):
        out[:, k], ranks = np.divmod(ranks, factorial(m - 1 - k))
    for k in range(m - 2, -1, -1):
        right = out[:, k + 1 :]
        right += right >= out[:, k, None]
    return out


def candidate_slices(n: int, lengths, fixed: int, size: int = SLICE):
    """The rows of reference_cycle_candidates, `size` rows at a time.

    Row r is unranked from its mixed-radix digits, one per cycle length > 1
    with the first length most significant.  A digit picks a subset of the
    points still free, by lexicographic rank among the combinations, and the
    cycle through it, whose head is the subset's first point and whose tail
    is its rest in the lexicographic order of the permutations.  Only the
    combination tables are built per level; the temporaries grow with
    `size`, not with the number of rows.
    """
    levels = []
    free = n - 1
    for length in (x for x in lengths if x > 1):
        subsets = list(itertools.combinations(range(free), length))
        rest = [[x for x in range(free) if x not in c] for c in subsets]
        levels.append((length, np.array(subsets, dtype=np.int8), np.array(rest, dtype=np.int8)))
        free -= length
    points = np.array([x for x in range(n) if x != fixed], dtype=np.int8)
    total = _candidate_count(n, lengths)
    for start in range(0, total, size):
        ranks = np.arange(start, min(start + size, total))
        out = np.tile(np.arange(n, dtype=np.int8), (len(ranks), 1))
        left = np.broadcast_to(points, (len(ranks), len(points)))
        weight = total
        for length, subsets, rest in levels:
            weight //= len(subsets) * factorial(length - 1)
            digit, ranks = np.divmod(ranks, weight)
            pick, tail = np.divmod(digit, factorial(length - 1))
            cyc = np.take_along_axis(left, subsets[pick], axis=1)
            cyc[:, 1:] = np.take_along_axis(
                cyc[:, 1:], lex_permutations(tail, length - 1), axis=1
            )
            np.put_along_axis(out, cyc, np.roll(cyc, -1, axis=1), axis=1)
            left = np.take_along_axis(left, rest[pick], axis=1)
        yield out


def cycle_candidates(n: int, lengths, fixed: int, size: int = SLICE) -> np.ndarray:
    """All 0-based images with cycle type `lengths` whose unique fixed point
    is `fixed`, one per row, in the order of reference_cycle_candidates."""
    return np.concatenate(list(candidate_slices(n, lengths, fixed, size)))


def reference_generators(searcher: _Searcher, level: int):
    """The candidate generators of block level + 2 that commute with
    s = R_1^l and keep the lcm rule, a slice of rows at a time."""
    lo, hi = searcher.ns[level + 1], searcher.ns[level + 2]
    s = searcher.r1_pow[hi - lo]
    need = np.lcm(searcher.block_len, hi - lo)
    for cand in candidate_slices(searcher.n, searcher.lengths, hi - 1):
        cand = cand[(cand[:, s] == s[cand]).all(axis=1)]
        yield cand[(need % searcher.block_len[cand] == 0).all(axis=1)]


def partial_tables(searcher: _Searcher, level: int, gens: np.ndarray) -> np.ndarray:
    """One partial table per generator g of block level + 2, as the search
    built them before it kept only the block's columns: column 0 is R_1,
    column lo + k - 1 is R_1^k g R_1^-k, and the other columns are 0."""
    lo, hi = searcher.ns[level + 1], searcher.ns[level + 2]
    r1 = searcher.r1_pow[1]
    r1_inv = np.argsort(r1)
    out = np.zeros((len(gens), searcher.n, searcher.n), dtype=np.int8)
    out[:, :, 0] = r1
    conj = gens
    for col in range(lo, hi):
        conj = r1[conj[:, r1_inv]]  # R_1 conj R_1^-1, one more power each column
        out[:, :, col] = conj
    return out


def reference_unary_survivors(searcher: _Searcher, level: int) -> np.ndarray:
    """The translations (K, n, l) of block level + 2 that pass the unary
    filter, found by filtering every candidate generator: reference_generators,
    then batched_closed on the block and R_1."""
    lo, hi = searcher.ns[level + 1], searcher.ns[level + 2]
    keep = []
    for cand in reference_generators(searcher, level):
        tables = partial_tables(searcher, level, cand)
        keep.append(tables[batched_closed(tables, [*range(lo, hi), 0])][:, :, lo:hi])
    return np.concatenate(keep)


def reference_closure(tbl: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The closure of the labels in a boolean mask, as a new mask: the
    fixpoint of all-pairs products, every pair of the mask each round."""
    mask = mask.copy()
    while True:
        idx = np.flatnonzero(mask)
        mask[tbl[idx[:, None], idx].ravel()] = True
        if np.count_nonzero(mask) == idx.size:
            return mask


def reference_pair_closures(tbl: np.ndarray):
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
            mat[next_id] = reference_closure(tbl, mat[next_id])
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


def reference_enumerate_sets(tbl: np.ndarray) -> set[frozenset[int]]:
    """Closed subsets (0-based) by breadth-first growth over boolean masks.

    Every known set S is extended by one outside element e and closed; the
    closure starts from the union of the pair closures of {s, e} for s in S,
    and the first layer is read off the pair closures.
    """
    n = tbl.shape[0]
    pair_id, mat = reference_pair_closures(tbl)
    known: dict[bytes, np.ndarray] = {}
    for x in range(n):
        v = np.zeros(n, dtype=bool)
        v[x] = True
        known[v.tobytes()] = v
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
                ids = pair_id[np.minimum(s_idx, e), np.maximum(s_idx, e)]
                u = svec | mat[ids].any(axis=0)
                if not u.all():
                    u = reference_closure(tbl, u)
                key = u.tobytes()
                if key not in known:
                    known[key] = u
                    grown.append(u)
        layer = grown
    return {frozenset(np.flatnonzero(v).tolist()) for v in known.values()}


def reference_inventory(q: QuandleTable) -> SubquandleInventory:
    """Every closed set with its own subtable and profile, sorted by (order,
    elements); iso_class is the first entry isomorphic to it."""
    subsets = sorted(reference_enumerate_sets(q.array), key=lambda s: (len(s), sorted(s)))
    elems = [tuple(x + 1 for x in sorted(s)) for s in subsets]
    subs = [subtable(q, e) for e in elems]
    profiles = [profile(sub) for sub in subs]
    reps: list[int] = []
    iso_class = []
    for i, sub in enumerate(subs):
        rep = next(
            (j for j in reps
             if (len(elems[j]), profiles[j]) == (len(elems[i]), profiles[i])
             and are_isomorphic(sub, subs[j]) is not None),
            None,
        )
        if rep is None:
            reps.append(i)
            rep = i
        iso_class.append(rep)
    return SubquandleInventory(q.n, tuple(
        SubquandleEntry(e, len(e), p, c) for e, p, c in zip(elems, profiles, iso_class)
    ))


def reference_affine_rows(m: int, h: int) -> list[list[int]]:
    """a * b = h*a + (1-h)*b on Z_m, 1-based, one cell at a time."""
    h %= m
    k = (1 - h) % m
    rows = []
    for a in range(m):
        ha = h * a
        rows.append([(ha + k * b) % m + 1 for b in range(m)])
    return rows


def reference_galois_rows(p: int, a: int, multiplier) -> list[list[int]]:
    """x * y = h*x + (1-h)*y over GF(p^a), 1-based, one field addition and
    encoding per cell; multiplier is an encoding or a coefficient tuple."""
    field = GaloisField(p, a)
    h = field.element(multiplier) if isinstance(multiplier, int) else tuple(multiplier)
    k = field.sub(field.one, h)
    elems = field.elements()
    hx = [field.mul(h, x) for x in elems]
    ky = [field.mul(k, y) for y in elems]
    rows = []
    for x in range(field.order):
        rows.append([field.encode(field.add(hx[x], ky[y])) + 1 for y in range(field.order)])
    return rows


def reference_digit_sum(hx: np.ndarray, ky: np.ndarray, base: int, digits: int) -> np.ndarray:
    """hx[x] + ky[y] added digit by digit mod base, as `construct._affine_table`
    added them before it read two tables of digit-wise sums: 4 n x n passes
    per digit."""
    table = np.zeros((len(hx), len(ky)), dtype=np.int32)
    cell = np.empty_like(table)
    for d in range(digits):
        place = base**d
        np.add.outer(hx // place % base, ky // place % base, out=cell)
        np.remainder(cell, base, out=cell)
        cell *= place
        table += cell
    return table


def reference_family_embedding(p: int, c: int) -> EmbeddingReport:
    """The embedding checks by one `op` call per pair; reads the members
    through `construct.shq_family`, so a patched family reaches it too."""
    small = construct.shq_family(p, c)
    big = construct.shq_family(p, c + 1)
    image = [p * (x - 1) + 1 for x in range(1, small.n + 1)]
    checks = []
    distinct = len(set(image)) == small.n and all(1 <= v <= big.n for v in image)
    checks.append(CheckOutcome("injective", distinct, f"{small.n} distinct images"))
    hom_bad = None
    for x in range(1, small.n + 1):
        for y in range(1, small.n + 1):
            if big.op(image[x - 1], image[y - 1]) != image[small.op(x, y) - 1]:
                hom_bad = (x, y)
                break
        if hom_bad:
            break
    checks.append(CheckOutcome(
        "homomorphism",
        hom_bad is None,
        "f(x*y) = f(x)*f(y) on all pairs" if hom_bad is None else f"fails at {hom_bad}",
    ))
    img_set = set(image)
    closed = all(big.op(u, v) in img_set for u in image for v in image)
    checks.append(CheckOutcome("image_closed", closed, f"image of size {len(img_set)}"))
    same = subtable(big, image) == small if closed else False
    checks.append(CheckOutcome(
        "induced_table",
        same,
        "induced table equals the smaller member" if same else "induced table differs",
    ))
    return EmbeddingReport(p, c, tuple(checks))


def _reference_decimal_ints(text: str) -> list[int]:
    if not text.isascii() or "+" in text or "_" in text:
        raise ValueError(f"not ASCII decimal: {text!r}")
    return [int(tok) for tok in text.split()]


def reference_parse_qdl(text: str) -> QuandleTable:
    """Line by line, one int() per token, then the nested rows to from_rows."""
    data: list[tuple[int, str]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        data.append((lineno, stripped))
    if not data:
        raise ParseError("no table data found")
    lineno, head = data[0]
    tokens = head.split()
    if len(tokens) != 1:
        raise ParseError(f"expected a single order, found {head!r}", lineno)
    try:
        (n,) = _reference_decimal_ints(tokens[0])
    except ValueError:
        raise ParseError(f"invalid order {tokens[0]!r}", lineno) from None
    if n < 1:
        raise ParseError(f"order must be positive, found {n}", lineno)
    body = data[1:]
    if len(body) < n:
        last = data[-1][0]
        raise ParseError(f"expected {n} rows, file ends after {len(body)}", last)
    if len(body) > n:
        raise ParseError("unexpected content after table", body[n][0])
    cap = resolve_cap(None, DEFAULT_TABLE_CAP)
    if n > cap:
        raise ParseError(f"order {n} exceeds the cap {cap} ({ENV_MAX_ORDER})", lineno)
    rows = []
    for lineno, line in body:
        tokens = line.split()
        if len(tokens) != n:
            raise ParseError(f"expected {n} entries, found {len(tokens)}", lineno)
        try:
            rows.append(_reference_decimal_ints(line))
        except ValueError:
            raise ParseError(f"invalid integer in row: {line!r}", lineno) from None
    return QuandleTable.from_rows(rows)


def reference_read_qdl(raw: bytes) -> QuandleTable:
    """The file reader as it was before it read the header first: the whole
    file decoded, then reference_parse_qdl."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((raw[: exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(f"not valid UTF-8 (byte {raw[exc.start]:#04x})", line) from None
    return reference_parse_qdl(text)


def reference_format_qdl(q: QuandleTable, comments=()) -> str:
    out = [f"# {c}" for c in comments]
    out.append(str(q.n))
    out.extend(" ".join(map(str, row)) for row in (q.array + 1).tolist())
    return "\n".join(out) + "\n"


def outcome(fn, *args):
    """fn's result, or its exception's type and message, and the line of a
    ParseError or the validation result of an InvalidQuandleError."""
    try:
        return fn(*args)
    except Exception as exc:  # compared, not handled
        return (type(exc).__name__, str(exc), getattr(exc, "line", None),
                getattr(exc, "result", None))


# a random relabelling of an affine, family, trivial or even-order dihedral
# table, order <= 40
relabelled_tables = relabelled_rows().map(QuandleTable.from_rows)


@st.composite
def canonical_tables(draw):
    """The canonical form of a relabelled table when it has one, else the
    table itself; then, unchecked, one change to the translations other than
    R_1: two of them swapped, two entries of one swapped, or one replaced by
    a random permutation."""
    q = draw(relabelled_tables)
    try:
        q = canonical_relabel(q)[0]
    except NotRelabelable:
        pass
    t = np.array(q.array)
    mutation = draw(st.sampled_from(["none", "columns", "entries", "permutation"]))
    if mutation != "none" and q.n >= 3:
        a, b = draw(st.lists(st.integers(1, q.n - 1), min_size=2, max_size=2, unique=True))
        if mutation == "columns":
            t[:, [a, b]] = t[:, [b, a]]
        elif mutation == "entries":
            x, y = draw(st.lists(st.integers(0, q.n - 1), min_size=2, max_size=2, unique=True))
            t[[x, y], a] = t[[y, x], a]
        else:
            t[:, a] = draw(st.permutations(range(q.n)))
    return QuandleTable._from_array(t)


class TestArrayFormsMatchReference:
    @settings(max_examples=80, deadline=None)
    @given(relabelled_tables)
    def test_structure(self, q):
        assert orbits(q) == reference_orbits(q)
        assert is_connected(q) == (len(reference_orbits(q)) == 1)
        assert is_latin(q) == reference_is_latin(q)
        assert profile(q) == reference_profile(q)

    @settings(max_examples=120, deadline=None)
    @given(canonical_tables(), st.integers(0, 14))
    def test_shq_checks(self, q, exponent):
        if validate_quandle(q.array + 1).ok:
            assert outcome(profile, q) == outcome(reference_profile, q)
        assert outcome(fix_blocks, q, exponent) == outcome(reference_fix_blocks, q, exponent)
        assert outcome(check_conjugation_relations, q) == outcome(reference_conjugation, q)
        assert outcome(check_lcm_divisibility, q) == outcome(reference_lcm, q)

    @settings(max_examples=60, deadline=None)
    @given(
        relabelled_tables, st.sampled_from(["none", "swap", "replace", "constant"]), st.data()
    )
    def test_from_translations(self, q, mutation, data):
        perms = list(translations(q))
        if mutation == "swap":
            i, j = data.draw(st.integers(0, q.n - 1)), data.draw(st.integers(0, q.n - 1))
            perms[i], perms[j] = perms[j], perms[i]
        elif mutation == "replace":
            i = data.draw(st.integers(0, q.n - 1))
            perms[i] = Permutation(data.draw(st.permutations(range(1, q.n + 1))))
        elif mutation == "constant":  # conjugation holds, fixed points may not
            perms = [Permutation(data.draw(st.permutations(range(1, q.n + 1))))] * q.n
        assert outcome(from_translations, perms) == outcome(reference_from_translations, perms)


class TestFixBlockReportOracle:
    def test_report_matches_reference(self):
        """The violations in content and order, or the exception's type and
        message, on relabelled SHQs and on canonical_tables that still
        classify as SHQs (their profile reads R_1 and the orbits only); the
        changed copies must break the laws in some cases."""
        violated = []
        shqs = canonical_tables().filter(lambda q: classify_shq(q) is not None)

        @settings(max_examples=150, deadline=None)
        @given(st.one_of(relabelled(SHQS), shqs))
        def check(q):
            got = outcome(fix_block_report, q)
            assert got == outcome(reference_fix_block_report, q)
            if isinstance(got, FixBlockReport) and got.violations:
                violated.append(got)

        check()
        assert violated


class TestPowerAndOrbitKernels:
    def test_column_powers_match_permutation_powers(self):
        rng = random.Random(17)
        for n in (1, 2, 5, 9, 16):
            tbl = np.array([rng.sample(range(n), n) for _ in range(n)], dtype=np.int32).T
            perms = [Permutation((tbl[:, x] + 1).tolist()) for x in range(n)]
            for k in range(2 * n + 1):
                powers = _column_powers(tbl, k)
                for x, perm in enumerate(perms):
                    assert tuple((powers[:, x] + 1).tolist()) == (perm**k).image

    def test_orbit_minima_on_long_cycles(self):
        # one column of shq_family(5, 4) moves labels along cycles of length 100
        tbl = shq_family(5, 4).array
        n = tbl.shape[0]
        for x in range(n):
            groups: dict[int, list[int]] = {}
            for y, low in enumerate(_orbit_minima(tbl[:, [x]]).tolist(), start=1):
                groups.setdefault(low, []).append(y)
            column = QuandleTable._from_array(np.repeat(tbl[:, [x]], n, axis=1))
            assert tuple(map(tuple, groups.values())) == reference_orbits(column)


def walk_closures(t: np.ndarray) -> tuple[list[int], list[tuple[np.ndarray, np.ndarray]]]:
    """The labels the validator's generating walk yields on the quandle t,
    driven as _distributive drives it (each label sent back with the labels
    whose columns equal its own), and the (mask, closure) of every closure
    the walk takes."""
    taken = []
    real = core._orbits_meeting

    def spy(low, labels):
        closure = real(low, labels)
        taken.append((labels.copy(), closure.copy()))
        return closure

    gens = []
    with patch.object(core, "_orbits_meeting", spy):
        walk = core._generators(t)
        g = next(walk)
        try:
            while True:
                gens.append(g)
                g = walk.send(np.flatnonzero((t == t[:, [g]]).all(axis=0)))
        except StopIteration:
            pass
    return gens, taken


class TestClosureKernel:
    """Every closure in the library is read off an orbit partition: the
    generating walk's and subquandle_closure's are held here to the
    all-pairs fixpoint reference_closure (test_structure.py holds the
    enumeration's growth to it)."""

    @staticmethod
    def check(t: np.ndarray, seeds) -> None:
        gens, taken = walk_closures(t)
        assert len(taken) == len(gens)
        for g, (mask, closure) in zip(gens, taken):
            assert mask[g]
            assert np.array_equal(closure, reference_closure(t, mask))
        # each label yielded is the smallest one outside the closure before it
        assert gens == [0] + [int(np.argmin(c)) for _, c in taken[:-1]]
        assert taken[-1][1].all()
        q = QuandleTable._from_array(t)
        for seed in seeds:
            mask = np.zeros(len(t), dtype=bool)
            mask[list(seed)] = True
            want = np.flatnonzero(reference_closure(t, mask)) + 1
            assert subquandle_closure(q, {x + 1 for x in seed}) == frozenset(want.tolist())

    @settings(max_examples=200, deadline=None)
    @given(union_arrays(max_order=24), st.data())
    def test_union_arrays(self, t, data):
        seed = st.sets(st.integers(0, len(t) - 1), min_size=1, max_size=3)
        self.check(t, data.draw(st.lists(seed, max_size=4)))

    @settings(max_examples=60, deadline=None)
    @given(relabelled([*SMALL, UNION]), st.data())
    def test_relabelled_tables(self, q, data):
        seed = st.sets(st.integers(0, q.n - 1), min_size=1, max_size=3)
        self.check(q.array, data.draw(st.lists(seed, max_size=4)))


class LevelSearcher(_Searcher):
    """The search as it ran before each tree node found its own generators.

    generators(level) sees only R_1 and its own block, prepare keeps each
    block's unary survivors once, and run combines them depth-first, with
    batched_closed on all the labels of each prefix.  It is the oracle for the
    node-wise generators and hits of _Searcher.
    """

    def generators(self, level: int) -> np.ndarray:
        """The unary survivors of block level + 2, as (K, n) int8 generators
        g, by backtracking over the partial image of g.

        g fixes n_i and no other label; the labels of L = {1} + the block are
        branched on first.  Each choice is propagated to a fixpoint through
        g(s y) = s g(y), s = R_1^l, and g(R_v(y)) = R_(g(v))(g(y)) for v, g(v)
        in L (the closure at u = n_i), R_v = R_1^k g R_1^-k read through the
        partial g.  A branch ends when g is not injective, breaks the lcm rule,
        closes a cycle whose length is not an unused one of the profile, or
        has an open path longer than every unused length.
        """
        n, lengths = self.n, self.lengths[1:]
        lo, hi = self.ns[level + 1], self.ns[level + 2]
        r = {k: self.r1_pow[k].tolist() for k in range(lo - hi, hi - lo + 1)}
        s, blen = r[hi - lo], self.block_len.tolist()
        need = np.lcm(self.block_len, hi - lo).tolist()
        labels = [0, *range(lo, hi - 1)]
        in_l = [x == 0 or lo <= x < hi for x in range(n)]

        def read(v, y, img):  # R_v(y) through the partial g, or -1; R_1 reads no g
            t = img[r[lo - 1 - v][y]] if v else y
            return r[v - lo + 1 if v else 1][t] if t >= 0 else -1

        def propagate(img, inv, used, stack):  # the new closed lengths, or None
            while stack:
                a, b = stack.pop()
                if img[a] == b:
                    continue
                if img[a] >= 0 or inv[b] >= 0 or a == b or need[a] % blen[b]:
                    return None
                img[a], inv[b] = b, a
                head, tail, size = a, b, 1
                while tail != a and img[tail] >= 0:
                    tail, size = img[tail], size + 1
                if tail == a:  # a cycle of `size` closed
                    if size not in lengths or used >> size & 1:
                        return None
                    used |= 1 << size
                else:  # an open path of size + 1 labels and more before a
                    while inv[head] >= 0:
                        head, size = inv[head], size + 1
                    if all(x <= size or used >> x & 1 for x in lengths):
                        return None
                stack.append((s[a], s[b]))
                # the instances (v, y) whose reads of g the new value completes
                for v in labels:
                    w = img[v]
                    if w < 0 or not in_l[w]:
                        continue
                    if v == a:
                        ys = range(n)
                    else:  # y = a, and the y whose R_v(y) or R_w(g(y)) reads g at a
                        ys = (a, r[v - lo + 1][a] if v else a, inv[r[w - lo + 1][a]] if w else -1)
                    for y in ys:
                        if y >= 0 and img[y] >= 0:
                            x, t = read(v, y, img), read(w, img[y], img)
                            if x >= 0 and t >= 0:
                                stack.append((x, t))
            return used

        order = labels + [x for x in range(n) if not in_l[x]]
        found = []

        def branch(img, inv, used):
            x = next((x for x in order if img[x] < 0), None)
            if x is None:
                return found.append(img)
            for v in range(n):
                img2, inv2 = img[:], inv[:]
                used2 = propagate(img2, inv2, used, [(x, v)])
                if used2 is not None:
                    branch(img2, inv2, used2)

        start = [x if x == hi - 1 else -1 for x in range(n)]
        branch(start, start[:], 0)
        return np.array(found, dtype=np.int8).reshape(-1, n)

    def prepare(self):
        """Keep each block's unary survivors: the generators whose tables pass
        the conjugation closure on L = {1} + the block, which are exactly the
        leaves of generators."""
        self.filtered = [  # per block, the survivors' translations (K, n, l)
            self.block_columns(level, self.generators(level))
            for level in range(len(self.lengths) - 1)
        ]

    def run(self):
        """Depth-first over the unary survivors; returns (quandles, tables
        checked)."""
        checked = 0
        found: list[QuandleTable] = []

        def descend(level: int, table: np.ndarray):
            nonlocal checked
            lo, hi = self.ns[level + 1], self.ns[level + 2]
            blocks = self.filtered[level]
            checked += len(blocks)
            stack = np.repeat(table[None], len(blocks), axis=0)
            stack[:, :, lo:hi] = blocks
            for child in stack[batched_closed(stack, range(hi))]:
                if hi < self.n:
                    descend(level + 1, child)
                elif is_connected(q := QuandleTable._from_array(child)):
                    found.append(q)

        root = np.zeros((self.n, self.n), dtype=np.int8)
        root[:, 0] = self.r1_pow[1]
        descend(0, root)
        return found, checked


@lru_cache(maxsize=None)
def prepared(lengths) -> LevelSearcher:
    searcher = LevelSearcher(lengths)
    searcher.prepare()
    return searcher


@lru_cache(maxsize=None)
def raw_candidates(lengths, level: int):
    searcher = prepared(lengths)
    return cycle_candidates(searcher.n, lengths, searcher.ns[level + 2] - 1)


@st.composite
def closure_stacks(draw):
    """(stack, labels) as the search builds them, at most 8 tables.

    A unary stack derives the tables of one block from raw candidates and
    unary survivors, on labels {1} + the block.  A tree stack combines unary
    survivors of the first blocks, on the labels of that prefix.  One column
    of one table may be replaced by a random permutation.
    """
    lengths = draw(st.sampled_from([(1, 2, 6), (1, 3, 6), (1, 4), (1, 2, 4)]))
    searcher = prepared(lengths)
    n, ns = searcher.n, searcher.ns
    size = draw(st.integers(1, 8))
    if draw(st.booleans()):
        level = draw(st.integers(0, len(lengths) - 2))
        raw = raw_candidates(lengths, level)
        gens = searcher.filtered[level][:, :, -1]  # column n_i holds the generator
        pool = np.concatenate([raw, gens])
        pick = st.integers(0, len(raw) - 1) | st.integers(len(raw), len(pool) - 1)
        picks = draw(st.lists(pick, min_size=size, max_size=size))
        stack = partial_tables(searcher, level, pool[picks])
        labels = [0, *range(ns[level + 1], ns[level + 2])]
    else:
        depth = draw(st.integers(1, len(lengths) - 1))
        stack = np.zeros((size, n, n), dtype=np.int8)
        stack[:, :, 0] = searcher.r1_pow[1]
        for level in range(depth):
            blocks = searcher.filtered[level]
            picks = draw(st.lists(st.integers(0, len(blocks) - 1), min_size=size, max_size=size))
            stack[:, :, ns[level + 1] : ns[level + 2]] = blocks[picks]
        labels = list(range(ns[depth + 1]))
    if draw(st.booleans()):
        b = draw(st.integers(0, size - 1))
        u = draw(st.sampled_from(labels))
        stack[b, :, u] = draw(st.permutations(range(n)))
    return stack, labels


def outside_pairs_case():
    """(stack, labels) for the canonical table of shq_family(3, 3), profile
    (1,2,6), on the labels {0, 3..8} with its block-2 columns 1 and 2 zeroed.

    The closure holds, and 12 pairs (u, v) have v*u in the zeroed block, so
    only the exemption for v*u outside the labels keeps the table.  It is built
    by hand: closure_stacks takes its tables from the search's own survivors,
    and yields none like it.
    """
    table = canonical_relabel(shq_family(3, 3))[0].array.copy()
    table[:, 1:3] = 0
    return table[None], [0, *range(3, 9)]


class TestSearchClosure:
    @settings(max_examples=150, deadline=None)
    @given(closure_stacks())
    @example(outside_pairs_case())
    def test_batched_matches_reference(self, case):
        stack, labels = case
        want = [b for b, table in enumerate(stack) if reference_closed(table, labels)]
        assert batched_closed(stack, labels).tolist() == want


class NodeRecorder(_Searcher):
    """The search, keeping (level, table, generators) of each tree node."""

    def __init__(self, lengths):
        super().__init__(lengths)
        self.nodes = []

    def generators(self, level, table):
        gens = super().generators(level, table)
        self.nodes.append((level, table.copy(), gens))
        return gens


def closure_on_pairs(table: np.ndarray, pairs, hi: int) -> bool:
    """R_(v*u) = R_u R_v R_u^-1 for the pairs (u, v) with v*u below hi."""
    for u, v in pairs:
        w = table[v, u]
        if w < hi and not (table[table[:, u], w] == table[table[:, v], u]).all():
            return False
    return True


class TestNodeGenerators:
    # (1,2,3,6) is the smallest profile with an assigned u whose R_u(n_i) is
    # assigned, forcing a generator, and with assigned u, v whose v*u is n_i
    @pytest.mark.parametrize("lengths", [*ACCEPTED_PROFILES, (1, 2, 3, 6)], ids=str)
    def test_node_generators_match_level_oracle(self, lengths):
        """At every tree node, the generators are the level's unary survivors
        whose child table passes the closure on the pairs the assigned columns
        give with n_i: (n_i, v) for v < hi, (u, n_i) for u < lo, and (u, v)
        for u, v < lo with v*u = n_i.  These are exactly the survivors whose
        child passes the closure on all its labels, so the search needs no
        check of its own after generators.  The generators are a subset of
        the survivors, the root's are all of them (which TestUnarySurvivors
        pins to reference_unary_survivors), and the hits are the oracle's."""
        oracle = prepared(lengths)
        search = NodeRecorder(lengths)
        hits = search.run()
        want, _ = oracle.run()
        assert sorted(q.rows for q in hits) == sorted(q.rows for q in want)
        assert search.nodes
        for level, table, gens in search.nodes:
            lo, hi = search.ns[level + 1], search.ns[level + 2]
            got = list(map(bytes, search.block_columns(level, gens)))
            assert len(set(got)) == len(got), level
            ref = oracle.filtered[level]
            children = np.repeat(table[None], len(ref), axis=0)
            children[:, :, lo:hi] = ref
            pairs = [(hi - 1, v) for v in range(hi)] + [(u, hi - 1) for u in range(lo)]
            pairs += [(u, v) for u in range(lo) for v in range(lo) if table[v, u] == hi - 1]
            exact = {bytes(b) for b, t in zip(ref, children) if closure_on_pairs(t, pairs, hi)}
            closed = set(map(bytes, ref[batched_closed(children, range(hi))]))
            assert set(got) <= set(map(bytes, ref)), level
            assert set(got) == exact, level
            assert set(got) == closed, level
            if level == 0:
                assert sorted(got) == sorted(map(bytes, ref))


class TestUnarySurvivors:
    @pytest.mark.parametrize("lengths", ACCEPTED_PROFILES, ids=str)
    def test_backtracking_matches_reference(self, lengths):
        """Every level of every profile the search accepts: the same blocks
        as filtering every candidate, each once."""
        searcher = prepared(lengths)
        assert len(searcher.filtered) == len(lengths) - 1
        for level, got in enumerate(searcher.filtered):
            want = reference_unary_survivors(searcher, level)
            assert got.dtype == want.dtype == np.int8
            assert got.shape[1:] == want.shape[1:]
            assert sorted(map(bytes, got)) == sorted(map(bytes, want)), level
            assert len(set(map(bytes, got))) == len(got), level


# the 22 distinct-length profiles with at most 250,000 candidates per block,
# (1,2,8), (1,3,7), (1,4,6) and (1,2,3,5) the largest (all of them have order
# <= 12), and (1,10), the profile of shq_family(11, 2)
CANDIDATE_PROFILES = sorted(
    {
        (1, *rest)
        for size in range(1, 5)
        for rest in itertools.combinations(range(2, 12), size)
        if sum(rest) <= 11 and _candidate_count(1 + sum(rest), (1, *rest)) <= 250_000
    }
    | {(1, 10)},
    key=lambda lengths: (sum(lengths), lengths),
)


@lru_cache(maxsize=8)
def cached_reference_candidates(lengths, fixed: int) -> np.ndarray:
    return reference_cycle_candidates(sum(lengths), lengths, fixed)


@st.composite
def candidate_cases(draw):
    """(lengths, fixed, slice size): a profile, the fixed point of one of its
    block generators, and a slice size for candidate_slices."""
    lengths = draw(st.sampled_from(CANDIDATE_PROFILES))
    fixed = draw(st.sampled_from([b - 1 for b in _block_bounds(lengths)[1:]]))
    return lengths, fixed, draw(st.sampled_from([1, 7, 4096]))


class TestCycleCandidates:
    @settings(max_examples=20, deadline=None)
    @given(candidate_cases())
    @example(((1, 2, 8), 2, 4096))
    @example(((1, 2, 8), 10, 4096))
    @example(((1, 10), 10, 4096))
    @example(((1, 10), 10, 1))
    def test_slices_match_reference(self, case):
        """Same rows in the same order as the recursion.  With slices of 1
        or 7 rows the slice edges fall inside every level; at those sizes only
        the first 500 slices are compared."""
        lengths, fixed, size = case
        n = sum(lengths)
        want = cached_reference_candidates(lengths, fixed)
        if len(want) <= 500 * size:
            got = cycle_candidates(n, lengths, fixed, size)
        else:
            got = np.concatenate(
                list(itertools.islice(candidate_slices(n, lengths, fixed, size), 500))
            )
            want = want[: len(got)]
        assert got.dtype == np.int8
        assert np.array_equal(got, want)


class TestIsomorphismMaps:
    def test_search_order_is_pinned(self, q94):
        # which isomorphism comes back depends on the search order; these are
        # the maps the 1-based, rows-reading search returned
        sigma = Permutation([4, 9, 1, 7, 2, 8, 5, 3, 6])
        assert are_isomorphic(q94, relabel(q94, sigma)).image == (1, 4, 9, 3, 5, 7, 6, 8, 2)
        q = shq_family(3, 3)
        tau = Permutation([(7 * x) % 10 for x in range(1, 10)])
        assert are_isomorphic(relabel(q, tau), q).image == (1, 4, 7, 3, 6, 9, 5, 8, 2)
        d = dihedral_quandle(6)
        rho = Permutation([2, 4, 6, 1, 3, 5])
        assert are_isomorphic(d, relabel(d, rho)).image == (1, 3, 5, 2, 4, 6)


class TestLibraryBuildsNoPermutations:
    def test_no_right_translation_calls(self, monkeypatch):
        calls = []
        real = right_translation
        spy = lambda q, i: calls.append(i) or real(q, i)  # noqa: E731
        for name, mod in list(sys.modules.items()):
            bound = getattr(mod, "right_translation", None)
            if name.split(".")[0] == "quandlekit" and bound is real:
                monkeypatch.setattr(mod, "right_translation", spy)
        image = list(range(1, 28))
        random.Random(7).shuffle(image)
        q = relabel(shq_family(3, 4), Permutation(image))
        assert verify_main_theorem(q).all_passed
        assert fix_block_report(q).passed
        assert len(enumerate_subquandles(q).entries) == 40
        assert calls == []
        translations(q)
        assert len(calls) == q.n  # the spy sees calls through the package


# the fields GF(p^a) of order at most 81, those with a > 1 first
SMALL_FIELDS = sorted(
    ((p, a) for p in range(2, 82) if all(p % d for d in range(2, p))
     for a in range(1, 7) if p**a <= 81),
    key=lambda pa: (pa[1] == 1, pa[0] ** pa[1]),
)


class TestAffineKernel:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 64))
    def test_affine_matches_reference(self, m):
        for h in range(m):
            if gcd(h, m) == 1:
                want = np.array(reference_affine_rows(m, h)) - 1
                assert np.array_equal(affine_quandle(m, h).array, want), h

    @settings(max_examples=8, deadline=None)
    @given(st.sampled_from(SMALL_FIELDS))
    def test_galois_matches_reference(self, field_params):
        p, a = field_params
        field = GaloisField(p, a)
        for k in range(2, p**a):
            want = np.array(reference_galois_rows(p, a, k)) - 1
            assert np.array_equal(galois_affine_quandle(p, a, k).array, want), k
            assert np.array_equal(galois_affine_quandle(p, a, field.element(k)).array, want), k


    @pytest.mark.parametrize("p, a", [
        (p, a) for p in range(2, 46) if all(p % d for d in range(2, p))
        for a in range(2, 12) if p**a <= DEFAULT_TABLE_CAP
    ])
    def test_digit_sums_match_reference(self, p, a):
        # every field with two or more digits up to the cap, on seeded
        # permutations of the encodings and on the identity and its reverse
        n = p**a
        rng = np.random.default_rng(n)
        x = np.arange(n)
        for hx, ky in ((x, x[::-1]), (rng.permutation(n), rng.permutation(n))):
            want = reference_digit_sum(hx, ky, p, a)
            assert np.array_equal(construct._affine_table(hx, ky, p, a).array, want)


# every field GF(p^a) of order at most 256
FIELDS_256 = [(p, a) for p in range(2, 257) if all(p % d for d in range(2, p))
              for a in range(1, 9) if p**a <= 256]


@st.composite
def affine_params(draw):
    m = draw(st.integers(1, 200))
    return m, draw(st.sampled_from([h for h in range(1, m + 1) if gcd(h, m) == 1]))


class TestConstructorsAreQuandles:
    """affine_quandle and galois_affine_quandle wrap their tables without
    validating them, as quandles by construction; validate_quandle is the
    oracle that they are."""

    @settings(max_examples=80, deadline=None)
    @given(affine_params())
    def test_affine(self, params):
        m, h = params
        for unit in (h, 1):
            assert validate_quandle(affine_quandle(m, unit).array + 1).ok, (m, unit)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(FIELDS_256), st.data())
    def test_galois(self, field_params, data):
        p, a = field_params
        if p**a == 2:
            return  # GF(2) has no multiplier other than 0 and 1
        k = data.draw(st.integers(2, p**a - 1))
        q = galois_affine_quandle(p, a, k)
        assert validate_quandle(q.array + 1).ok
        assert np.array_equal(q.array, np.array(reference_galois_rows(p, a, k)) - 1)


class TestFamilyEmbeddingOracle:
    @pytest.mark.parametrize("p,c", [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2)])
    def test_members_match_reference(self, p, c):
        report = family_embedding(p, c)
        assert report.passed
        assert report == reference_family_embedding(p, c)

    @pytest.mark.parametrize("relabelled", [3, 4])
    def test_relabelled_member_matches_reference(self, monkeypatch, relabelled):
        # family member (3, relabelled) comes back relabelled, so the
        # homomorphism fails, and for the big member the image's closure too
        real = construct.shq_family
        image = list(range(1, 3 ** (relabelled - 1) + 1))
        random.Random(relabelled).shuffle(image)
        sigma = Permutation(image)

        def family(p, c, max_order=None):
            q = real(p, c, max_order)
            return relabel(q, sigma) if c == relabelled else q

        monkeypatch.setattr(construct, "shq_family", family)
        report = family_embedding(3, 3)
        assert not report.passed
        assert report == reference_family_embedding(3, 3)


# Tokens that break a row, or that the array reader leaves to the scalar check.
HOSTILE_TOKENS = ["-1", "3-4", "--3", "+3", "0_3", "\u0663"]
OVERSIZED_TOKENS = [
    "0000000001", "1000000000", "0" * 18 + "1", "1" * 19, "0" * 19 + "1", "9" * 20,
    str(2**63), str(2**64),
]
SEPARATORS = [" ", "  ", "\t", " \t ", "\t\t"]
COMMENTS = ["#", "# c", "  # indented", "# r\u00e9sum\u00e9 \u2217 \u0663"]


@st.composite
def qdl_texts(draw):
    """(table, .qdl text, mutated) for a relabelled SMALL/SHQS table or a
    trivial table.  The layout varies: separators, CRLF, blank and comment
    lines, leading zeros.  Up to two mutations follow: a token moved to
    another row (the total stays n^2), a hostile or oversized token, or a
    control or non-ASCII space inside a row."""
    q = draw(relabelled(SMALL + SHQS) | st.integers(1, 8).map(trivial_quandle))
    rng = draw(st.randoms(use_true_random=False))
    rows = [[str(v).zfill(len(str(v)) + rng.choice([0, 0, 0, 1, 3])) for v in row]
            for row in (q.array + 1).tolist()]
    mutations = draw(st.lists(st.sampled_from(["move", "token", "oversized", "control"]),
                              max_size=2))
    for mutation in mutations:
        r = rng.randrange(q.n)
        if mutation == "move" and q.n > 1:
            rows[(r + rng.randrange(1, q.n)) % q.n].append(rows[r].pop())
        elif mutation == "token":
            rows[r][rng.randrange(len(rows[r]))] = rng.choice(HOSTILE_TOKENS)
        elif mutation == "oversized":
            # the last choice wraps to the entry it replaces in 32 bits
            c = rng.randrange(len(rows[r]))
            t = rows[r][c]
            wrap = str(2**32 + (int(t) if t.isascii() and t.isdigit() else 1))
            rows[r][c] = rng.choice(OVERSIZED_TOKENS + [wrap])
        elif mutation == "control":
            c = rng.randrange(len(rows[r]))
            cut = rng.randrange(len(rows[r][c]) + 1)
            rows[r][c] = rows[r][c][:cut] + rng.choice("\x0c\x1c\x1f\xa0") + rows[r][c][cut:]
    lines = [str(q.n)] + [
        rng.choice(["", " "]) + "".join(t + rng.choice(SEPARATORS) for t in row).rstrip()
        for row in rows
    ]
    for _ in range(rng.randrange(4)):
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(COMMENTS + ["", " \t"]))
    newline = rng.choice(["\n", "\r\n"])
    return q, newline.join(lines) + rng.choice([newline, ""]), bool(mutations)


# Bytes that the reader's array pass leaves to the scalar line path: line
# breaks other than b"\n" (a lone b"\r" too), other whitespace, a comment
# mark, and non-ASCII bytes, valid UTF-8 or not.
HOSTILE_BYTES = [
    b"\r", b"\x0b", b"\x0c", b"\x1c", b"\x1f", b"#", "\xa0".encode(), "\x85".encode(),
    "\u2028".encode(), "\u0663".encode(), b"\xff", b"\xc3", b"\xe2\x88", b"\xed\xa0\x80",
]


@st.composite
def qdl_files(draw):
    """(table, .qdl bytes, mutated) for a relabelled SMALL/SHQS table or a
    trivial table.  The layout varies: tabs and runs of spaces, blank lines,
    leading comments, CRLF or CR line ends, leading zeros.  Up to three
    mutations follow: a token moved to another row, a hostile or oversized
    token, a hostile byte inside a row, a comment or blank line between
    rows, the body cut short (maybe inside a row), or extra lines after it."""
    q = draw(relabelled(SMALL + SHQS) | st.integers(1, 8).map(trivial_quandle))
    rng = draw(st.randoms(use_true_random=False))
    rows = [[str(v).zfill(len(str(v)) + rng.choice([0, 0, 0, 1, 3])) for v in row]
            for row in (q.array + 1).tolist()]
    kinds = ["move", "token", "oversized", "byte", "between", "short", "long"]
    mutations = draw(st.lists(st.sampled_from(kinds), max_size=3))
    between = []
    for mutation in mutations:
        r = rng.randrange(len(rows))
        if not rows[r]:  # a row the body was cut inside of
            continue
        if mutation == "move" and len(rows) > 1:
            rows[(r + rng.randrange(1, len(rows))) % len(rows)].append(rows[r].pop())
        elif mutation == "token":
            rows[r][rng.randrange(len(rows[r]))] = rng.choice(HOSTILE_TOKENS + ["1.5", "x"])
        elif mutation == "oversized":
            rows[r][rng.randrange(len(rows[r]))] = rng.choice(OVERSIZED_TOKENS)
        elif mutation == "byte":
            c = rng.randrange(len(rows[r]))
            cut = rng.randrange(len(rows[r][c]) + 1)
            hostile = rng.choice(HOSTILE_BYTES).decode("utf-8", "surrogateescape")
            rows[r][c] = rows[r][c][:cut] + hostile + rows[r][c][cut:]
        elif mutation == "between":
            between.append((r, rng.choice(COMMENTS + ["", " \t"])))
        elif mutation == "short":
            del rows[r + 1 :]
            del rows[r][rng.randrange(len(rows[r]) + 1) :]
        elif mutation == "long":
            rows += [rng.choice([["1"], ["x"], list(rows[0])]) for _ in range(rng.randint(1, 2))]
    lines = [
        rng.choice(["", " ", "\t"]) + "".join(t + rng.choice(SEPARATORS) for t in row).rstrip()
        for row in rows
    ]
    for r, line in sorted(between, reverse=True):
        lines.insert(r + 1, line)
    head = [rng.choice(COMMENTS + ["", " \t"]) for _ in range(rng.randrange(3))]
    newline = rng.choice(["\n", "\n", "\r\n", "\r"])
    text = newline.join(head + [str(q.n)] + lines) + rng.choice([newline, ""])
    return q, text.encode("utf-8", "surrogateescape"), bool(mutations)


class TestQdlOracles:
    @settings(max_examples=400, deadline=None)
    @given(qdl_files(), st.sampled_from([1, 5, 7, 40, 1 << 16]), st.booleans())
    def test_read_matches_reference(self, tmp_path_factory, case, chunk, capped):
        # Reads of 7 and 40 bytes end inside a row more often than not, so the
        # array pass must carry on at the next read; reads of 1 and 5 bytes
        # split UTF-8 sequences and CRLF pairs on the line path, which also
        # counts the rows above the cap (capped=True: a cap one below the
        # order); a row or comment longer than a read sends the rest of the
        # body to the line path.
        q, raw, mutated = case
        path = tmp_path_factory.mktemp("qdl") / "t.qdl"
        path.write_bytes(raw)
        env = {ENV_MAX_ORDER: str(q.n - 1)} if capped and q.n > 1 else {}
        with patch.dict(os.environ, env), patch.object(core, "_CHUNK", chunk):
            want = outcome(reference_read_qdl, raw)
            assert outcome(read_qdl, path) == want
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError:
                text = raw.decode("utf-8", "surrogateescape")  # lone surrogates stay
            assert outcome(parse_qdl, text) == outcome(reference_parse_qdl, text)
        if not mutated and not env:
            assert want == q

    @pytest.mark.parametrize("raw", [
        b"3\r\n1 1 1\r\xff\n",  # a bad byte after a "\r" that ends a chunk
        b"3\r1 1 1\r\xff",  # CR line ends: one b"\n"-line
        b"3 \r1 1\n\xe2\x88",  # a row on the order's b"\n"-line, a cut sequence
        "# \u2217\r\n3\r\n1 1 1\r\n2 \u2028 2\r\n\r\n".encode(),
        b"3\n1 1 1\n\n# c\n2 2 2\n3 3 3\n4\r",
        b"3\n\n", b"3", b"x\n\xff", b"\n \n", b"3\n1 1 1\n\xc3\xa9\n",
        # lines longer than a read: a comment, spaces, rows past row n, a bad byte
        b"1\n1\n#" + b"c" * 60 + b"\n", b"1\n" + b" " * 60 + b"1\n", b"1\n1\n1\n" + b"x" * 60,
        b"1\n1\n" + b"2 " * 40 + b"\xff", b"1\n1\n" + "\u00e9".encode() * 40,
        b"1\n1\n\n" + b"\r" * 60 + b"1",
    ])
    @pytest.mark.parametrize("capped", [False, True])
    def test_chunk_boundaries(self, tmp_path, raw, capped):
        # every chunk size up to 8 bytes, so each cut falls between a "\r"
        # and a "\n", and inside each multi-byte sequence
        path = tmp_path / "t.qdl"
        path.write_bytes(raw)
        env = {ENV_MAX_ORDER: "2"} if capped else {}
        with patch.dict(os.environ, env):
            want = outcome(reference_read_qdl, raw)
            for chunk in range(1, 9):
                with patch.object(core, "_CHUNK", chunk):
                    assert outcome(read_qdl, path) == want, chunk

    @settings(max_examples=300, deadline=None)
    @given(qdl_texts(), st.sampled_from([1, 20, 100, 1 << 16]))
    def test_parse_matches_reference(self, case, chunk):
        # small reads put the flagged line in a later read than the first
        q, text, mutated = case
        with patch.object(core, "_CHUNK", chunk):
            got = outcome(parse_qdl, text)
        assert got == outcome(reference_parse_qdl, text)
        if not mutated:
            assert got == q

    @pytest.mark.parametrize("text, expected", [
        ("3\n1 1 1\n2 2 2 2\n3 3\n", ("ParseError", 3)),
        ("2\n1 1\n2 -1\n", ("EntryOutOfRange", (2, 2))),
        ("2\n1 -1\n2 2 2\n", ("ParseError", 3)),
        ("2\n1 1\n2\x1f2\n", ("valid", 2)),
        ("2\n1 0000000001\n2 2\n", ("valid", 2)),
        (f"2\n1 {2**64}\n2 2\n", ("EntryOutOfRange", (1, 2))),
        ("2\n1 1\n2 3-4\n", ("ParseError", 3)),
        (f"2\n1 1\n2 {2**32 + 2}\n", ("EntryOutOfRange", (2, 2))),
        # the gates of _scan: a 9-digit token is read in the array pass; a
        # tab, a CRLF or a lone "\r" needs the mask of other bytes; in
        # reads of a line or two the 10-digit run is in a later read only
        ("2\n1 1\n2 000000002\n", ("valid", 2)),
        ("2\n1\t1\n2\t 2\n", ("valid", 2)),
        ("2\r\n1 1\r\n2 2\r\n", ("valid", 2)),
        ("2\n1 1\n2\r2\n", ("ParseError", 4)),
        ("2\n1 1\n2 0000000002\n", ("valid", 2)),
    ])
    def test_flagged_lines(self, text, expected):
        # a flagged line is either the error or read on the line path; with
        # reads just longer than the longest line, each read meets the gates
        # a line or two at a time
        got = outcome(parse_qdl, text)
        assert got == outcome(reference_parse_qdl, text)
        with patch.object(core, "_CHUNK", max(map(len, text.encode().splitlines(True))) + 1):
            assert outcome(parse_qdl, text) == got
        if isinstance(got, QuandleTable):
            assert ("valid", got.n) == expected
        elif got[0] == "ParseError":
            assert ("ParseError", got[2]) == expected
        else:
            assert (got[3].error, got[3].witness) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        relabelled(SMALL + SHQS),
        st.lists(st.sampled_from(["c", "a comment", "r\u00e9sum\u00e9 \u2217"]), max_size=2),
    )
    def test_format_matches_reference(self, q, comments):
        text = format_qdl(q, comments)
        assert text == reference_format_qdl(q, comments)
        assert parse_qdl(text) == q
        assert parse_qdl(format_qdl(q)) == q

    @pytest.mark.parametrize("q", [
        *(affine_quandle(n, -1) for n in (1, 9, 10, 99, 100, 999, 1000)),
        trivial_quandle(2048),
    ], ids=lambda q: str(q.n))
    def test_format_at_label_widths(self, tmp_path, q):
        # the label cells widen at 10, 100 and 1000; write_qdl writes the
        # UTF-8 bytes of format_qdl, and a lone surrogate cannot be written.
        # Reading the file back takes every digit 0-9 through each place of
        # the reader's int32 conversion (a uint8 product would wrap at 300)
        comments = ("r\u00e9sum\u00e9 \u2217", "plain")
        text = format_qdl(q, comments)
        assert text == reference_format_qdl(q, comments)
        path = tmp_path / "t.qdl"
        write_qdl(q, path, comments)
        assert path.read_bytes() == text.encode()
        assert read_qdl(path) == q
        lone = ("\udcff",)
        assert format_qdl(q, lone) == reference_format_qdl(q, lone)
        with pytest.raises(UnicodeEncodeError):
            write_qdl(q, tmp_path / "s.qdl", lone)
