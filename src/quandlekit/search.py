"""Exhaustive search for connected quandles with a given distinct-length profile.

Any connected quandle whose translations have pairwise distinct cycle lengths
can be relabeled so that R_1 is the canonical block permutation and every
other translation is a power-of-R_1 conjugate of one of the c-1 block
generators R_(n_i).  The search fixes R_1 and walks a tree with one level per
block: a node finds its block's generators under every relation its assigned
columns give, by a backtracking that never lists the candidate space, and
derives the block's translations as gathers by powers of R_1.  No check
follows: a child keeps R_u in column u and passes the conjugation closure
R_(v*u) = R_u R_v R_u^-1 on every assigned pair.  R_1 is an automorphism of
the partial table (the block's columns are R_1^k g R_1^-k, and the older
columns passed their pairs with R_1), so every pair a level adds is
conjugate by a power of R_1 to one where n_i, the block's last label, is u,
v or v*u; generators propagates the first, forces or commutes the second,
and forces g = R_u R_v R_u^-1 for the third, u and v assigned.  A leaf is a
quandle by construction (see run) with the target profile; the connected
ones are the hits.  The backtracking nodes of a search are counted against
_WORK_BOUND, and the work and survivors of each stage are reported.

naive_connected_quandles is the independent reference for tiny orders: plain
depth-first assignment of columns with direct axiom checks, sharing nothing
with the canonical-form machinery.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass
from math import factorial, prod
from pathlib import Path

import numpy as np

from .core import (
    QuandleTable,
    _block_bounds,
    _canonical_r1,
    _integers,
    _label_block_lengths,
    _power,
    format_qdl,
)
from .errors import ParamOutOfRange, RepeatedLengthsUnsupported, SizeLimitExceeded
from .limits import DEFAULT_SEARCH_CAP, resolve_cap
from .structure import _group_isomorphic, is_connected

# A search that needs more backtracking nodes (calls of the generators'
# branch, over all tree nodes) is refused; the count is deterministic.  Of
# the distinct-length profiles of order <= 32, (1,19) needs 15,118 nodes
# (1.4-1.8 s in process on a 2-vCPU machine) and (1,2,3,4,6,12) 20,078
# (0.9-1.0 s); (1,20) to (1,31), from 26,120 nodes up, are refused.
_WORK_BOUND = 24_000


@dataclass(frozen=True)
class SearchSpec:
    """Target profile for the search: strictly increasing lengths from 1."""

    lengths: tuple[int, ...]

    def __post_init__(self):
        lengths = _integers(self.lengths)
        object.__setattr__(self, "lengths", lengths)
        if len(lengths) < 2:
            raise ParamOutOfRange(f"need at least two cycle lengths, got {lengths}")
        if lengths[0] != 1:
            raise ParamOutOfRange(f"first length must be 1, got {lengths}")
        if len(set(lengths)) != len(lengths):
            raise RepeatedLengthsUnsupported(
                f"profile {lengths} repeats a length; only distinct lengths are searchable"
            )
        if list(lengths) != sorted(lengths):
            raise ParamOutOfRange(f"lengths must increase, got {lengths}")

    @property
    def order(self) -> int:
        return sum(self.lengths)


@dataclass(frozen=True)
class SearchStats:
    """Work and survivor counts per stage, for tuning and regressions.
    per_generator_raw is each block's candidate space in closed form.  Per
    block, per_generator_nodes (backtracking nodes) and per_generator_unary
    (generators found) are summed over that level's tree nodes."""

    raw_space: int
    per_generator_raw: tuple[int, ...]
    per_generator_nodes: tuple[int, ...]
    per_generator_unary: tuple[int, ...]
    nodes_expanded: int
    conjugation_pass: int
    connected_pass: int
    elapsed: float

    def as_dict(self) -> dict:
        # elapsed is deliberately left out: serialized results must be
        # byte-identical across runs.
        return {
            "raw_space": self.raw_space,
            "per_generator_raw": list(self.per_generator_raw),
            "per_generator_nodes": list(self.per_generator_nodes),
            "per_generator_unary": list(self.per_generator_unary),
            "nodes_expanded": self.nodes_expanded,
            "conjugation": self.conjugation_pass,
            "connectivity": self.connected_pass,
        }


@dataclass(frozen=True)
class SearchResult:
    spec: SearchSpec
    quandles: tuple[QuandleTable, ...]
    iso_classes: tuple[tuple[int, ...], ...]
    stats: SearchStats


def _candidate_count(n: int, lengths) -> int:
    """Permutations of cycle type `lengths` fixing one given label: (n-1)!/prod(l)."""
    return factorial(n - 1) // prod(x for x in lengths if x > 1)


class _Searcher:
    def __init__(self, lengths: tuple[int, ...]):
        self.lengths = lengths
        self.n = sum(lengths)
        self.ns = (0,) + _block_bounds(lengths)
        r1 = _canonical_r1(lengths)
        self.r1_pow = {
            k: np.array(_power(r1, k), dtype=np.int8)
            for k in range(-max(lengths), max(lengths) + 1)
        }
        self.block_len = np.array(_label_block_lengths(lengths))
        self.work = [0] * (len(lengths) - 1)  # backtracking nodes per level
        self.unary = [0] * (len(lengths) - 1)  # generators found per level
        self.leaves = 0  # full tables reached, each a quandle

    def block_columns(self, level: int, gens: np.ndarray) -> np.ndarray:
        """The translations of block level + 2 for each generator g in gens,
        as (K, n, l) columns: column k - 1 is R_1^k g R_1^-k, the gather
        g[R_1^-k] mapped through R_1^k."""
        lo, hi = self.ns[level + 1], self.ns[level + 2]
        out = np.empty((len(gens), self.n, hi - lo), dtype=np.int8)
        for k in range(1, hi - lo + 1):
            out[:, :, k - 1] = self.r1_pow[k][gens[:, self.r1_pow[-k]]]
        return out

    def generators(self, level: int, table: np.ndarray) -> np.ndarray:
        """The generators g of block level + 2 at a tree node whose columns
        u < lo are R_u, as (K, n) int8 images, by backtracking.

        g fixes n_i = hi - 1 only.  For assigned u != 1, w = R_u(n_i) gives
        R_w = R_u g R_u^-1: with w assigned, g = R_u^-1 R_w R_u is forced;
        with w = R_1^k(n_i) in the block, g commutes with h = R_1^-k R_u, as
        with s = R_1^l.  When v = R_u^-1(n_i) is assigned, v*u = n_i forces
        g = R_u R_v R_u^-1.  Each value is propagated to a fixpoint through
        g h = h g and g(R_v(y)) = R_(g(v))(g(y)) for v < n_i with g(v) < hi
        (the closure at u = n_i), R_v in the block read as R_1^k g R_1^-k.
        Up to conjugation by powers of R_1 these are all the pairs the block
        adds (see the module docstring), so the child of every generator
        passes the closure on all labels below hi.  Branches go to label 1,
        the block, the other assigned labels, then the rest.  A branch ends
        when g is not injective, breaks the lcm rule, closes a cycle whose
        length is not an unused one of the profile, or has an open path
        longer than every unused length.
        """
        n, lengths = self.n, self.lengths[1:]
        lo, hi = self.ns[level + 1], self.ns[level + 2]
        r = {k: self.r1_pow[k].tolist() for k in range(lo - hi, hi - lo + 1)}
        blen = self.block_len.tolist()
        need = np.lcm(self.block_len, hi - lo).tolist()
        cols = table.T[:lo].tolist()  # cols[u] = R_u
        commute, forced = [r[hi - lo]], []
        for u in range(1, lo):
            w = cols[u][hi - 1]
            if w < lo:  # g = R_u^-1 R_w R_u
                ru, rw = cols[u], cols[w]
                forced += [(y, ru.index(rw[ru[y]])) for y in range(n)]
            elif w < hi:  # g commutes with R_1^-k R_u
                commute.append([r[lo - 1 - w][x] for x in cols[u]])
            v = cols[u].index(hi - 1)
            if v < lo:  # v*u = n_i: g = R_u R_v R_u^-1
                ru, rv = cols[u], cols[v]
                forced += [(ru[y], ru[rv[y]]) for y in range(n)]

        # R_v = through[v] for v < hi: (R_v, None) assigned, or (R_1^-k, R_1^k)
        # in the block, k = v - lo + 1, read as R_1^k g R_1^-k
        through = [(c, None) for c in cols] + [(r[-k], r[k]) for k in range(1, hi - lo + 1)]

        # known: the v < n_i with g(v) < hi, in the order they were assigned
        def propagate(img, inv, used, known, stack):  # the new closed lengths, or None
            while stack:
                a, b = stack.pop()
                if img[a] == b:
                    continue
                if img[a] >= 0 or inv[b] >= 0 or a == b or need[a] % blen[b]:
                    return None
                img[a], inv[b] = b, a
                if a < hi - 1 and b < hi:
                    known.append(a)
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
                stack += [(h[a], h[b]) for h in commute]
                # the instances (v, y) whose reads of g the new value completes
                for v in known:
                    w = img[v]
                    v_in, v_out = through[v]
                    w_in, w_out = through[w]
                    if v == a:
                        ys = range(n)
                    else:  # y = a, and the y whose R_v(y) or R_w(g(y)) reads g at a
                        ys = (a, -1 if v_out is None else v_out[a],
                              -1 if w_out is None else inv[w_out[a]])
                    for y in ys:
                        if y < 0 or (gy := img[y]) < 0:
                            continue
                        x = v_in[y]
                        if v_out is not None:
                            if (x := img[x]) < 0:
                                continue
                            x = v_out[x]
                        t = w_in[gy]
                        if w_out is not None:
                            if (t := img[t]) < 0:
                                continue
                            t = w_out[t]
                        # settled here: assigned values never change in a
                        # call, so the pop would refuse what this refuses
                        if img[x] != t:
                            if img[x] >= 0 or inv[t] >= 0:
                                return None
                            stack.append((x, t))
            return used

        order = [0, *range(lo, hi - 1), *range(1, lo), *range(hi, n)]
        found = []

        def branch(img, inv, used, known):
            self.work[level] += 1
            if sum(self.work) > _WORK_BOUND:
                msg = f"profile {self.lengths} needs more than {_WORK_BOUND} backtracking nodes"
                raise SizeLimitExceeded(msg)
            x = next((x for x in order if img[x] < 0), None)
            if x is None:
                return found.append(img)
            for v in range(n):
                if inv[v] >= 0 or v == x or need[x] % blen[v]:
                    continue  # propagate's first check refuses (x, v)
                img2, inv2, known2 = img[:], inv[:], known[:]
                used2 = propagate(img2, inv2, used, known2, [(x, v)])
                if used2 is not None:
                    branch(img2, inv2, used2, known2)

        start = [x if x == hi - 1 else -1 for x in range(n)]
        inv, known = start[:], []
        used = propagate(start, inv, 0, known, forced)
        if used is not None:
            branch(start, inv, used, known)
        self.unary[level] += len(found)
        return np.array(found, dtype=np.int8).reshape(-1, n)

    def run(self):
        """Depth-first over generator choices; returns the hits.  Every child
        passes the closure on the pairs its block adds, as generators forces
        or propagates each of them, so a leaf passes the closure on all
        labels, which is right distributivity, and its columns are
        bijections fixing their own labels: it is a quandle by construction,
        kept when connected.  Pruning in generators changes only the
        counts."""
        found: list[QuandleTable] = []

        def descend(level: int, table: np.ndarray):
            lo, hi = self.ns[level + 1], self.ns[level + 2]
            gens = self.generators(level, table)
            if len(gens) == 0:
                return
            blocks = self.block_columns(level, gens)
            stack = np.repeat(table[None], len(blocks), axis=0)
            stack[:, :, lo:hi] = blocks
            for child in stack:
                if hi < self.n:
                    descend(level + 1, child)
                    continue
                self.leaves += 1
                q = QuandleTable._from_array(child)
                if is_connected(q):
                    found.append(q)

        root = np.zeros((self.n, self.n), dtype=np.int8)
        root[:, 0] = self.r1_pow[1]
        descend(0, root)
        return found


def search_by_profile(
    spec: SearchSpec,
    max_order: int | None = None,
    dedup: bool = True,
) -> SearchResult:
    """All connected quandles with the given profile, up to the search cap.

    Output is deterministic: tables are sorted by their flattened rows and
    isomorphism classes listed by first representative.  dedup=False skips
    the isomorphism grouping.
    """
    cap = resolve_cap(max_order, DEFAULT_SEARCH_CAP)
    if spec.order > cap:
        raise SizeLimitExceeded(f"order {spec.order} exceeds search cap {cap}")
    start_time = time.perf_counter()
    searcher = _Searcher(spec.lengths)
    found = searcher.run()
    quandles = tuple(sorted(found, key=lambda q: q.array.tolist()))
    iso_classes: tuple[tuple[int, ...], ...] = ()
    if dedup:
        # a hit is connected and its R_1 has the profile's type, so every
        # column has that type (the translations of an orbit are conjugate)
        types = [[spec.lengths] * spec.order] * len(quandles)
        groups = _group_isomorphic(quandles, types, range(len(quandles)))
        iso_classes = tuple(tuple(members) for members in groups.values())

    raw = (_candidate_count(spec.order, spec.lengths),) * (len(spec.lengths) - 1)
    stats = SearchStats(
        raw_space=prod(raw),
        per_generator_raw=raw,
        per_generator_nodes=tuple(searcher.work),
        per_generator_unary=tuple(searcher.unary),
        nodes_expanded=sum(searcher.unary),
        conjugation_pass=searcher.leaves,
        connected_pass=len(quandles),
        elapsed=time.perf_counter() - start_time,
    )
    return SearchResult(spec, quandles, iso_classes, stats)


def prune_report(spec: SearchSpec, max_order: int | None = None) -> SearchStats:
    """Run the search and report survivor counts per filter stage; the
    isomorphism grouping is skipped, as no count depends on it."""
    return search_by_profile(spec, max_order, dedup=False).stats


def search_manifest(result: SearchResult, files: list[str] | None = None) -> dict:
    """The quandlekit.search/2 report; `files` is listed when tables were saved."""
    manifest = {
        "schema": "quandlekit.search/2",
        "profile": list(result.spec.lengths),
        "order": result.spec.order,
        "count": len(result.quandles),
        "iso_classes": [list(c) for c in result.iso_classes],
        "stats": result.stats.as_dict(),
    }
    if files is not None:
        manifest["files"] = files
    return manifest


def save_search_result(result: SearchResult, outdir) -> dict:
    """Write one .qdl per table plus manifest.json; returns the manifest."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    prof = "(" + ", ".join(map(str, result.spec.lengths)) + ")"
    files = []
    for idx, q in enumerate(result.quandles):
        name = f"q{idx:03d}.qdl"
        (outdir / name).write_text(format_qdl(q, comments=(f"profile {prof}",)))
        files.append(name)
    manifest = search_manifest(result, files)
    (outdir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    )
    return manifest


def naive_connected_quandles(n: int) -> tuple[QuandleTable, ...]:
    """Reference enumeration for tiny n: every table with idempotent diagonal
    and bijective columns, filtered by distributivity and connectivity.

    Columns are assigned depth-first; a partial assignment is dropped as soon
    as some fully determined distributivity instance fails.  Shares no code
    with the canonical-form search.
    """
    (n,) = _integers((n,), "n")
    if n < 1:
        raise ParamOutOfRange(f"order must be positive, got {n}")
    choices = [
        [p for p in itertools.permutations(range(n)) if p[j] == j] for j in range(n)
    ]
    cols: list = [None] * n
    found: list[tuple[tuple[int, ...], ...]] = []

    def new_triples_ok(t: int) -> bool:
        # check (j, k) pairs that became fully determined when column t arrived
        for k in range(t + 1):
            ck = cols[k]
            for j in range(t + 1):
                m = ck[j]
                if m > t:
                    continue
                if j != t and k != t and m != t:
                    continue
                cj, cm = cols[j], cols[m]
                for i in range(n):
                    if ck[cj[i]] != cm[ck[i]]:
                        return False
        return True

    def connected() -> bool:
        maps = list(cols)
        for c in cols:
            inv = [0] * n
            for i, v in enumerate(c):
                inv[v] = i
            maps.append(tuple(inv))
        seen = {0}
        stack = [0]
        while stack:
            x = stack.pop()
            for m in maps:
                y = m[x]
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen) == n

    def assign(t: int):
        if t == n:
            if connected():
                rows = [
                    tuple(cols[j][i] + 1 for j in range(n)) for i in range(n)
                ]
                found.append(rows)
            return
        for p in choices[t]:
            cols[t] = p
            if new_triples_ok(t):
                assign(t + 1)
        cols[t] = None

    assign(0)
    found.sort()
    return tuple(QuandleTable.from_rows(rows) for rows in found)
