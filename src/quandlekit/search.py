"""Exhaustive search for connected quandles with a given distinct-length profile.

Any connected quandle whose translations have pairwise distinct cycle lengths
can be relabeled so that R_1 is the canonical block permutation and every
other translation is a power-of-R_1 conjugate of one of the c-1 block
generators R_(n_i).  The search therefore fixes R_1, finds each block's
candidate generators (permutations with the target cycle structure fixing
their own index), derives the remaining translations by conjugation, and
keeps the tables that satisfy the conjugation closure and are connected.
Such a table is a quandle by construction (see run) with the target
profile, as its translations are all conjugate to the canonical R_1.  The
survivors at each stage are reported for tuning.

Permutations are 0-based integer arrays, the column form of QuandleTable.array:
a block's generators come from a backtracking with propagation that never
lists the candidate space, and its translations are gathers by powers of
R_1.  One batched check, _closed, tests the conjugation closure on a stack of
partial tables, each keeping R_u in column u; the depth-first tree calls it
once per level, on the assigned prefix.

naive_connected_quandles is the independent reference for tiny orders: plain
depth-first assignment of columns with direct axiom checks, sharing nothing
with the canonical-form machinery.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass
from math import comb, factorial, prod
from pathlib import Path

import numpy as np

from .core import QuandleTable, _integers, _power, format_qdl
from .errors import ParamOutOfRange, RepeatedLengthsUnsupported, SizeLimitExceeded
from .limits import DEFAULT_SEARCH_CAP, resolve_cap
from .shq import _block_bounds, _canonical_r1, _label_block_lengths
from .structure import _cycle_lengths, _group_isomorphic, is_connected

# A profile with more candidate generators per block (permutations of the
# target cycle type fixing n_i) is refused upfront.  The backtracking never
# lists them, but nothing else bounds its work yet.
_RAW_CANDIDATE_LIMIT = 1_000_000


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
    """Survivor counts per filter stage, for tuning and regressions.
    per_generator_raw is each block's candidate space, counted in closed form.
    distributivity_pass is conjugation_pass: the closure on all labels is
    right distributivity, so no leaf is checked again."""

    raw_space: int
    per_generator_raw: tuple[int, ...]
    per_generator_unary: tuple[int, ...]
    nodes_expanded: int
    conjugation_pass: int
    distributivity_pass: int
    connected_pass: int
    elapsed: float

    def as_dict(self) -> dict:
        # elapsed is deliberately left out: serialized results must be
        # byte-identical across runs.
        return {
            "raw_space": self.raw_space,
            "per_generator_raw": list(self.per_generator_raw),
            "per_generator_unary": list(self.per_generator_unary),
            "nodes_expanded": self.nodes_expanded,
            "fixed_point": self.raw_space,
            "conjugation": self.conjugation_pass,
            "distributivity": self.distributivity_pass,
            "connectivity": self.connected_pass,
        }


@dataclass(frozen=True)
class SearchResult:
    spec: SearchSpec
    quandles: tuple[QuandleTable, ...]
    iso_classes: tuple[tuple[int, ...], ...]
    stats: SearchStats


def _candidate_count(n: int, lengths) -> int:
    """Permutations of cycle type `lengths` fixing one given label: closed form."""
    remaining = n - 1
    count = 1
    for length in (x for x in lengths if x > 1):
        count *= comb(remaining, length) * factorial(length - 1)
        remaining -= length
    return count


def _closed(tables: np.ndarray, labels) -> np.ndarray:
    """Indices of the partial tables in a stack that satisfy the conjugation
    closure on `labels`.

    tables is a (B, n, n) stack whose column u is the translation R_u for
    every u in labels; no other column is read as a translation.  Table b is
    kept when R_(v*u) = R_u R_v R_u^-1 for all u, v in labels with v*u in
    labels.  The relation is compared pointwise as (y*u)*(v*u) = (y*v)*u for
    every y, which needs no inverse.  The pairs (u, v) are tested one at a
    time, u-major in the order of `labels`, each on the tables that passed
    the pairs before it, so a table is dropped at its first failing pair.
    """
    labels = np.asarray(labels)
    inside = np.zeros(tables.shape[1], dtype=bool)
    inside[labels] = True
    keep = np.arange(len(tables))
    for u, v in itertools.product(labels, labels):
        if len(keep) == 0:
            break
        t = tables[keep]
        b = np.arange(len(t))[:, None]
        v_u = t[:, v, u]  # (B,): v*u
        lhs = t[b, t[:, :, u], v_u[:, None]]  # (y*u)*(v*u)
        rhs = t[b, t[:, :, v], u]  # (y*v)*u
        keep = keep[(lhs == rhs).all(axis=1) | ~inside[v_u]]
    return keep


class _Searcher:
    def __init__(self, lengths: tuple[int, ...]):
        self.lengths = lengths
        self.n = sum(lengths)
        self.per_block = _candidate_count(self.n, lengths)
        if self.per_block > _RAW_CANDIDATE_LIMIT:
            raise SizeLimitExceeded(
                f"profile {lengths} needs {self.per_block} candidate generators "
                f"per block, beyond the supported {_RAW_CANDIDATE_LIMIT}"
            )
        self.ns = (0,) + _block_bounds(lengths)
        r1 = _canonical_r1(lengths)
        self.r1_pow = {
            k: np.array(_power(r1, k), dtype=np.int8)
            for k in range(-max(lengths), max(lengths) + 1)
        }
        self.block_len = np.array(_label_block_lengths(lengths))

    def block_columns(self, level: int, gens: np.ndarray) -> np.ndarray:
        """The translations of block level + 2 for each generator g in gens,
        as (K, n, l) columns: column k - 1 is R_1^k g R_1^-k, the gather
        g[R_1^-k] mapped through R_1^k."""
        lo, hi = self.ns[level + 1], self.ns[level + 2]
        out = np.empty((len(gens), self.n, hi - lo), dtype=np.int8)
        for k in range(1, hi - lo + 1):
            out[:, :, k - 1] = self.r1_pow[k][gens[:, self.r1_pow[-k]]]
        return out

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
        leaves of generators.  A leaf g commutes with s = R_1^l and has
        propagated every g R_v = R_(g(v)) g with v, g(v) in L: the closure at
        u = n_i.  At u = 1 it follows from R_(lo+k-1) = R_1^k g R_1^-k and
        g s = s g; at u = R_1^k(n_i) it is the case u = n_i conjugated by
        R_1^k.  A propagation fault could change the counts but not admit a
        wrong table: the tree's _closed decides every hit."""
        self.filtered = [  # per block, the survivors' translations (K, n, l)
            self.block_columns(level, self.generators(level))
            for level in range(len(self.lengths) - 1)
        ]

    def run(self):
        """Depth-first over generator choices; returns (quandles, counters).
        A leaf passes _closed on all labels, which is right distributivity, and
        its columns are bijections fixing their own labels: it is a quandle by
        construction, kept when connected."""
        counters = {"nodes": 0, "conj": 0}
        found: list[QuandleTable] = []

        def descend(level: int, table: np.ndarray):
            lo, hi = self.ns[level + 1], self.ns[level + 2]
            blocks = self.filtered[level]
            counters["nodes"] += len(blocks)
            stack = np.repeat(table[None], len(blocks), axis=0)
            stack[:, :, lo:hi] = blocks
            for child in stack[_closed(stack, range(hi))]:
                if hi < self.n:
                    descend(level + 1, child)
                    continue
                counters["conj"] += 1
                q = QuandleTable._from_array(child)
                if is_connected(q):
                    found.append(q)

        root = np.zeros((self.n, self.n), dtype=np.int8)
        root[:, 0] = self.r1_pow[1]
        descend(0, root)
        return found, counters


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
    searcher.prepare()
    found, totals = searcher.run()
    quandles = tuple(sorted(found, key=lambda q: q.array.tolist()))
    iso_classes: tuple[tuple[int, ...], ...] = ()
    if dedup:
        types = [_cycle_lengths(q) for q in quandles]
        groups = _group_isomorphic(quandles, types, range(len(quandles)))
        iso_classes = tuple(tuple(members) for members in groups.values())

    raw = (searcher.per_block,) * len(searcher.filtered)
    stats = SearchStats(
        raw_space=prod(raw),
        per_generator_raw=raw,
        per_generator_unary=tuple(map(len, searcher.filtered)),
        nodes_expanded=totals["nodes"],
        conjugation_pass=totals["conj"],
        distributivity_pass=totals["conj"],
        connected_pass=len(quandles),
        elapsed=time.perf_counter() - start_time,
    )
    return SearchResult(spec, quandles, iso_classes, stats)


def prune_report(spec: SearchSpec, max_order: int | None = None) -> SearchStats:
    """Run the search and report survivor counts per filter stage; the
    isomorphism grouping is skipped, as no count depends on it."""
    return search_by_profile(spec, max_order, dedup=False).stats


def search_manifest(result: SearchResult, files: list[str] | None = None) -> dict:
    """The quandlekit.search/1 report; `files` is listed when tables were saved."""
    manifest = {
        "schema": "quandlekit.search/1",
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
