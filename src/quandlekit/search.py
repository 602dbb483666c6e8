"""Exhaustive search for connected quandles with a given distinct-length profile.

Any connected quandle whose translations have pairwise distinct cycle lengths
can be relabeled so that R_1 is the canonical block permutation and every
other translation is a power-of-R_1 conjugate of one of the c-1 block
generators R_(n_i).  The search therefore fixes R_1, enumerates candidate
generators (permutations with the target cycle structure fixing their own
index), derives the remaining translations by conjugation, and keeps the
tables that satisfy the conjugation closure, validate as quandles and are
connected; such a table has the target profile, as its translations are all
conjugate to the canonical R_1.  Filters run cheapest first; the survivors
at each stage are reported for tuning.  The search runs in one process:
the per-block enumeration and unary filter (_Searcher.prepare) take nearly
all of its time, and the tree walk after it takes milliseconds.

Permutations are 0-based integer arrays, the column form of QuandleTable.array:
a block's candidates come as (_SLICE, n) arrays of rows unranked from their row
numbers, its translations are gathers by powers of R_1, and a partial table
keeps R_u in column u.  One batched check, _closed, tests the conjugation
closure on a stack of partial tables: the unary filter calls it on one block
and R_1, the depth-first tree on the assigned prefix.

naive_connected_quandles is the independent reference for tiny orders: plain
depth-first assignment of columns with direct axiom checks, sharing nothing
with the canonical-form machinery.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass
from math import comb, factorial
from pathlib import Path

import numpy as np

from .core import QuandleTable, _integers, _power, format_qdl, validate_quandle
from .errors import (
    InvalidQuandleError,
    ParamOutOfRange,
    RepeatedLengthsUnsupported,
    SizeLimitExceeded,
)
from .limits import DEFAULT_SEARCH_CAP, resolve_cap
from .shq import _block_bounds, _canonical_r1, _label_block_lengths
from .structure import _group_isomorphic, is_connected

# Candidate generators are enumerated per block; past this count the
# enumeration would dominate the run time, so the search refuses upfront.
_RAW_CANDIDATE_LIMIT = 1_000_000
# Raw candidates are generated and filtered this many rows at a time, which
# bounds the memory of the rows and of the partial tables the closure check reads.
_SLICE = 4096


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
    """Survivor counts per filter stage, for tuning and regressions."""

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
    """Number of rows _cycle_candidates produces, closed form."""
    remaining = n - 1
    count = 1
    for length in (x for x in lengths if x > 1):
        count *= comb(remaining, length) * factorial(length - 1)
        remaining -= length
    return count


def _lex_permutations(ranks: np.ndarray, m: int) -> np.ndarray:
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


def _candidate_slices(n: int, lengths, fixed: int):
    """The rows of _cycle_candidates, _SLICE rows at a time.

    Row r is unranked from its mixed-radix digits, one per cycle length > 1
    with the first length most significant.  A digit picks a subset of the
    points still free, by lexicographic rank among the combinations, and the
    cycle through it, whose head is the subset's first point and whose tail
    is its rest in the lexicographic order of the permutations.  Only the
    combination tables are built per level; the temporaries grow with
    _SLICE, not with the number of rows.
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
    for start in range(0, total, _SLICE):
        ranks = np.arange(start, min(start + _SLICE, total))
        out = np.tile(np.arange(n, dtype=np.int8), (len(ranks), 1))
        left = np.broadcast_to(points, (len(ranks), len(points)))
        weight = total
        for length, subsets, rest in levels:
            weight //= len(subsets) * factorial(length - 1)
            digit, ranks = np.divmod(ranks, weight)
            pick, tail = np.divmod(digit, factorial(length - 1))
            cyc = np.take_along_axis(left, subsets[pick], axis=1)
            cyc[:, 1:] = np.take_along_axis(
                cyc[:, 1:], _lex_permutations(tail, length - 1), axis=1
            )
            np.put_along_axis(out, cyc, np.roll(cyc, -1, axis=1), axis=1)
            left = np.take_along_axis(left, rest[pick], axis=1)
        yield out


def _cycle_candidates(n: int, lengths, fixed: int) -> np.ndarray:
    """All 0-based images with cycle type `lengths` whose unique fixed point
    is `fixed`, one per row, in deterministic order.

    int8 holds every label: _RAW_CANDIDATE_LIMIT refuses every order past 12.
    """
    return np.concatenate(list(_candidate_slices(n, lengths, fixed)))


def _closed(tables: np.ndarray, labels) -> np.ndarray:
    """Indices of the partial tables in a stack that satisfy the conjugation
    closure on `labels`.

    tables is a (B, n, n) stack whose column u is the translation R_u for
    every u in labels; no other column is read as a translation.  Table b is
    kept when R_(v*u) = R_u R_v R_u^-1 for all u, v in labels with v*u in
    labels.  The relation is compared pointwise as (y*u)*(v*u) = (y*v)*u for
    every y, which needs no inverse.  The pairs (u, v) are tested one at a
    time, u-major in the order of `labels`, each on the tables that passed
    the pairs before it: a candidate stack loses nearly all its tables in the
    first pairs, after n comparisons per table rather than n per label.
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
        per_block = _candidate_count(self.n, lengths)
        if per_block > _RAW_CANDIDATE_LIMIT:
            raise SizeLimitExceeded(
                f"profile {lengths} needs {per_block} candidate generators "
                f"per block, beyond the supported {_RAW_CANDIDATE_LIMIT}"
            )
        self.ns = (0,) + _block_bounds(lengths)
        r1 = _canonical_r1(lengths)
        self.r1_pow = {
            k: np.array(_power(r1, k), dtype=np.int8)
            for k in range(-max(lengths), max(lengths) + 1)
        }
        self.block_len = np.array(_label_block_lengths(lengths))
        self.raw_counts: list[int] = []
        self.unary_counts: list[int] = []
        # per block: the surviving translations of the block, as (K, n, l) columns
        self.filtered: list[np.ndarray] = []

    def block_tables(self, level: int, cands: np.ndarray) -> np.ndarray:
        """One partial table per generator candidate of block level + 2.

        Column 0 is R_1; column lo + k - 1 of the block holds R_1^k g R_1^-k,
        the gather g[R_1^-k] mapped through R_1^k; other columns are 0.
        """
        lo, hi = self.ns[level + 1], self.ns[level + 2]
        out = np.zeros((len(cands), self.n, self.n), dtype=np.int8)
        out[:, :, 0] = self.r1_pow[1]
        for k in range(1, hi - lo + 1):
            out[:, :, lo + k - 1] = self.r1_pow[k][cands[:, self.r1_pow[-k]]]
        return out

    def prepare(self):
        """Enumerate and unary-filter the generator candidates per block."""
        for level in range(len(self.lengths) - 1):
            lo, hi = self.ns[level + 1], self.ns[level + 2]
            ell = hi - lo
            s = self.r1_pow[ell]
            need = np.lcm(self.block_len, ell)
            # R_1 last: commuting with R_1^l already implies its closure
            labels = [*range(lo, hi), 0]
            keep = []
            for cand in _candidate_slices(self.n, self.lengths, hi - 1):
                cand = cand[(cand[:, s] == s[cand]).all(axis=1)]  # commutes with R_1^l
                cand = cand[(need % self.block_len[cand] == 0).all(axis=1)]
                tables = self.block_tables(level, cand)
                keep.append(tables[_closed(tables, labels)][:, :, lo:hi])
            self.raw_counts.append(_candidate_count(self.n, self.lengths))
            self.filtered.append(np.concatenate(keep))
            self.unary_counts.append(len(self.filtered[-1]))

    def run(self):
        """Depth-first over generator choices; returns (tables, counters)."""
        counters = {"nodes": 0, "conj": 0, "dist": 0, "conn": 0}
        found: list[np.ndarray] = []

        def descend(level: int, table: np.ndarray):
            lo, hi = self.ns[level + 1], self.ns[level + 2]
            blocks = self.filtered[level]
            counters["nodes"] += len(blocks)
            stack = np.repeat(table[None], len(blocks), axis=0)
            stack[:, :, lo:hi] = blocks
            for child in stack[_closed(stack, range(hi))]:
                if hi == self.n:
                    counters["conj"] += 1
                    self._emit(child, counters, found)
                else:
                    descend(level + 1, child)

        root = np.zeros((self.n, self.n), dtype=np.int8)
        root[:, 0] = self.r1_pow[1]
        descend(0, root)
        return found, counters

    def _emit(self, table, counters, found):
        """Validate a full table that passed the closure and keep it if connected."""
        result = validate_quandle(table + 1)
        if not result.ok:
            raise InvalidQuandleError(result)
        q = QuandleTable._from_array(table)
        counters["dist"] += 1
        if not is_connected(q):
            return
        counters["conn"] += 1
        found.append(q.array)


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
    found.sort(key=lambda table: table.tolist())
    # every hit was validated once in _emit
    quandles = tuple(QuandleTable._from_array(table) for table in found)
    iso_classes: tuple[tuple[int, ...], ...] = ()
    if dedup:
        groups = _group_isomorphic(quandles, range(len(quandles)))
        iso_classes = tuple(tuple(members) for members in groups.values())

    raw_space = 1
    for cnt in searcher.raw_counts:
        raw_space *= cnt
    stats = SearchStats(
        raw_space=raw_space,
        per_generator_raw=tuple(searcher.raw_counts),
        per_generator_unary=tuple(searcher.unary_counts),
        nodes_expanded=totals["nodes"],
        conjugation_pass=totals["conj"],
        distributivity_pass=totals["dist"],
        connected_pass=totals["conn"],
        elapsed=time.perf_counter() - start_time,
    )
    return SearchResult(spec, quandles, iso_classes, stats)


def prune_report(spec: SearchSpec, max_order: int | None = None) -> SearchStats:
    """Run the search and report survivor counts per filter stage."""
    return search_by_profile(spec, max_order).stats


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
