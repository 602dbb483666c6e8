"""Exhaustive search for connected quandles with a given distinct-length profile.

Any connected quandle whose translations have pairwise distinct cycle lengths
can be relabeled so that R_1 is the canonical block permutation and every
other translation is a power-of-R_1 conjugate of one of the c-1 block
generators R_(n_i).  The search therefore fixes R_1, enumerates candidate
generators (permutations with the target cycle structure fixing their own
index), derives the remaining translations by conjugation, and keeps the
tuples that satisfy the conjugation closure, validate as quandles, are
connected, and match the profile.  Filters run cheapest first; the survivors
at each stage are reported for tuning.

naive_connected_quandles is the independent reference for tiny orders: plain
depth-first assignment of columns with direct axiom checks, sharing nothing
with the canonical-form machinery.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import comb, factorial, lcm
from pathlib import Path

import numpy as np

from .core import QuandleTable, format_qdl
from .errors import ParamOutOfRange, RepeatedLengthsUnsupported, SizeLimitExceeded
from .limits import DEFAULT_SEARCH_CAP, resolve_cap
from .shq import _block_bounds, _canonical_r1, _label_block_lengths
from .structure import are_isomorphic, is_connected, profile

# Candidate generators are materialized per block; past this count the
# enumeration would dominate memory and time, so the search refuses upfront.
_RAW_CANDIDATE_LIMIT = 1_000_000


@dataclass(frozen=True)
class SearchSpec:
    """Target profile for the search: strictly increasing lengths from 1."""

    lengths: tuple[int, ...]

    def __post_init__(self):
        lengths = tuple(int(x) for x in self.lengths)
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


def _compose(p, q):
    return tuple(p[v] for v in q)


def _inverse(p):
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def _conj(s, s_inv, x):
    """s o x o s^-1 as an image tuple."""
    return tuple(s[x[s_inv[j]]] for j in range(len(x)))


def _candidate_count(n: int, lengths) -> int:
    """Number of image tuples _cycle_candidates would produce, closed form."""
    remaining = n - 1
    count = 1
    for length in (x for x in lengths if x > 1):
        count *= comb(remaining, length) * factorial(length - 1)
        remaining -= length
    return count


def _cycle_candidates(n: int, lengths, fixed: int):
    """All image tuples with cycle type `lengths` whose unique fixed point is
    `fixed`, in deterministic order."""
    rest = [x for x in range(n) if x != fixed]
    big = [x for x in lengths if x > 1]
    out = []
    img = list(range(n))

    def rec(level: int, remaining: tuple[int, ...]):
        if level == len(big):
            out.append(tuple(img))
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
        return

    rec(0, tuple(rest))
    return out


class _Searcher:
    def __init__(self, lengths: tuple[int, ...]):
        self.lengths = lengths
        self.c = len(lengths)
        self.n = sum(lengths)
        self.ns = _block_bounds(lengths)
        self.r1 = _canonical_r1(lengths)
        self.r1_inv = _inverse(self.r1)
        top = max(lengths)
        pows = [tuple(range(self.n))]
        for _ in range(top):
            pows.append(_compose(self.r1, pows[-1]))
        self.r1_pows = pows
        self.r1_pows_inv = [_inverse(p) for p in pows]
        self.block_len = _label_block_lengths(lengths)
        self.raw_counts: list[int] = []
        self.unary_counts: list[int] = []
        self.filtered: list[list[tuple]] = []  # per level: (placements,)

    def prepare(self):
        """Enumerate and unary-filter the generator candidates per block."""
        per_block = _candidate_count(self.n, self.lengths)
        if per_block > _RAW_CANDIDATE_LIMIT:
            raise SizeLimitExceeded(
                f"profile {self.lengths} needs {per_block} candidate generators "
                f"per block, beyond the supported {_RAW_CANDIDATE_LIMIT}"
            )
        for i in range(2, self.c + 1):
            ell = self.lengths[i - 1]
            gen_pos = self.ns[i - 1] - 1
            lo = self.ns[i - 2]
            block = range(lo, self.ns[i - 1])
            raw = _cycle_candidates(self.n, self.lengths, gen_pos)
            self.raw_counts.append(len(raw))
            keep = []
            s, s_inv = self.r1_pows[ell], self.r1_pows_inv[ell]
            for cand in raw:
                if _conj(s, s_inv, cand) != cand:
                    continue
                ok = True
                for x in range(self.n):
                    if lcm(self.block_len[x], ell) % self.block_len[cand[x]]:
                        ok = False
                        break
                if not ok:
                    continue
                placement = self._derive(i, cand)
                if self._intra_block_ok(block, placement):
                    keep.append(placement)
            self.unary_counts.append(len(keep))
            self.filtered.append(keep)

    def _derive(self, i: int, cand):
        """Translations of block i: position ns[i-2]+k-1 holds R_1^k gen R_1^-k."""
        ell = self.lengths[i - 1]
        lo = self.ns[i - 2]
        place = [None] * ell
        for k in range(1, ell + 1):
            der = _conj(self.r1_pows[k], self.r1_pows_inv[k], cand)
            place[k - 1] = (lo + k - 1, der, _inverse(der))
        return tuple(place)

    def _intra_block_ok(self, block, placement) -> bool:
        """Conjugation closure restricted to translations {R_1} + this block."""
        known = {0: (self.r1, self.r1_inv)}
        for pos, der, der_inv in placement:
            known[pos] = (der, der_inv)
        n = self.n
        for u, (tu, tu_inv) in known.items():
            if u == 0:
                continue  # conjugating by R_1 holds by construction
            for v in known:
                t = tu[v]
                if t not in known:
                    continue
                tt = known[t][0]
                tv = known[v][0]
                for x in range(n):
                    if tt[x] != tu[tv[tu_inv[x]]]:
                        return False
        return True

    def run(self, chunk: tuple[int, int] | None = None):
        """Depth-first over generator choices; returns (tables, counters)."""
        trans = [None] * self.n
        trans_inv = [None] * self.n
        trans[0] = self.r1
        trans_inv[0] = self.r1_inv
        counters = {"nodes": 0, "conj": 0, "dist": 0, "conn": 0}
        found: list[tuple[tuple[int, ...], ...]] = []

        def check_level(i: int) -> bool:
            prefix = self.ns[i - 1]
            prev = self.ns[i - 2]
            n = self.n
            for u in range(prefix):
                tu = trans[u]
                tu_inv = trans_inv[u]
                for v in range(prefix):
                    t = tu[v]
                    if u < prev and v < prev and t < prev:
                        continue  # checked at an earlier level
                    if t >= prefix:
                        continue  # deferred until block(t) is assigned
                    tt = trans[t]
                    tv = trans[v]
                    for x in range(n):
                        if tt[x] != tu[tv[tu_inv[x]]]:
                            return False
            return True

        def descend(level: int):
            i = level + 2  # block index
            cands = self.filtered[level]
            if level == 0 and chunk is not None:
                cands = cands[chunk[0] : chunk[1]]
            for placement in cands:
                counters["nodes"] += 1
                for pos, der, der_inv in placement:
                    trans[pos] = der
                    trans_inv[pos] = der_inv
                if check_level(i):
                    if i == self.c:
                        counters["conj"] += 1
                        self._emit(trans, counters, found)
                    else:
                        descend(level + 1)
                for pos, _, _ in placement:
                    trans[pos] = None
                    trans_inv[pos] = None

        descend(0)
        return found, counters

    def _emit(self, trans, counters, found):
        rows = [
            tuple(trans[u][v] + 1 for u in range(self.n)) for v in range(self.n)
        ]
        q = QuandleTable.from_rows(rows)
        counters["dist"] += 1
        if not is_connected(q):
            return
        prof = profile(q)
        if prof.connected_form is None or prof.connected_form.lengths != self.lengths:
            return  # cannot happen: structures are forced; kept as a guard
        counters["conn"] += 1
        found.append(tuple(rows))


def _worker(args):
    lengths, start, stop = args
    searcher = _Searcher(lengths)
    searcher.prepare()
    found, counters = searcher.run((start, stop))
    return found, counters


def _pool_size(workers: int, top: int) -> int:
    """Processes for a search whose top level has `top` candidates.

    1 means the search runs in this process: it does unless every one of the
    requested workers gets at least two top-level candidates.  The pool never
    exceeds the CPU count.
    """
    if top < 2 * workers:
        return 1
    return min(workers, os.cpu_count() or 1)


def search_by_profile(
    spec: SearchSpec,
    max_order: int | None = None,
    workers: int = 1,
    dedup: bool = True,
) -> SearchResult:
    """All connected quandles with the given profile, up to the search cap.

    Output is deterministic: tables are sorted by their flattened rows and
    isomorphism classes listed by first representative, regardless of
    worker count.  dedup=False skips the isomorphism grouping.
    """
    if workers < 1:
        raise ParamOutOfRange(f"workers must be >= 1, got {workers}")
    cap = resolve_cap(max_order, DEFAULT_SEARCH_CAP)
    if spec.order > cap:
        raise SizeLimitExceeded(f"order {spec.order} exceeds search cap {cap}")
    start_time = time.perf_counter()
    searcher = _Searcher(spec.lengths)
    searcher.prepare()
    totals = {"nodes": 0, "conj": 0, "dist": 0, "conn": 0}
    rows_found: list = []
    top = len(searcher.filtered[0]) if searcher.filtered else 0
    size = _pool_size(workers, top)
    if size == 1:
        rows_found, totals = searcher.run()
    else:
        bounds = [(top * w) // size for w in range(size + 1)]
        args = [(spec.lengths, bounds[w], bounds[w + 1]) for w in range(size)]
        with ProcessPoolExecutor(max_workers=size) as pool:
            for found, counters in pool.map(_worker, args):
                rows_found.extend(found)
                for key in totals:
                    totals[key] += counters[key]
    rows_found.sort()
    # every hit was validated once in _emit
    quandles = tuple(
        QuandleTable._from_array(np.subtract(rows, 1)) for rows in rows_found
    )

    iso_classes: tuple[tuple[int, ...], ...] = ()
    if dedup:
        reps: list[int] = []
        classes: dict[int, list[int]] = {}
        for idx, q in enumerate(quandles):
            for r in reps:
                if are_isomorphic(q, quandles[r]) is not None:
                    classes[r].append(idx)
                    break
            else:
                reps.append(idx)
                classes[idx] = [idx]
        iso_classes = tuple(tuple(classes[r]) for r in reps)

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
