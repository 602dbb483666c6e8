"""Operation tables, permutations, axiom validation, and .qdl files.

Tables are n x n with entries in 1..n; the entry in row i, column j is i * j.
Column i therefore lists the right translation R_i, the map j -> j * i.  A
table is a quandle when every i * i = i, every column is a bijection, and
(i * j) * k = (i * k) * (j * k) holds for all triples.

The .qdl text format, read as UTF-8: optional '#' comment lines, then the
order n on its own line, then n rows of n whitespace-separated integers, all
ASCII decimal (an optional leading '-', then digits 0-9).  The writer emits the
canonical form (no comments unless asked, single spaces, trailing newline), so
parse(format(q)) round-trips bit-exactly.
"""

from __future__ import annotations

import codecs
import functools
import io
import itertools
from dataclasses import dataclass
from numbers import Integral
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    ConjugationViolation,
    FixedPointMissing,
    IndexOutOfRange,
    InvalidQuandleError,
    ParamOutOfRange,
    ParseError,
)
from .limits import DEFAULT_TABLE_CAP, ENV_MAX_ORDER, resolve_cap

def _integers(values, what: str = "lengths") -> tuple[int, ...]:
    """values as a tuple of ints; ParamOutOfRange unless each one is an integer.

    Any Integral passes, numpy integers included, but not bool; floats and
    strings are refused rather than truncated or parsed by int().
    """
    values = tuple(values)
    if all(type(x) is int for x in values):  # the common case, without the ABC check
        return values
    if not all(isinstance(x, Integral) and not isinstance(x, bool) for x in values):
        raise ParamOutOfRange(f"{what} must be integers, got {values}")
    return tuple(map(int, values))


@dataclass(frozen=True, order=True)
class CycleStructure:
    """Multiset of disjoint-cycle lengths of a permutation, sorted ascending."""

    lengths: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "lengths", _integers(self.lengths, "cycle lengths"))
        if not self.lengths or any(x < 1 for x in self.lengths):
            raise ParamOutOfRange(f"bad cycle lengths {self.lengths}")
        if list(self.lengths) != sorted(self.lengths):
            raise ParamOutOfRange("cycle lengths must be sorted ascending")

    @classmethod
    def from_lengths(cls, lengths: Iterable[int]) -> "CycleStructure":
        return cls(tuple(sorted(lengths)))

    @property
    def total(self) -> int:
        """Number of points moved or fixed, i.e. the degree."""
        return sum(self.lengths)

    def __str__(self) -> str:
        parts = []
        i = 0
        while i < len(self.lengths):
            j = i
            while j < len(self.lengths) and self.lengths[j] == self.lengths[i]:
                j += 1
            if j - i == 1:
                parts.append(str(self.lengths[i]))
            else:
                parts.append(f"{self.lengths[i]}^{j - i}")
            i = j
        return "(" + ", ".join(parts) + ")"


def _cycles(img: Sequence[int]) -> list[list[int]]:
    """Disjoint cycles of the 0-based permutation img (img[x] is the image of
    x), in orbit order, each starting at its smallest point."""
    seen = [False] * len(img)
    out = []
    for start in range(len(img)):
        if seen[start]:
            continue
        cyc = []
        x = start
        while not seen[x]:
            seen[x] = True
            cyc.append(x)
            x = img[x]
        out.append(cyc)
    return out


def _power(img: Sequence[int], k: int) -> list[int]:
    """0-based image of img**k, for any integer k: each point moves k steps
    along its cycle."""
    out = [0] * len(img)
    for cyc in _cycles(img):
        for i, x in enumerate(cyc):
            out[x] = cyc[(i + k) % len(cyc)]
    return out


def _column_powers(tbl: np.ndarray, k: int) -> np.ndarray:
    """The table whose column x is column x of tbl raised to the power k >= 0,
    each column read as the 0-based permutation y -> tbl[y, x].  Repeated
    squaring, each step one gather of the whole table: O(n^2 log k)."""
    cols = np.arange(tbl.shape[1])
    out = None
    while k:
        if k & 1:
            out = tbl if out is None else tbl[out, cols]
        k >>= 1
        if k:
            tbl = tbl[tbl, cols]
    return np.indices(tbl.shape)[0] if out is None else out


# The canonical block layout of a distinct-length profile (see shq), kept here
# so that search can use it without loading shq.
def _block_bounds(lengths) -> tuple[int, ...]:
    """Partial sums n_1 < ... < n_c of the block lengths."""
    return tuple(itertools.accumulate(lengths))


def _label_block_lengths(lengths) -> tuple[int, ...]:
    """Length of the block holding each 0-based canonical label."""
    return tuple(x for x in lengths for _ in range(x))


def _canonical_r1(lengths) -> tuple[int, ...]:
    """0-based image of the canonical R_1: each block is one forward cycle."""
    ns = _block_bounds(lengths)
    img: list[int] = []
    for lo, hi in zip((0,) + ns, ns):
        img.extend(range(lo + 1, hi))
        img.append(lo)
    return tuple(img)


class Permutation:
    """Bijection of {1..n}, stored as the image tuple (image[i-1] = sigma(i))."""

    __slots__ = ("n", "image")

    def __init__(self, image: Iterable[int]):
        img = tuple(image)
        n = len(img)
        if sorted(img) != list(range(1, n + 1)):
            raise ParamOutOfRange(f"not a permutation of 1..{n}: {img}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "image", img)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Iterable[int]]) -> "Permutation":
        img = list(range(1, n + 1))
        for cyc in cycles:
            cyc = tuple(cyc)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                if not 1 <= a <= n:
                    raise IndexOutOfRange(f"label {a} outside 1..{n}")
                img[a - 1] = b
        return cls(img)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise IndexOutOfRange(f"label {i} outside 1..{self.n}")
        return self.image[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: (p * q)(i) = p(q(i))."""
        if self.n != other.n:
            raise ParamOutOfRange("cannot compose permutations of different degree")
        img = self.image
        return Permutation(img[x - 1] for x in other.image)

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, x in enumerate(self.image):
            inv[x - 1] = i + 1
        return Permutation(inv)

    def __pow__(self, k: int) -> "Permutation":
        return Permutation(x + 1 for x in _power([x - 1 for x in self.image], k))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Disjoint cycles in orbit order, each starting at its smallest label."""
        return tuple(tuple(x + 1 for x in c) for c in _cycles([x - 1 for x in self.image]))

    def cycle_structure(self) -> CycleStructure:
        return CycleStructure.from_lengths(len(c) for c in self.cycles())

    def fixed_points(self) -> tuple[int, ...]:
        return tuple(i for i in range(1, self.n + 1) if self.image[i - 1] == i)

    def order(self) -> int:
        from math import lcm

        return lcm(*(len(c) for c in self.cycles()))

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.image == other.image

    def __hash__(self) -> int:
        return hash(self.image)

    def __repr__(self) -> str:
        moved = [c for c in self.cycles() if len(c) > 1]
        if not moved:
            return f"Permutation(id/{self.n})"
        body = "".join("(" + " ".join(map(str, c)) + ")" for c in moved)
        return f"Permutation({body})"


def cycle_structure(p: Permutation) -> CycleStructure:
    """Cycle structure of a permutation, e.g. (1, 2, 6)."""
    return p.cycle_structure()


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of axiom validation; error is None when the table is valid.

    Error names: NonSquare, EntryOutOfRange, IdempotencyViolation,
    RightInvertibilityViolation, DistributivityViolation.  The witness holds
    the 1-based indices of the first violation in scan order (i, then j,
    then k).
    """

    ok: bool
    error: str | None = None
    witness: tuple[int, ...] = ()
    order: int = 0

    def __str__(self) -> str:
        if self.ok:
            return f"valid quandle of order {self.order}"
        at = f" at {self.witness}" if self.witness else ""
        return f"{self.error}{at}"


def _orbit_minima(moves: np.ndarray) -> np.ndarray:
    """low[x]: the smallest label (int32) of x's orbit under the maps whose
    images of x are the row moves[x].  Each label takes the smallest low of
    its images until none drops; the maps are permutations, so every label
    of an orbit reaches every other and the fixpoint is the orbit minimum.
    The first step reads the row minima, as low starts as the identity.
    After each step low jumps to low[low]: low[x] stays a label of x's
    orbit no larger than x, so the fixpoint is the same, but a long cycle
    is crossed in far fewer steps than its length."""
    low = np.arange(moves.shape[0], dtype=np.int32)
    nxt = np.minimum(low, moves.min(axis=1), dtype=np.int32)
    while nxt.any() and (nxt < low).any():  # all 0: one orbit
        low = nxt.take(nxt)
        nxt = np.minimum(low, low.take(moves).min(axis=1))
    return nxt


def _merged_orbits(low: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """(k, n) orbit minima: row r of low, a partition of the labels given by
    each label's smallest orbit-mate (as from _orbit_minima), joined with
    the cycles of the permutation cols[r].

    The rows are stacked end to end into one forest whose roots are the
    labels with low[x] == x.  While some x and its image lie under different
    roots, the larger root hooks to a smaller such other root, and every
    label then jumps to its root (low = low[low]).  A label only ever hooks
    to a smaller one of its merged orbit, so each orbit's smallest label
    stays its root and the fixpoint is the merged orbit minima.
    """
    k, n = low.shape
    off = np.arange(0, k * n, n, dtype=np.int32)[:, None]
    img = (cols + off).ravel()
    low = (low + off).ravel()
    while True:  # take: a 1-D gather at about twice the speed of low[img]
        ahead = low.take(img)
        moved = np.flatnonzero(ahead != low)
        if not moved.size:
            return low.reshape(k, n) - off
        a, b = low[moved], ahead[moved]
        low[np.maximum(a, b)] = np.minimum(a, b)
        top = low.take(low)
        while (top != low).any():
            low, top = top, top.take(top)


def _orbits_meeting(low: np.ndarray, labels) -> np.ndarray:
    """The union, as a mask, of the orbits (orbit minima low) that meet
    labels, a mask or a list of labels."""
    met = np.zeros(low.shape[0], dtype=bool)
    met[low[labels]] = True
    return met.take(low)


def _generators(tbl: np.ndarray, closed: np.ndarray | None = None):
    """Greedy generating set of a table, 0-based, yielded lazily.

    Each label yielded is the smallest one outside the closure of those
    yielded before, taken only when the next label is asked for.  A caller
    may send back, instead of resuming with next(), labels to join the mask
    in place of the label yielded; they must include it, and their columns
    must equal its column.  The walk keeps the orbit minima of the group
    G generated by the columns yielded, merging each new column into them
    (_merged_orbits); when those columns are automorphisms, the closure of
    the mask is the union of the G-orbits that meet it (see _distributive).
    The mask is `closed`, updated in place, when the caller gives one.
    On a quandle the columns of a generating set also generate the inner
    automorphism group, since R_(a*b) = R_b R_a R_b^-1.
    """
    low = np.arange(tbl.shape[0], dtype=np.int32)[None]
    closed = np.zeros(tbl.shape[0], dtype=bool) if closed is None else closed
    g = 0
    while True:
        same = yield g
        closed[g if same is None else same] = True
        low = _merged_orbits(low, tbl[:, g][None])
        closed[:] = _orbits_meeting(low[0], closed)
        g = int(np.argmin(closed))
        if closed[g]:
            return


def _automorphism(tbl: np.ndarray, col: np.ndarray, moved: np.ndarray) -> bool:
    """Whether the permutation col, which moves the points `moved` (a
    mask), is an automorphism of a table whose columns are bijections:
    col[i*j] = col[i]*col[j] for all (i, j).

    With S the points col moves and F those it fixes, only the pairs with
    i in S, and those with i in F and j in S, are compared: O(|S| n) rather
    than n^2.  The pairs with i and j in F follow.  For j in F the pairs
    (i, j) with i in S say col R_j = R_j col on S, so R_j maps no point of
    S into F (there col is the identity, and R_j is injective); then R_j
    maps F onto F, and col fixes i*j.
    """
    s, f = np.flatnonzero(moved), np.flatnonzero(~moved)[:, None]
    img = col[s]
    rows = tbl[s]
    # in place, which mode="clip" allows (the entries are labels): one new
    # array fewer keeps the check level with the plain n^2 gather on
    # connected tables; and two 1-D gathers beat the 2-D fancy index
    # tbl[img[:, None], col[None, :]]
    col.take(rows, out=rows, mode="clip")
    if not np.array_equal(rows, tbl[img][:, col]):
        return False
    return np.array_equal(col.take(tbl[f, s]), tbl[f, img])


def _distributive(tbl: np.ndarray) -> np.ndarray:
    """Right distributivity of a table whose columns are bijections: the
    labels, ascending, that the walk below has not settled when a check
    fails, or none when the table is distributive.

    Checks that R_g is an automorphism for each g of the greedy generating
    walk of _generators, each before the next is found.  Distributivity at
    k reads only the column R_k, so each check also settles every label
    whose column equals R_g, and these join the walk's mask.  The walk
    reads the mask's closure off the orbits of the group G the checked
    columns generate, which rests on a lemma.  When every column of tbl is
    a bijection and every label x of X has an automorphism R_x, closure(X)
    = G.X: G.X holds X and is closed, as g(x) * h(y) = R_(h(y)) g(x) and
    R_(h(y)) = h R_y h^-1 lies in G; and each R_x maps closure(X) onto
    itself.  Each label h(y) of it has a conjugate column h R_y h^-1, an
    automorphism too.  So every label in the mask is settled: distributivity
    holds at it, and only the columns outside the mask can fail.  The table
    is distributive once the mask holds every label: after one check on the
    trivial table, two on a connected affine one, and two per component on
    a disjoint union of small connected quandles, where each check is O(n)
    (_automorphism).
    """
    labels = np.arange(tbl.shape[0])
    settled = np.zeros(tbl.shape[0], dtype=bool)
    walk = _generators(tbl, settled)
    g = next(walk)
    while True:
        col = tbl[:, g]
        moved = col != labels
        if not _automorphism(tbl, col, moved):
            return np.flatnonzero(~settled)
        # the columns equal to R_g, among those that agree with it on the
        # first point it moves
        r = np.argmax(moved)
        same = np.flatnonzero(tbl[r] == col[r])
        if same.size > 1:
            same = same[(tbl[:, same] == col[:, None]).all(axis=0)]
        try:
            g = walk.send(same)
        except StopIteration:
            return labels[:0]


def _first_mismatch(tbl: np.ndarray, cols: np.ndarray) -> tuple[int, int, int] | None:
    """Lexicographically first failing (i, j, k) of right distributivity,
    0-based, among the k of cols (ascending): the labels _distributive left
    unsettled, or every label for the full scan.

    Row i compares (i*j)*k = t[t[i]] with (i*k)*(j*k) over all (j, k) at
    once and stops at the first row with a mismatch: O(n |cols|) a row.
    """
    tk = tbl[:, cols]
    for i, ti in enumerate(tbl):
        bad = np.argwhere(tk[ti] != tbl[ti[cols][None, :], tk])
        if bad.size:
            return i, int(bad[0, 0]), int(cols[bad[0, 1]])
    return None


def _int_table(rows: Sequence[Sequence[int]], n: int) -> np.ndarray | None:
    """rows as one n x n integer array, or None when numpy makes no such array."""
    try:
        arr = np.asarray(rows)
    except ValueError:  # ragged below the row level
        return None
    return arr if arr.dtype.kind in "iu" and arr.shape == (n, n) else None


def validate_quandle(rows: Sequence[Sequence[int]]) -> ValidationResult:
    """Check the three quandle axioms; report the first violation found.

    Scan order is idempotency over i, then column bijectivity over j, then
    distributivity over (i, j, k) lexicographically.  Distributivity is
    decided on a generating set (_distributive); only a failing table pays
    for the scan that finds its first witness, over the columns the walk
    left unsettled.  rows may also be an integer numpy array, which is
    read without a copy.
    """
    return _validated(rows)[0]


def _validated(rows: Sequence[Sequence[int]]) -> tuple[ValidationResult, np.ndarray | None]:
    """validate_quandle's result, and the table 0-based as a new int32 array
    when it is a quandle (else None)."""
    n = len(rows)
    if n == 0:
        return ValidationResult(False, "NonSquare", ()), None
    for i, row in enumerate(rows, start=1):
        if len(row) != n:
            return ValidationResult(False, "NonSquare", (i,)), None
    arr = _int_table(rows, n)
    if arr is None:  # find the first bad entry; bools pass, as ints
        for i, row in enumerate(rows, start=1):
            for j, v in enumerate(row, start=1):
                if not isinstance(v, int) or not 1 <= v <= n:
                    return ValidationResult(False, "EntryOutOfRange", (i, j)), None
        arr = np.array(rows, dtype=np.int32)
    elif arr.min() < 1 or arr.max() > n:
        i, j = np.argwhere((arr < 1) | (arr > n))[0]
        return ValidationResult(False, "EntryOutOfRange", (int(i) + 1, int(j) + 1)), None
    t = np.subtract(arr, 1, dtype=np.int32)
    labels = np.arange(n)
    bad = np.flatnonzero(t.diagonal() != labels)
    if bad.size:
        return ValidationResult(False, "IdempotencyViolation", (int(bad[0]) + 1,)), None
    bad = np.flatnonzero((np.sort(t, axis=0) != labels[:, None]).any(axis=0))
    if bad.size:
        return ValidationResult(False, "RightInvertibilityViolation", (int(bad[0]) + 1,)), None
    unsettled = _distributive(t)
    if unsettled.size:
        i, j, k = _first_mismatch(t, unsettled)
        return ValidationResult(False, "DistributivityViolation", (i + 1, j + 1, k + 1)), None
    return ValidationResult(True, None, (), n), t


class QuandleTable:
    """Immutable validated operation table with 1-based labels.

    The one stored form is `array`: the table 0-based, as a read-only int32
    numpy array, so column i - 1 is the right translation R_i.  `rows`,
    `row` and `op` are 1-based views derived from it.
    """

    __slots__ = ("array",)

    def __init__(self, rows: Sequence[Sequence[int]]):
        result, array = _validated(rows)
        if not result.ok:
            raise InvalidQuandleError(result)
        array.flags.writeable = False
        object.__setattr__(self, "array", array)

    @classmethod
    def _from_array(cls, array: np.ndarray) -> "QuandleTable":
        """Wrap a 0-based table that is a quandle by construction, unchecked.

        Right translations of a quandle are automorphisms, so its relabellings
        and the subtables of its closed subsets are quandles too.
        """
        self = object.__new__(cls)
        array = np.array(array, dtype=np.int32)
        array.flags.writeable = False
        object.__setattr__(self, "array", array)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("QuandleTable is immutable")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "QuandleTable":
        """Validate rows and wrap them; raises InvalidQuandleError on failure."""
        return cls(rows)

    @property
    def n(self) -> int:
        return len(self.array)

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The table as 1-based row tuples, built from the array on each call."""
        return tuple(map(tuple, (self.array + 1).tolist()))

    def op(self, i: int, j: int) -> int:
        """The product i * j."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexOutOfRange(f"labels ({i}, {j}) outside 1..{self.n}")
        return int(self.array[i - 1, j - 1]) + 1

    def row(self, i: int) -> tuple[int, ...]:
        if not 1 <= i <= self.n:
            raise IndexOutOfRange(f"label {i} outside 1..{self.n}")
        return tuple((self.array[i - 1] + 1).tolist())

    def __eq__(self, other) -> bool:
        return isinstance(other, QuandleTable) and np.array_equal(self.array, other.array)

    def __hash__(self) -> int:
        return hash(self.array.tobytes())

    def __repr__(self) -> str:
        return f"QuandleTable(order={self.n})"


def right_translation(q: QuandleTable, i: int) -> Permutation:
    """The permutation R_i: j -> j * i, i.e. column i of the table."""
    if not 1 <= i <= q.n:
        raise IndexOutOfRange(f"label {i} outside 1..{q.n}")
    return Permutation((q.array[:, i - 1] + 1).tolist())


def translations(q: QuandleTable) -> tuple[Permutation, ...]:
    """All right translations (R_1, ..., R_n)."""
    return tuple(right_translation(q, i) for i in range(1, q.n + 1))


def from_translations(perms: Sequence[Permutation]) -> QuandleTable:
    """Build the table whose columns are the given translations.

    The list yields a quandle exactly when R_(j*i) = R_i R_j R_i^-1 for all
    i, j and each R_i fixes i.  The conjugation condition is checked first:
    on bijective columns it is distributivity, decided by _distributive, and
    only a failing list is scanned in (i, j) order for the first witness,
    over the i whose columns the walk left unsettled.
    """
    n = len(perms)
    if n == 0 or any(p.n != n for p in perms):
        raise ParamOutOfRange("need n permutations of degree n")
    tbl = np.column_stack([p.image for p in perms]) - 1  # column i - 1 is R_i
    unsettled = _distributive(tbl)
    if unsettled.size:
        inv = np.argsort(tbl, axis=0)
        for i in unsettled.tolist():
            # column j: R_(j*i) against R_i R_j R_i^-1, compared at every point
            bad = np.flatnonzero((tbl[:, tbl[:, i]] != tbl[tbl[inv[:, i]], i]).any(axis=0))
            if bad.size:
                raise ConjugationViolation(i + 1, int(bad[0]) + 1)
    bad = np.flatnonzero(tbl.diagonal() != np.arange(n))
    if bad.size:
        raise FixedPointMissing(int(bad[0]) + 1)
    return QuandleTable._from_array(tbl)


def _decimal_ints(text: str) -> list[int]:
    """The whitespace-separated integers of text, each of the form -?[0-9]+.

    Raises ValueError on anything else.  int() alone also takes '+3', '0_3'
    and non-ASCII digits; on ASCII text without '+' or '_' it takes exactly
    the decimal form.
    """
    if not text.isascii() or "+" in text or "_" in text:
        raise ValueError(f"not ASCII decimal: {text!r}")
    return [int(tok) for tok in text.split()]


# the body is read this many bytes at a time, and the array pass converts
# the complete lines of each read, so the temporaries of _scan stay small
# next to the table (256 KiB reads made read_qdl about 25 % slower)
_CHUNK = 1 << 16

# the characters at which str.splitlines ends a line
_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def _utf8_error(exc: UnicodeDecodeError, before: int, held: str = "") -> ParseError:
    """The ParseError for a bad byte of exc.object, whose text follows
    `before` lines and then the text `held`."""
    # "x" stands in for the bad byte, so splitlines counts the line it is on
    text = held + exc.object[: exc.start].decode("utf-8") + "x"
    line = before + len(text.splitlines())
    return ParseError(f"not valid UTF-8 (byte {exc.object[exc.start]:#04x})", line)


def _order(head: str, lineno: int) -> int:
    """The order on the header line head; raises ParseError."""
    tokens = head.split()
    if len(tokens) != 1:
        raise ParseError(f"expected a single order, found {head!r}", lineno)
    try:
        (n,) = _decimal_ints(tokens[0])
    except ValueError:
        raise ParseError(f"invalid order {tokens[0]!r}", lineno) from None
    if n < 1:
        raise ParseError(f"order must be positive, found {n}", lineno)
    return n


def _line_path(chunks, lineno: int, n: int, keep: int, rows: int,
               last: int, errors: str) -> tuple[int, int, int, list[tuple[int, str]]]:
    """Decode the byte chunks, one at a time, to the end of the file, and
    count the rows in them: the lines that are neither blank nor comments.

    The chunks start a line; lineno lines and `rows` rows, the last on line
    `last`, precede them.  Returns the count of rows in all, the line of
    the last row, the line of row n + 1 (0 when there is none), and the
    line and stripped text of each row up to row `keep`.  A bad byte
    raises the ParseError that read_qdl gives for it.  Only a chunk and
    the rows kept are held, whatever the file's size or line lengths.
    """
    decoder = codecs.getincrementaldecoder("utf-8")(errors)
    extra, kept, row = 0, [], []
    kind = ""  # the first non-space character of the open line; "" while blank
    held = ""
    for chunk in itertools.chain(chunks, [b""]):
        try:
            text = held + decoder.decode(chunk, final=not chunk)
        except UnicodeDecodeError as exc:
            raise _utf8_error(exc, lineno, held) from None
        held = "\r" if chunk and text.endswith("\r") else ""  # it may pair with a "\n"
        text = text[: len(text) - len(held)] if chunk else text + "\n"  # the last line ends
        for line in text.splitlines(keepends=True):
            kind = kind or line.lstrip()[:1]
            if kind and kind != "#" and rows < keep:  # the open line is a row to keep
                row.append(line)
            if line[-1] in _BREAKS:
                lineno += 1
                if kind and kind != "#":
                    rows += 1
                    last = lineno
                    extra = extra or (lineno if rows == n + 1 else 0)
                    if row:
                        kept.append((lineno, "".join(row).strip()))
                        row = []
                kind = ""
    return rows, last, extra, kept


def _scan(buf: np.ndarray, n: int, room: int) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Check and convert the complete lines of one read, which starts a line.

    One set of byte masks gives the token starts and ends and the token
    count of each b"\n"-ended line.  A line is flagged for a byte other
    than an ASCII digit, space or tab, or "\r" before "\n"; for a run of
    10 or more digits; for a token count other than 0 or n; and as row
    room + 1.  Lines of no tokens are blank and skipped.  The mask of other
    bytes is built only when the digits, spaces and b"\n" do not fill the
    buffer, and the 10-digit runs are looked for only when the longest
    token has 10 digits or more.

    Returns (values, rows, lines, stop): the entries of the rows before
    the first flagged line, n to a row, read back a place at a time from
    each token's last digit; the index of each such row's line; and the
    number of lines and of bytes before the first flagged line, or in the
    whole buffer when none is flagged.  A flagged line need not be an error
    ('-1' is not): the caller reads it on the line path.
    """
    digits = buf - np.uint8(48)
    digit = digits < 10  # uint8 wraps below '0'
    breaks = np.flatnonzero(buf == 10)
    change = np.empty(buf.size + 1, dtype=bool)  # token starts and ends
    change[0], change[-1] = digit[0], digit[-1]
    np.not_equal(digit[1:], digit[:-1], out=change[1:-1])
    edges = np.flatnonzero(change)
    starts, ends = edges[::2], edges[1::2]
    lens = ends - starts
    longest = int(lens.max(initial=0))
    counts = np.diff(np.searchsorted(starts, breaks), prepend=0, append=starts.size)
    rows = np.flatnonzero(counts)
    flags = [rows[counts[rows] != n][:1], rows[room : room + 1]]
    if np.count_nonzero(digit) + np.count_nonzero(buf == 32) + breaks.size < buf.size:
        other = ~(digit | (buf == 32) | (buf == 9))
        other[breaks] = False
        crlf = breaks[buf[breaks - 1] == 13]
        other[crlf[crlf > 0] - 1] = False
        flags.append(np.searchsorted(breaks, np.flatnonzero(other)[:1]))
    if longest >= 10:
        flags.append(np.searchsorted(breaks, starts[np.flatnonzero(lens >= 10)[:1]]))
    lines, stop = breaks.size, buf.size
    flagged = min((int(f[0]) for f in flags if f.size), default=None)
    if flagged is not None:
        rows = rows[rows < flagged]
        lines, stop = flagged, int(breaks[flagged - 1]) + 1 if flagged else 0
    k = rows.size * n
    last, lens = ends[:k] - 1, lens[:k]
    values = digits[last].astype(np.int32)
    for p in range(1, min(longest, 9)):  # the rows kept have no 10-digit token
        # a token of p digits or fewer reads a byte before it (or at the
        # buffer's end) and multiplies it by 0; the dtype keeps the product
        # int32 under NumPy 1.x too, where uint8 * np.int32(100) is uint8
        last -= 1
        values += np.multiply(digits[last], lens > p, dtype=np.int32) * np.int32(10**p)
    return values.reshape(-1, n), rows, lines, stop


def _parse(f, errors: str) -> QuandleTable:
    """The table in the .qdl bytes of the binary file f, decoded as UTF-8
    with the given error handler.

    The header is read first, a line at a time: comment and blank lines,
    then the order line, then the cap check.  At or below the cap, the
    body goes through one loop of _CHUNK-byte reads: _scan checks and
    converts the complete lines of each read into the table, up to the
    first line it flags, or until a line runs longer than one read.  The
    rest of the file goes to _line_path, which also takes the whole body
    after an order above the cap or a bad order line.  It counts the
    rows and keeps those up to row n.  The errors then come in the order a
    line-by-line read of the whole file gives them: a bad byte, the order
    line, the row count, the cap, each kept row's entries, and last
    QuandleTable's witness.  Only the header line, the table, one read and
    the rows kept are held.
    """
    lineno = 0
    head = ""
    while not head or head.startswith("#"):
        raw = f.readline()
        if not raw:
            raise ParseError("no table data found")
        try:
            lines = raw.decode("utf-8", errors).splitlines(keepends=True)
        except UnicodeDecodeError as exc:
            raise _utf8_error(exc, lineno) from None
        while lines and (not head or head.startswith("#")):
            head = lines.pop(0).strip()
            lineno += 1
    at = lineno
    try:
        n, error = _order(head, at), None
    except ParseError as exc:
        n, error = 0, exc
    try:
        cap = resolve_cap(None, DEFAULT_TABLE_CAP)
    except ParamOutOfRange:  # raised again after the row count, as before
        cap = 0
    keep = n if error is None and n <= cap else 0
    table = np.empty((keep, keep), dtype=np.int32)
    done, last = 0, at
    # the lines the order line shares a b"\n"-line with, then the reads
    data = "".join(lines).encode("utf-8", errors)
    chunks = iter(functools.partial(f.read, _CHUNK), b"")
    for chunk in chunks if keep else ():
        data += chunk
        end = data.rfind(b"\n") + 1
        if not end:  # a line longer than one read
            break
        values, rows, passed, stop = _scan(np.frombuffer(data, np.uint8, end), n, n - done)
        table[done : done + len(values)] = values
        done += len(values)
        if rows.size:
            last = lineno + int(rows[-1]) + 1
        lineno += passed
        data = data[stop:]
        if stop < end:  # a flagged line
            break
    count, last, extra, kept = _line_path(itertools.chain([data] if data else [], chunks),
                                          lineno, n, keep, done, last, errors)
    if error is not None:
        raise error
    if count < n:
        raise ParseError(f"expected {n} rows, file ends after {count}", last)
    if count > n:
        raise ParseError("unexpected content after table", extra)
    cap = resolve_cap(None, DEFAULT_TABLE_CAP)
    if n > cap:
        raise ParseError(f"order {n} exceeds the cap {cap} ({ENV_MAX_ORDER})", at)
    entries = []
    for lineno, line in kept:
        tokens = line.split()
        if len(tokens) != n:
            raise ParseError(f"expected {n} entries, found {len(tokens)}", lineno)
        try:
            entries.append(_decimal_ints(line))
        except ValueError:
            raise ParseError(f"invalid integer in row: {line!r}", lineno) from None
    return QuandleTable(table[:done].tolist() + entries if entries else table)


def parse_qdl(text: str) -> QuandleTable:
    """Parse .qdl text; raises ParseError (with line number) on format errors.

    Integers are ASCII decimal, optionally negative: no '+', no '_', no
    other digit scripts.  An order above the table cap (2048, or
    QUANDLEKIT_MAX_ORDER) is refused before any row is converted.  The text
    is encoded and goes through read_qdl's reader (_parse), a _CHUNK of
    bytes at a time.
    """
    # lone surrogates make the round trip too, so no decoding error is raised
    return _parse(io.BytesIO(text.encode("utf-8", "surrogatepass")), "surrogatepass")


def format_qdl(q: QuandleTable, comments: Iterable[str] = ()) -> str:
    """Serialize to canonical .qdl text (optional leading comment lines).

    The rows are one gather of label cells: cell x is the decimal of label
    x + 1, right-aligned after NUL bytes, and a space.  Each row's last
    space becomes b"\n", and the NUL bytes are dropped in one compress.
    """
    width = len(str(q.n)) + 1
    labels = np.arange(1, q.n + 1)[:, None]
    places = 10 ** np.arange(width - 2, -1, -1)
    cells = np.zeros((q.n, width), dtype=np.uint8)
    cells[:, :-1] = np.where(labels >= places, labels // places % 10 + 48, 0)
    cells[:, -1] = 32
    body = cells.view(f"V{width}").ravel()[q.array].view(np.uint8)
    body[:, -1] = 10
    head = "".join(f"# {c}\n" for c in comments) + f"{q.n}\n"
    return head + body[body != 0].tobytes().decode("ascii")


def read_qdl(path: str | Path) -> QuandleTable:
    """Parse a .qdl file, read as UTF-8; undecodable bytes are a ParseError
    at the line of the first of them.  The header is read first, then the
    body a _CHUNK of bytes at a time, so no file is held whole beyond its
    header line and the rows of the table (_parse)."""
    with open(path, "rb") as f:
        return _parse(f, "strict")


def write_qdl(q: QuandleTable, path: str | Path, comments: Iterable[str] = ()) -> None:
    """Write the .qdl text of format_qdl to path as UTF-8 bytes, with b"\n"
    line ends on every platform.  A comment that is not valid Unicode (a
    lone surrogate) raises UnicodeEncodeError before the file is opened."""
    Path(path).write_bytes(format_qdl(q, comments).encode("utf-8"))
