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
import os
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


def _close_mask(tbl: np.ndarray, mask: np.ndarray, new: np.ndarray | None = None) -> np.ndarray:
    """Fixpoint of all-pairs products over a boolean mask, in place.

    When the labels `new` were added to a mask that was closed before, and
    while the labels the last round added are fewer than half the mask, a
    round forms only the products with a factor among them: O(n) a round
    for a few new labels, where all pairs cost O(|mask|^2).

    The one closure kernel: subquandle closures, the growth step of the
    subquandle enumeration and the generating sets of _generators all run
    on it.  Validation rests on a lemma.  When every column of tbl is a
    bijection, the labels k whose right translation R_k is an automorphism
    form a set closed under the product: if R_a and R_b are automorphisms,
    distributivity at b gives R_(a*b) = R_b R_a R_b^-1, an automorphism too.
    """
    n = tbl.shape[0]
    idx = np.flatnonzero(mask)
    if new is not None:
        while 0 < 2 * new.size < idx.size:
            before = mask.copy()
            mask[tbl[new[:, None], idx]] = True
            mask[tbl[idx[:, None], new]] = True
            new = np.flatnonzero(mask > before)
            idx = np.flatnonzero(mask)
        if not new.size:
            return mask
    size = idx.size
    while size < n:
        mask[tbl[idx[:, None], idx].ravel()] = True
        grown = int(mask.sum())
        if grown == size:
            break
        size = grown
        idx = np.flatnonzero(mask)
    return mask


def _generators(tbl: np.ndarray):
    """Greedy generating set of a table, 0-based, yielded lazily.

    Each label yielded is the smallest one outside the closure of those
    yielded before; the closure is taken only when the next label is asked
    for, incrementally (_close_mask).  A caller may send back, instead of
    resuming with next(), labels to join the mask in place of the label
    yielded; they must include it.  On a quandle the columns of a
    generating set also generate the inner automorphism group, since
    R_(a*b) = R_b R_a R_b^-1.
    """
    mask = np.zeros(tbl.shape[0], dtype=bool)
    g = 0
    while True:
        new = yield g
        new = np.array([g]) if new is None else new
        mask[new] = True
        rest = np.flatnonzero(~_close_mask(tbl, mask, new))
        if not rest.size:
            return
        g = int(rest[0])


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


def _distributive(tbl: np.ndarray) -> bool:
    """Right distributivity of a table whose columns are bijections.

    Checks that R_g is an automorphism for each g of the greedy generating
    walk of _generators, each before the next is found.  Distributivity at
    k reads only the column R_k, so each check also settles every label
    whose column equals R_g, and these join the walk's mask; by the lemma
    in _close_mask, the closure of the mask holds only automorphisms.  The
    table is distributive once the mask holds every label: after one check
    on the trivial table, two on a connected affine one, and two per
    component on a disjoint union of small connected quandles, where each
    check is O(n) (_automorphism).
    """
    labels = np.arange(tbl.shape[0])
    walk = _generators(tbl)
    g = next(walk)
    while True:
        col = tbl[:, g]
        moved = col != labels
        if not _automorphism(tbl, col, moved):
            return False
        # the columns equal to R_g, among those that agree with it on the
        # first point it moves
        r = np.argmax(moved)
        same = np.flatnonzero(tbl[r] == col[r])
        if same.size > 1:
            same = same[(tbl[:, same] == col[:, None]).all(axis=0)]
        try:
            g = walk.send(same)
        except StopIteration:
            return True


def _first_mismatch(tbl: np.ndarray) -> tuple[int, int, int] | None:
    """Lexicographically first failing (i, j, k) of right distributivity, 0-based.

    Row i compares (i*j)*k = t[t[i]] with (i*k)*(j*k) over all (j, k) at
    once and stops at the first row with a mismatch.
    """
    for i, ti in enumerate(tbl):
        bad = np.argwhere(tbl[ti] != tbl[ti[None, :], tbl])
        if bad.size:
            return i, int(bad[0, 0]), int(bad[0, 1])
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
    for the full scan that finds its first witness.  rows may also be an
    integer numpy array, which is read without a copy.
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
    if not _distributive(t):
        i, j, k = _first_mismatch(t)
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
    only a failing list is scanned in (i, j) order for the first witness.
    """
    n = len(perms)
    if n == 0 or any(p.n != n for p in perms):
        raise ParamOutOfRange("need n permutations of degree n")
    tbl = np.column_stack([p.image for p in perms]) - 1  # column i - 1 is R_i
    if not _distributive(tbl):
        inv = np.argsort(tbl, axis=0)
        for i in range(n):
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


# where only lines are counted, the bytes are taken this many at a time
_CHUNK = 1 << 18

# the body is checked and converted in line-aligned blocks of at least this
# many bytes, so the temporaries of _scan stay small next to the table
_BLOCK_BYTES = 1 << 16

# a block that runs this many bytes past its start, to end a long line (a
# comment, a run of spaces), goes to the scalar path instead: the masks of
# _scan take many times the size of the block
_LINE_BYTES = 1 << 20

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


def _count_rows(chunks, text: str, lineno: int, n: int, errors: str,
                final: bool = True) -> tuple[int, int, int]:
    """Decode text and then the byte chunks, one at a time, and count the
    rows in them: the lines that are neither blank nor comments.

    lineno lines precede text.  Returns the count, the line of the last row
    (lineno when there is none) and the line of row n + 1 (0 when there is
    none).  A bad byte raises the ParseError that read_qdl gives for it.
    Only a chunk is held at a time, whatever the file's size or line
    lengths.  When not final, the chunks stop inside the file: an
    unfinished UTF-8 sequence at their end is no error, and the open line
    counts as a row once its first character makes it one.
    """
    decoder = codecs.getincrementaldecoder("utf-8")(errors)
    rows, last, extra = 0, lineno, 0
    kind = ""  # the first non-space character of the open line; "" while blank
    held = text
    for chunk in itertools.chain(chunks, [b""] if final else []):
        try:
            text = held + decoder.decode(chunk, final=not chunk)
        except UnicodeDecodeError as exc:
            raise _utf8_error(exc, lineno, held) from None
        held = "\r" if chunk and text.endswith("\r") else ""  # it may pair with a "\n"
        text = text[: len(text) - len(held)] if chunk else text + "\n"  # the last line ends
        for line in text.splitlines(keepends=True):
            kind = kind or line.lstrip()[:1]
            if line[-1] in _BREAKS:
                lineno += 1
                if kind and kind != "#":
                    rows += 1
                    last = lineno
                    extra = extra or (lineno if rows == n + 1 else 0)
                kind = ""
    if not final and kind and kind != "#":
        rows += 1
    return rows, last, extra


def _pieces(data: bytes):
    """data a chunk at a time."""
    return (data[i : i + _CHUNK] for i in range(0, len(data), _CHUNK))


def _scan(buf: np.ndarray, n: int, room: int) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Check and convert a block of body bytes that starts a line.

    One set of byte masks gives the token starts and ends and the token
    count of each b"\n"-ended line.  A line is flagged for a byte other
    than an ASCII digit, space or tab, or "\r" before "\n"; for a run of
    10 or more digits; for a token count other than 0 or n; and as row
    room + 1.  Lines of no tokens are blank and skipped.  The mask of other
    bytes is built only when the digits, spaces and b"\n" do not fill the
    block, and the 10-digit runs are looked for only when the longest
    token has 10 digits or more.

    Returns (values, rows, lines, stop): the entries of the rows before
    the first flagged line, n to a row, read back a place at a time from
    each token's last digit; the index of each such row's line; and the
    number of lines and of bytes before the first flagged line, or in the
    whole block when none is flagged.  A flagged line need not be an error
    ('-1' is not): the caller reads it on the scalar line path.
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
        # block's end) and multiplies it by 0; the dtype keeps the product
        # int32 under NumPy 1.x too, where uint8 * np.int32(100) is uint8
        last -= 1
        values += np.multiply(digits[last], lens > p, dtype=np.int32) * np.int32(10**p)
    return values.reshape(-1, n), rows, lines, stop


def _scalar_tail(tail: bytes, lineno: int, n: int, done: np.ndarray, last: int,
                 errors: str) -> QuandleTable:
    """The scalar line path, from the first flagged line to the end of the
    body, which lineno lines precede: it raises the ParseError of the first
    faulty line, or gives the rows converted before it (done, the last on
    line `last`) and its own rows to QuandleTable.from_rows, which finds
    the validator's witness."""
    try:
        text = tail.decode("utf-8", errors)
    except UnicodeDecodeError as exc:
        raise _utf8_error(exc, lineno) from None
    data = []
    for lineno, line in enumerate(text.splitlines(), start=lineno + 1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            data.append((lineno, stripped))
    count = len(done) + len(data)
    if count < n:
        raise ParseError(f"expected {n} rows, file ends after {count}", data[-1][0] if data else last)
    if count > n:
        raise ParseError("unexpected content after table", data[n - len(done)][0])
    rows = []
    for lineno, line in data:
        tokens = line.split()
        if len(tokens) != n:
            raise ParseError(f"expected {n} entries, found {len(tokens)}", lineno)
        try:
            rows.append(_decimal_ints(line))
        except ValueError:
            raise ParseError(f"invalid integer in row: {line!r}", lineno) from None
    return QuandleTable.from_rows(done.tolist() + rows)


def _read_body(body: bytes, n: int, lineno: int, errors: str) -> QuandleTable:
    """The n rows of body, which starts after the order line, line lineno.

    _scan checks and converts it a block at a time.  From the first line it
    flags, or from a block longer than _LINE_BYTES, the rest goes to
    _scalar_tail, the one error reporter.  A body of fewer than n lines goes
    there whole, before any block is converted.
    """
    buf = np.frombuffer(body, dtype=np.uint8)
    lines = sum(np.count_nonzero(buf[i : i + _CHUNK] == 10) for i in range(0, buf.size, _CHUNK))
    flagged = lines + 1 < n  # fewer lines than rows: convert no block
    table = np.empty((0 if flagged else n, n), dtype=np.int32)
    done, last, pos = 0, lineno, 0
    while not flagged and pos < buf.size:
        end = body.find(b"\n", pos + _BLOCK_BYTES - 1) + 1 or buf.size
        if end - pos > _LINE_BYTES:
            break
        values, rows, lines, stop = _scan(buf[pos:end], n, n - done)
        table[done : done + len(values)] = values
        done += len(values)
        if rows.size:
            last = lineno + int(rows[-1]) + 1
        lineno += lines
        flagged = pos + stop < end
        pos += stop
    if pos == buf.size and done == n:
        return QuandleTable(table)
    return _scalar_tail(body[pos:], lineno, n, table[:done], last, errors)


def _parse(f, errors: str, size: int) -> QuandleTable:
    """The table in the .qdl bytes of the binary file f, of at most `size`
    bytes (-1: unknown), decoded as UTF-8 with the given error handler.

    The header is read first, a line at a time: comment and blank lines,
    then the order line, then the cap check.  At or below the cap the rest
    goes to _read_body as bytes, when it is no longer than n + 1 rows of
    10-digit tokens can be, or when its first so many bytes hold no row
    n + 1.  An order above the cap, a bad order line, or a row n + 1
    within those bytes is refused after a count of the rows that holds one
    chunk at a time, so that the error is the one the whole file gives.
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
    rest = "".join(lines)  # lines the order line shares a b"\n"-line with
    try:
        n, error = _order(head, lineno), None
    except ParseError as exc:
        n, error = 0, exc
    try:
        cap = resolve_cap(None, DEFAULT_TABLE_CAP)
    except ParamOutOfRange:  # raised again after the row count, as before
        cap = 0
    chunks = iter(functools.partial(f.read, _CHUNK), b"")
    if error is None and n <= cap:
        # n + 1 rows of n 10-digit tokens and separators, CRLF-ended, and a chunk
        limit = (n + 1) * (11 * n + 2) + _CHUNK
        # one read of a known size: read() after readline goes by pieces and
        # took about 10 times as long
        data = f.read(limit + 1 if size < 0 else min(size, limit + 1))
        if len(data) > limit and _count_rows(_pieces(data), rest, lineno, n, errors,
                                             final=False)[0] > n:
            chunks = itertools.chain(_pieces(data), chunks)
        else:
            if len(data) > limit:  # long comments, blank lines or rows, but no row n + 1
                data += f.read()
            return _read_body(rest.encode("utf-8", errors) + data, n, lineno, errors)
    rows, last, extra = _count_rows(chunks, rest, lineno, n, errors)
    if error is not None:
        raise error
    if rows < n:
        raise ParseError(f"expected {n} rows, file ends after {rows}", last)
    if rows > n:
        raise ParseError("unexpected content after table", extra)
    cap = resolve_cap(None, DEFAULT_TABLE_CAP)
    raise ParseError(f"order {n} exceeds the cap {cap} ({ENV_MAX_ORDER})", lineno)


def parse_qdl(text: str) -> QuandleTable:
    """Parse .qdl text; raises ParseError (with line number) on format errors.

    Integers are ASCII decimal, optionally negative: no '+', no '_', no
    other digit scripts.  An order above the table cap (2048, or
    QUANDLEKIT_MAX_ORDER) is refused before any row is converted.  The text
    goes through the byte reader of read_qdl (_parse).
    """
    # lone surrogates make the round trip too, so no decoding error is raised
    data = text.encode("utf-8", "surrogatepass")
    return _parse(io.BytesIO(data), "surrogatepass", len(data))


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
    at the line of the first of them.  The header is read first, so a file
    whose order is above the cap is refused without being held (_parse)."""
    with open(path, "rb") as f:
        return _parse(f, "strict", os.fstat(f.fileno()).st_size or -1)  # 0 for a pipe


def write_qdl(q: QuandleTable, path: str | Path, comments: Iterable[str] = ()) -> None:
    """Write the .qdl text of format_qdl to path as UTF-8 bytes, with b"\n"
    line ends on every platform.  A comment that is not valid Unicode (a
    lone surrogate) raises UnicodeEncodeError before the file is opened."""
    Path(path).write_bytes(format_qdl(q, comments).encode("utf-8"))
