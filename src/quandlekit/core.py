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


def _close_mask(tbl: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Fixpoint of all-pairs products over a boolean mask, in place.

    The one closure kernel: subquandle closures, the growth step of the
    subquandle enumeration and the generating sets of _generators all run
    on it.  Validation rests on a lemma.  When every column of tbl is a
    bijection, the labels k whose right translation R_k is an automorphism
    form a set closed under the product: if R_a and R_b are automorphisms,
    distributivity at b gives R_(a*b) = R_b R_a R_b^-1, an automorphism too.
    """
    n = tbl.shape[0]
    size = int(mask.sum())
    while size < n:
        idx = np.flatnonzero(mask)
        mask[tbl[idx[:, None], idx].ravel()] = True
        grown = int(mask.sum())
        if grown == size:
            break
        size = grown
    return mask


def _generators(tbl: np.ndarray):
    """Greedy generating set of a table, 0-based, yielded lazily.

    Each label yielded is the smallest one outside the closure of those
    yielded before; the closure is taken only when the next label is asked
    for.  On a quandle the columns of a generating set also generate the
    inner automorphism group, since R_(a*b) = R_b R_a R_b^-1.
    """
    mask = np.zeros(tbl.shape[0], dtype=bool)
    g = 0
    while True:
        yield g
        mask[g] = True
        rest = np.flatnonzero(~_close_mask(tbl, mask))
        if not rest.size:
            return
        g = int(rest[0])


def _distributive(tbl: np.ndarray) -> bool:
    """Right distributivity of a table whose columns are bijections.

    Checks each R_g of the greedy generating set of _generators, each
    before the next is found.  By the lemma in _close_mask, the closure of
    the labels checked so far holds only automorphisms, so the table is
    distributive once the set generates it.  O(|gens| n^2), not n^3.
    """
    for g in _generators(tbl):
        col = tbl[:, g]
        # (i*j)*g against (i*g)*(j*g) for all (i, j); two 1-D gathers beat
        # the equivalent 2-D fancy index tbl[col[:, None], col[None, :]]
        if not np.array_equal(col.take(tbl), tbl[col][:, col]):
            return False
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
    n = len(rows)
    if n == 0:
        return ValidationResult(False, "NonSquare", ())
    for i, row in enumerate(rows, start=1):
        if len(row) != n:
            return ValidationResult(False, "NonSquare", (i,))
    arr = _int_table(rows, n)
    if arr is None:  # find the first bad entry; bools pass, as ints
        for i, row in enumerate(rows, start=1):
            for j, v in enumerate(row, start=1):
                if not isinstance(v, int) or not 1 <= v <= n:
                    return ValidationResult(False, "EntryOutOfRange", (i, j))
        arr = np.array(rows, dtype=np.int32)
    elif arr.min() < 1 or arr.max() > n:
        i, j = np.argwhere((arr < 1) | (arr > n))[0]
        return ValidationResult(False, "EntryOutOfRange", (int(i) + 1, int(j) + 1))
    t = np.subtract(arr, 1, dtype=np.int32)
    labels = np.arange(n)
    bad = np.flatnonzero(t.diagonal() != labels)
    if bad.size:
        return ValidationResult(False, "IdempotencyViolation", (int(bad[0]) + 1,))
    bad = np.flatnonzero((np.sort(t, axis=0) != labels[:, None]).any(axis=0))
    if bad.size:
        return ValidationResult(False, "RightInvertibilityViolation", (int(bad[0]) + 1,))
    if not _distributive(t):
        i, j, k = _first_mismatch(t)
        return ValidationResult(False, "DistributivityViolation", (i + 1, j + 1, k + 1))
    return ValidationResult(True, None, (), n)


class QuandleTable:
    """Immutable validated operation table with 1-based labels.

    The one stored form is `array`: the table 0-based, as a read-only int32
    numpy array, so column i - 1 is the right translation R_i.  `rows`,
    `row` and `op` are 1-based views derived from it.
    """

    __slots__ = ("array",)

    def __init__(self, rows: Sequence[Sequence[int]]):
        arr = _int_table(rows, len(rows))
        # entries numpy cannot take as one integer array go to validation as
        # they are, so its scalar scan finds the first bad one
        result = validate_quandle(rows if arr is None else arr)
        if not result.ok:
            raise InvalidQuandleError(result)
        array = np.subtract(rows if arr is None else arr, 1, dtype=np.int32)
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


def _scalar_rows(body: list[tuple[int, str]], n: int) -> list[list[int]]:
    """The integers of each (line number, line) of body, checked one line at
    a time; raises ParseError at the first line that is not n integers."""
    rows = []
    for lineno, line in body:
        tokens = line.split()
        if len(tokens) != n:
            raise ParseError(f"expected {n} entries, found {len(tokens)}", lineno)
        try:
            rows.append(_decimal_ints(line))
        except ValueError:
            raise ParseError(f"invalid integer in row: {line!r}", lineno) from None
    return rows


# parse_qdl checks and converts the body in blocks of lines of about this many
# bytes, so the temporaries of _first_flagged stay small next to the table
_BLOCK_BYTES = 1 << 16


def _first_flagged(body: bytes, n: int) -> int | None:
    """Index of the first of the b"\n"-joined lines of body that is not n
    tokens of 1 to 9 ASCII digits, separated by spaces or tabs; None if none.

    Array operations over the bytes count the token starts of each line and
    flag a line with any other byte or with 10 digits in a row.  Such a line need not be an error ('-1' is not); the caller reads
    it with the scalar check.
    """
    buf = np.frombuffer(body, dtype=np.uint8)
    digit = (buf - 48) < 10  # uint8 wraps below '0'
    breaks = np.flatnonzero(buf == 10)
    starts = digit.copy()
    starts[1:] &= ~digit[:-1]
    flagged = np.add.reduceat(starts, np.r_[0, breaks + 1], dtype=np.intp) != n
    other = ~(digit | (buf == 32) | (buf == 9))
    other[breaks] = False
    long = digit[: max(buf.size - 9, 0)].copy()  # long[p]: digits at p .. p + 9
    for s in range(1, 10):
        long &= digit[s : s + long.size]
    for mask in (other, long):
        flagged[np.searchsorted(breaks, np.flatnonzero(mask))] = True
    bad = np.flatnonzero(flagged)
    return int(bad[0]) if bad.size else None


def parse_qdl(text: str) -> QuandleTable:
    """Parse .qdl text; raises ParseError (with line number) on format errors.

    Integers are ASCII decimal, optionally negative: no '+', no '_', no
    other digit scripts.  An order above the table cap (2048, or
    QUANDLEKIT_MAX_ORDER) is refused before any row is converted.  The body
    is checked (_first_flagged) and converted by array operations, a block
    of lines at a time.  From the first line the check flags, the rows go
    through the scalar check: it names the failing line, or it keeps
    entries such as -1 or 2**64 for the validator's witness.
    """
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
        (n,) = _decimal_ints(tokens[0])
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
    table = np.empty((n, n), dtype=np.int32)
    step = max(1, _BLOCK_BYTES // len(body[0][1]))
    for lo in range(0, n, step):
        # non-ASCII text becomes bytes the check flags
        raw = "\n".join(line for _, line in body[lo : lo + step]).encode("utf-8", "replace")
        k = _first_flagged(raw, n)
        if k is not None:
            # the lines before passed a stricter check, so the first error is at k or later
            rows = _scalar_rows(body[lo + k :], n)
            return QuandleTable.from_rows(_scalar_rows(body[: lo + k], n) + rows)
        table[lo : lo + step] = np.fromstring(raw, dtype=np.int32, sep=" ").reshape(-1, n)
    return QuandleTable(table)


def format_qdl(q: QuandleTable, comments: Iterable[str] = ()) -> str:
    """Serialize to canonical .qdl text (optional leading comment lines)."""
    out = [f"# {c}" for c in comments]
    out.append(str(q.n))
    labels = np.array([str(x) for x in range(1, q.n + 1)], dtype=object)
    out.extend(map(" ".join, labels[q.array].tolist()))
    return "\n".join(out) + "\n"


def read_qdl(path: str | Path) -> QuandleTable:
    """Parse a .qdl file, read as UTF-8; undecodable bytes are a ParseError
    at the line of the first of them."""
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # "x" stands in for the bad byte, so splitlines counts the line it is on
        line = len((raw[: exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(f"not valid UTF-8 (byte {raw[exc.start]:#04x})", line) from None
    return parse_qdl(text)


def write_qdl(q: QuandleTable, path: str | Path, comments: Iterable[str] = ()) -> None:
    Path(path).write_text(format_qdl(q, comments), encoding="utf-8")
