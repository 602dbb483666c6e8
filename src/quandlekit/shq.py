"""Detection and structure checks for super Hayashi quandles.

A super Hayashi quandle (SHQ) is a finite quandle all of whose right
translations share the cycle structure (1 = l_1 < l_2 < ... < l_c) with
c >= 2 and each length dividing the next.  Such a quandle has order
(l+1)^(c-1) for l = l_2, with l+1 a prime power; its profile and its
subquandle lattice are pinned down completely, and verify_main_theorem
checks all of that on a concrete table.

Canonical form: labels are sorted so that R_1 is the block permutation
(1)(n_2-l_2+1 ... n_2)...(n_c-l_c+1 ... n_c), where n_i are the partial sums
of the lengths.  Every remaining translation is then a power-of-R_1
conjugate of one of the c-1 block generators R_{n_i}.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .core import (
    CycleStructure,
    Permutation,
    QuandleTable,
    _block_bounds,
    _canonical_r1,
    _column_powers,
    _cycles,
    _integers,
    _label_block_lengths,
)
from .errors import (
    NotAPartition,
    NotCanonicalForm,
    NotRelabelable,
    NotSHQShape,
    ParamOutOfRange,
)
from .numth import prime_power
from .structure import Profile, enumerate_subquandles, profile, subtable


@dataclass(frozen=True)
class ShqParams:
    """SHQ invariants: base length l, cycle count c, and l + 1 = p**a."""

    ell: int
    c: int
    p: int
    a: int

    def __post_init__(self):
        values = _integers((self.ell, self.c, self.p, self.a), "ell, c, p and a")
        for name, value in zip(("ell", "c", "p", "a"), values):
            object.__setattr__(self, name, value)
        if self.ell < 2 or self.c < 2:
            raise ParamOutOfRange(f"need ell >= 2 and c >= 2, got {self}")
        if self.p ** self.a != self.ell + 1 or prime_power(self.ell + 1) != (self.p, self.a):
            raise ParamOutOfRange(f"need ell + 1 = p**a, got {self}")

    def as_dict(self) -> dict:
        return {"ell": self.ell, "c": self.c, "p": self.p, "a": self.a}


def shq_lengths(params_or_ell, c: int | None = None) -> tuple[int, ...]:
    """The length list (1, l, l(l+1), ..., l(l+1)^(c-2))."""
    if isinstance(params_or_ell, ShqParams):
        ell, c = params_or_ell.ell, params_or_ell.c
    else:
        ell = params_or_ell
    ell, c = _integers((ell, c), "ell and c")
    if ell < 2 or c < 2:
        raise ParamOutOfRange(f"need ell >= 2 and c >= 2, got ({params_or_ell}, {c})")
    return (1,) + tuple(ell * (ell + 1) ** (i - 2) for i in range(2, c + 1))


def predicted_profile(ell: int, c: int) -> CycleStructure:
    """Cycle structure an SHQ with parameters (ell, c) must have."""
    return CycleStructure(shq_lengths(ell, c))


def _shq_shape(lengths) -> str | None:
    """None when lengths form an SHQ shape, else a reason string."""
    lengths = tuple(lengths)
    if len(lengths) < 2:
        return "need at least two cycle lengths"
    if lengths[0] != 1:
        return f"first length must be 1, found {lengths[0]}"
    for prev, cur in zip(lengths, lengths[1:]):
        if cur <= prev:
            return f"lengths must strictly increase, found {prev} then {cur}"
        if cur % prev:
            return f"{prev} does not divide {cur}"
    return None


def classify_shq(q: QuandleTable) -> ShqParams | None:
    """ShqParams when q is an SHQ, else None."""
    return _classify(profile(q))


def _classify(prof: Profile) -> ShqParams | None:
    """classify_shq from a profile already computed."""
    structures = prof.structures
    if len(structures) != 1:
        return None
    lengths = structures[0].lengths
    if _shq_shape(lengths) is not None:
        return None
    ell = lengths[1]
    pa = prime_power(ell + 1)
    if pa is None:
        # The structure theorem excludes this for any valid table.
        return None
    return ShqParams(ell, len(lengths), pa[0], pa[1])


@dataclass(frozen=True)
class Admissibility:
    """Verdict on whether an SHQ with the given lengths can exist."""

    lengths: tuple[int, ...]
    ruled_out: bool
    reason: str | None = None  # "NotPrimePower" or "FormulaMismatch"
    detail: str = ""
    index: int | None = None  # 1-based position of the offending length

    def __str__(self) -> str:
        if not self.ruled_out:
            return f"{self.lengths}: not ruled out"
        return f"{self.lengths}: ruled out ({self.reason}: {self.detail})"


def check_profile_admissible(lengths) -> Admissibility:
    """Apply the order and profile constraints to a candidate length list.

    The input must be strictly increasing from 1 with a divisor chain;
    anything else raises NotSHQShape.  A profile is ruled out when l_2 + 1
    is not a prime power, or when some later length breaks the forced
    formula l_i = l_2 * (l_2 + 1)^(i-2).  Lengths that are not integers
    raise ParamOutOfRange.
    """
    lengths = _integers(lengths)
    reason = _shq_shape(lengths)
    if reason is not None:
        raise NotSHQShape(f"{lengths}: {reason}")
    ell = lengths[1]
    if prime_power(ell + 1) is None:
        return Admissibility(
            lengths, True, "NotPrimePower", f"l_2 + 1 = {ell + 1} is not a prime power", 2
        )
    for i in range(3, len(lengths) + 1):
        expected = ell * (ell + 1) ** (i - 2)
        if lengths[i - 1] != expected:
            return Admissibility(
                lengths,
                True,
                "FormulaMismatch",
                f"l_{i} must be {expected}, found {lengths[i - 1]}",
                i,
            )
    return Admissibility(lengths, False)


def _has_canonical_r1(q: QuandleTable, lengths) -> bool:
    return tuple(q.array[:, 0].tolist()) == _canonical_r1(lengths)


@dataclass(frozen=True)
class CanonicalDecomposition:
    """Block data of a canonically labeled table.

    lengths are the cycle lengths of R_1, ns their partial sums; block i is
    L_i = {n_(i-1)+1 .. n_i} and X_i = {1 .. n_i} is the i-th prefix.  The
    relabeling maps the original labels to the canonical ones.
    """

    lengths: tuple[int, ...]
    ns: tuple[int, ...]
    relabeling: Permutation

    @classmethod
    def from_lengths(cls, lengths, relabeling: Permutation) -> "CanonicalDecomposition":
        lengths = tuple(lengths)
        return cls(lengths, _block_bounds(lengths), relabeling)

    @property
    def c(self) -> int:
        return len(self.lengths)

    @property
    def n(self) -> int:
        return self.ns[-1]

    def ell(self, i: int) -> int:
        if not 1 <= i <= self.c:
            raise ParamOutOfRange(f"block index {i} outside 1..{self.c}")
        return self.lengths[i - 1]

    def block(self, i: int) -> range:
        if not 1 <= i <= self.c:
            raise ParamOutOfRange(f"block index {i} outside 1..{self.c}")
        lo = 0 if i == 1 else self.ns[i - 2]
        return range(lo + 1, self.ns[i - 1] + 1)

    def prefix(self, i: int) -> range:
        if not 1 <= i <= self.c:
            raise ParamOutOfRange(f"block index {i} outside 1..{self.c}")
        return range(1, self.ns[i - 1] + 1)

    def block_of(self, x: int) -> int:
        if not 1 <= x <= self.n:
            raise ParamOutOfRange(f"label {x} outside 1..{self.n}")
        return bisect_left(self.ns, x) + 1


def canonical_relabel(q: QuandleTable) -> tuple[QuandleTable, CanonicalDecomposition]:
    """Relabel so R_1 becomes the canonical block permutation.

    Cycles of the original R_1 are sorted by length (which must be pairwise
    distinct), each traversed from its smallest label, and numbered
    consecutively.  The unique fixed point keeps label 1.
    """
    cycs = _cycles(q.array[:, 0].tolist())
    lengths = sorted(map(len, cycs))
    if len(set(lengths)) != len(lengths):
        raise NotRelabelable(
            f"translation 1 has repeated cycle lengths: {CycleStructure(tuple(lengths))}"
        )
    # old[a] = the label that a replaces, 0-based; img is its inverse
    old = np.array([x for cyc in sorted(cycs, key=len) for x in cyc])
    img = np.empty(q.n, dtype=np.int32)
    img[old] = np.arange(q.n)
    out = QuandleTable._from_array(img[q.array[np.ix_(old, old)]])
    decomp = CanonicalDecomposition.from_lengths(lengths, Permutation((img + 1).tolist()))
    if not _has_canonical_r1(out, decomp.lengths):
        raise NotCanonicalForm("relabeling failed to produce block form")  # bug guard
    return out, decomp


def decomposition_of(q: QuandleTable) -> CanonicalDecomposition:
    """Decomposition of a table already in canonical form."""
    lengths = sorted(map(len, _cycles(q.array[:, 0].tolist())))
    if not _has_canonical_r1(q, lengths):
        raise NotCanonicalForm(
            "translation 1 is not the canonical block permutation; "
            "use canonical_relabel first"
        )
    return CanonicalDecomposition.from_lengths(lengths, Permutation.identity(q.n))


@dataclass(frozen=True)
class ConjugationCheck:
    """Outcome of the canonical conjugation relations R_(n_(i-1)+k) =
    R_1^k R_(n_i) R_1^(-k); witness is (block index, offset) on failure."""

    passed: bool
    witness: tuple[int, int] | None = None


def check_conjugation_relations(q: QuandleTable) -> ConjugationCheck:
    """Check that every translation is the forced conjugate of its block
    generator; q must be canonical."""
    decomp = decomposition_of(q)
    tbl = q.array  # column x - 1 is R_x
    r1 = tbl[:, 0]
    r1_inv = np.argsort(r1)
    for i in range(2, decomp.c + 1):
        n_prev = decomp.ns[i - 2]
        conj = tbl[:, decomp.ns[i - 1] - 1]
        for k in range(1, decomp.ell(i) + 1):
            conj = r1[conj[r1_inv]]  # = R_1^k R_(n_i) R_1^(-k)
            if not np.array_equal(tbl[:, n_prev + k - 1], conj):
                return ConjugationCheck(False, (i, k))
    return ConjugationCheck(True)


@dataclass(frozen=True)
class FixBlockPartition:
    """Partition of the labels into fixed-point sets of R_x**exponent,
    keyed by the smallest member of each block."""

    exponent: int
    blocks: dict[int, frozenset[int]]

    def block_of(self, y: int) -> frozenset[int]:
        for blk in self.blocks.values():
            if y in blk:
                return blk
        raise ParamOutOfRange(f"label {y} not covered")

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(self.blocks[r]) for r in sorted(self.blocks))


def fix_blocks(q: QuandleTable, exponent: int) -> FixBlockPartition:
    """Group labels by the fixed-point set of R_x**exponent.

    One power table (_column_powers) gives Fix(R_x^e) for every x as the
    column mask powers == arange; each distinct mask is one block, in order
    of first appearance.  For a canonical SHQ prefix these sets tile the
    labels into equal blocks; anything else raises NotAPartition.  The
    exponent must be a positive integer, else ParamOutOfRange.
    """
    (exponent,) = _integers((exponent,), "exponent")
    if exponent < 1:
        raise ParamOutOfRange(f"exponent must be positive, got {exponent}")
    decomposition_of(q)  # canonical form required
    return _fix_partition(_column_powers(q.array, exponent), exponent)[0]


def _fix_partition(powers: np.ndarray, exponent: int) -> tuple[FixBlockPartition, np.ndarray]:
    """fix_blocks from powers = _column_powers(tbl, exponent), with the key
    (smallest member) of each 0-based label's block."""
    fixed = powers.T == np.arange(len(powers))  # row x is Fix(R_x^e)
    first: dict[bytes, int] = {}
    for x, row in enumerate(fixed):
        first.setdefault(row.tobytes(), x)
    masks = fixed[list(first.values())]
    sets = [frozenset((np.flatnonzero(m) + 1).tolist()) for m in masks]
    reps = [min(fset) for fset in sets]
    n = len(powers)
    covered: set[int] = set()
    for fset in sets:
        if covered & fset:
            raise NotAPartition(
                f"fixed-point sets of R_x^{exponent} overlap: {sorted(fset)}"
            )
        covered |= fset
    if covered != set(range(1, n + 1)):
        raise NotAPartition(f"fixed-point sets of R_x^{exponent} do not cover 1..{n}")
    sizes = {len(f) for f in sets}
    if len(sizes) != 1:
        raise NotAPartition(f"fixed-point blocks have unequal sizes {sorted(sizes)}")
    keys = np.array(reps)[np.nonzero(masks.T)[1]]  # one block per label
    return FixBlockPartition(exponent, dict(zip(reps, sets))), keys


@dataclass(frozen=True)
class LcmCheck:
    """Block-divisibility over all pairs: the block length of x * y divides
    lcm of the block lengths of x and y."""

    total_pairs: int
    violations: tuple[tuple[int, int, int], ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def check_lcm_divisibility(q: QuandleTable) -> LcmCheck:
    """Check the lcm divisibility law on a canonical table."""
    decomp = decomposition_of(q)
    block_len = np.array(_label_block_lengths(decomp.lengths))  # by 0-based label
    bad = np.argwhere(np.lcm.outer(block_len, block_len) % block_len[q.array] != 0)
    return LcmCheck(
        q.n * q.n, tuple((x + 1, y + 1, int(q.array[x, y]) + 1) for x, y in bad.tolist())
    )


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    detail: str

    def as_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass(frozen=True)
class MainTheoremReport:
    """Order, profile, prime-power, and subquandle clauses for one table."""

    is_shq: bool
    params: ShqParams | None
    checks: tuple[CheckOutcome, ...]

    @property
    def all_passed(self) -> bool:
        return self.is_shq and all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "is_shq": self.is_shq,
            "params": self.params.as_dict() if self.params else None,
            "checks": [c.as_dict() for c in self.checks],
            "all_passed": self.all_passed,
        }


def verify_main_theorem(q: QuandleTable, max_order: int | None = None) -> MainTheoremReport:
    """Verify the SHQ structure theorem on a concrete table.

    Clauses: |X| = (l+1)^(c-1); the profile matches the forced length list;
    l + 1 is a prime power; and the non-trivial proper subquandles fall into
    exactly one isomorphism class per prefix order with the prefix profiles.
    """
    return _verify(q, profile(q), max_order)


def _verify(
    q: QuandleTable, prof: Profile, max_order: int | None, inventory=None
) -> MainTheoremReport:
    """verify_main_theorem from q's profile and, when given, q's subquandle
    inventory; without one, q is enumerated only if it is an SHQ."""
    params = _classify(prof)
    if params is None:
        return MainTheoremReport(False, None, ())
    ell, c = params.ell, params.c
    checks = []

    expected_order = (ell + 1) ** (c - 1)
    checks.append(
        CheckOutcome(
            "order",
            q.n == expected_order,
            f"order {q.n}, (l+1)^(c-1) = {expected_order}",
        )
    )

    want = predicted_profile(ell, c)
    checks.append(
        CheckOutcome(
            "profile",
            prof.connected_form == want,
            f"profile {prof}, predicted {want}",
        )
    )

    pa = prime_power(ell + 1)
    checks.append(
        CheckOutcome(
            "prime_power",
            pa == (params.p, params.a),
            f"l + 1 = {ell + 1} = {params.p}^{params.a}",
        )
    )

    canon, decomp = canonical_relabel(q)
    if inventory is None:
        inventory = enumerate_subquandles(q, max_order)
    # orders, profiles and classes do not depend on the labels, so the
    # inventory is read as listed; the prefix X_i = {1..n_i} of the canonical
    # table is closed when its products stay below n_i
    expected = {decomp.ns[i - 1]: CycleStructure(decomp.lengths[:i]) for i in range(2, c)}
    classes: dict[int, set[int]] = {order: set() for order in expected}
    notes = []
    for e in inventory.entries:
        if e.order in expected:
            classes[e.order].add(e.iso_class)
            if e.profile.connected_form != expected[e.order]:
                notes.append(
                    f"order {e.order} has profile {e.profile}, predicted {expected[e.order]}"
                )
        elif 1 < e.order < q.n:
            notes.append(f"unexpected subquandle order {e.order}")
    notes += [
        f"order {k}: {len(v)} classes, predicted 1" for k, v in classes.items() if len(v) != 1
    ]
    notes += [
        f"prefix X_{i} is not closed"
        for i, n_i in enumerate(expected, start=2)
        if canon.array[:n_i, :n_i].max() >= n_i
    ]
    detail = "; ".join(notes) if notes else (
        f"non-trivial proper classes at orders {sorted(expected)}" if expected
        else "no non-trivial proper subquandles"
    )
    checks.append(CheckOutcome("subquandles", not notes, detail))

    return MainTheoremReport(True, params, tuple(checks))


@dataclass(frozen=True)
class FixBlockReport:
    """Violations of the fixed-point block laws along the prefix chain."""

    checked: int
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def fix_block_report(q: QuandleTable) -> FixBlockReport:
    """Check the fixed-point block laws on every prefix of an SHQ.

    For each prefix X_m (m >= 2) of the canonical form: the sets
    F_x = Fix(R_x^(l_(m-1))) tile X_m into blocks of size n_(m-1); the sets
    B_x = Fix(R_x^l) tile it into blocks of size l+1; members of one B-block
    share R_y^l; and for m >= 3 the block of n_m is evenly spaced with step
    l(l+1)^(m-3).  A closed prefix's power tables are the corners of the
    whole canonical table's (_column_powers): R_x^k maps X_m onto itself.
    The l table P_l is built once and gives both the B blocks and every
    R_y^l; the F table P_(l_(m-1)) is chained prefix by prefix, raised by
    l_(m-1) / l_(m-2) (which is l+1 from m = 4 on).  For m >= 3, B_x lies
    inside F_x without a check: l divides l_(m-1).
    """
    params = classify_shq(q)
    if params is None:
        raise NotSHQShape("fix block laws apply to SHQs only")
    canon, decomp = canonical_relabel(q)
    ell = params.ell
    lpow = _column_powers(canon.array, ell)
    fpow = canon.array  # P_(l_1), as l_1 = 1
    checked = 0
    bad: list[str] = []
    for m in range(2, decomp.c + 1):
        n_m = decomp.ns[m - 1]
        n_prev = decomp.ns[m - 2]
        if canon.array[:n_m, :n_m].max() >= n_m:
            subtable(canon, range(1, n_m + 1))  # raises: X_m is not closed
        if m == 3:
            fpow = lpow  # l_2 = l
        elif m > 3:
            fpow = _column_powers(fpow, decomp.ell(m - 1) // decomp.ell(m - 2))
        powers = lpow[:n_m, :n_m]
        try:
            fpart = _fix_partition(fpow[:n_m, :n_m], decomp.ell(m - 1))[0]
            bpart, bkey = _fix_partition(powers, ell)
        except NotAPartition as exc:
            bad.append(f"prefix X_{m}: {exc}")
            continue
        checked += 1
        if set(fpart.sizes) != {n_prev}:
            bad.append(f"prefix X_{m}: F sizes {fpart.sizes}, want {n_prev}")
        if set(bpart.sizes) != {ell + 1}:
            bad.append(f"prefix X_{m}: B sizes {bpart.sizes}, want {ell + 1}")
        top_block = set(decomp.block(m))
        if not fpart.block_of(n_m) <= top_block:
            bad.append(f"prefix X_{m}: F_{n_m} escapes L_{m}")
        differs = np.flatnonzero((powers != powers[:, bkey - 1]).any(axis=0)).tolist()
        for y in sorted(differs, key=bkey.__getitem__):
            bad.append(f"prefix X_{m}: R_{y + 1}^{ell} differs inside B_{bkey[y]}")
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
