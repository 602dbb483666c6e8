"""Tables, permutations, validation, and the .qdl text format."""

import random
import re
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandlekit import (
    ConjugationViolation,
    CycleStructure,
    FixedPointMissing,
    IndexOutOfRange,
    InvalidQuandleError,
    ParamOutOfRange,
    ParseError,
    Permutation,
    QuandleTable,
    affine_quandle,
    cycle_structure,
    format_qdl,
    from_translations,
    parse_qdl,
    read_qdl,
    right_translation,
    shq_family,
    translations,
    validate_quandle,
    write_qdl,
)
from quandlekit import core
from quandlekit.cli import main
from conftest import FIXTURES, Q94_ROWS, SMALL, dihedral_quandle, relabel, trivial_quandle


def random_permutation(rng: random.Random, n: int) -> Permutation:
    image = list(range(1, n + 1))
    rng.shuffle(image)
    return Permutation(tuple(image))


class TestCycleStructure:
    def test_from_lengths_sorts(self):
        assert CycleStructure.from_lengths([6, 1, 2]).lengths == (1, 2, 6)

    def test_str_groups_multiplicities(self):
        assert str(CycleStructure((1, 2, 6))) == "(1, 2, 6)"
        assert str(CycleStructure((1, 1, 1))) == "(1^3)"
        assert str(CycleStructure((1, 2, 2, 6))) == "(1, 2^2, 6)"

    def test_total(self):
        assert CycleStructure((1, 2, 6)).total == 9

    @pytest.mark.parametrize("lengths", [(1, 2.5), (True, 2), (1, 2.0), (1, "2")])
    def test_rejects_non_integer_lengths(self, lengths):
        with pytest.raises(ParamOutOfRange, match="integers"):
            CycleStructure(lengths)

    def test_numpy_integer_lengths_become_ints(self):
        s = CycleStructure((np.int64(1), np.int8(2)))
        assert s.lengths == (1, 2)
        assert all(type(x) is int for x in s.lengths)


class TestPermutation:
    def test_identity_and_call(self):
        p = Permutation.identity(4)
        assert [p(i) for i in range(1, 5)] == [1, 2, 3, 4]

    def test_call_out_of_range(self):
        p = Permutation.identity(3)
        with pytest.raises(IndexOutOfRange):
            p(0)
        with pytest.raises(IndexOutOfRange):
            p(4)

    def test_rejects_non_bijection(self):
        with pytest.raises(Exception):
            Permutation((1, 1, 3))

    def test_from_cycles(self):
        p = Permutation.from_cycles(9, [(2, 3), (4, 5, 6, 7, 8, 9)])
        assert p(1) == 1
        assert p(2) == 3 and p(3) == 2
        assert p(9) == 4

    def test_composition_convention(self):
        # (p * q)(i) = p(q(i))
        p = Permutation.from_cycles(3, [(1, 2)])
        q = Permutation.from_cycles(3, [(2, 3)])
        assert (p * q)(3) == 1

    def test_composition_associative(self):
        rng = random.Random(7)
        for _ in range(25):
            a, b, c = (random_permutation(rng, 8) for _ in range(3))
            assert (a * b) * c == a * (b * c)

    def test_inverse(self):
        rng = random.Random(8)
        for _ in range(25):
            p = random_permutation(rng, 9)
            assert p * p.inverse() == Permutation.identity(9)
            assert p.inverse() * p == Permutation.identity(9)

    def test_pow(self):
        rng = random.Random(9)
        for _ in range(10):
            p = random_permutation(rng, 7)
            assert p**0 == Permutation.identity(7)
            assert p**-1 == p.inverse()
            acc = Permutation.identity(7)
            for k in range(1, 8):
                acc = p * acc
                assert p**k == acc
            assert p**-3 == (p**3).inverse()

    def test_order_matches_iteration(self):
        rng = random.Random(10)
        for _ in range(20):
            p = random_permutation(rng, 8)
            k, acc = 1, p
            while acc != Permutation.identity(8):
                acc = p * acc
                k += 1
            assert p.order() == k

    def test_cycles_start_at_smallest(self):
        p = Permutation.from_cycles(6, [(5, 6), (2, 4, 3)])
        assert p.cycles() == ((1,), (2, 4, 3), (5, 6))

    def test_fixed_points(self):
        p = Permutation.from_cycles(5, [(2, 4)])
        assert p.fixed_points() == (1, 3, 5)

    def test_repr_uses_cycles(self):
        p = Permutation.from_cycles(4, [(1, 2)])
        assert "(1 2)" in repr(p)


class TestCycleStructureOfPermutation:
    def test_identity(self):
        assert cycle_structure(Permutation.identity(5)).lengths == (1, 1, 1, 1, 1)

    def test_golden_shape(self):
        p = Permutation.from_cycles(9, [(2, 3), (4, 5, 6, 7, 8, 9)])
        assert cycle_structure(p).lengths == (1, 2, 6)

    def test_matches_cycle_chasing_oracle(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randrange(1, 12)
            p = random_permutation(rng, n)
            # naive oracle: follow each element until it returns
            seen, lengths = set(), []
            for start in range(1, n + 1):
                if start in seen:
                    continue
                x, steps = start, 0
                while True:
                    x = p(x)
                    steps += 1
                    seen.add(x)
                    if x == start:
                        break
                lengths.append(steps)
            assert cycle_structure(p).lengths == tuple(sorted(lengths))


class TestValidateQuandle:
    def test_golden_fixture_is_valid(self):
        result = validate_quandle(Q94_ROWS)
        assert result.ok and result.order == 9
        assert str(result) == "valid quandle of order 9"

    def test_non_square(self):
        result = validate_quandle([(1, 2, 3), (2, 1)])
        assert (result.error, result.witness) == ("NonSquare", (1,))
        assert not validate_quandle([]).ok

    def test_entry_out_of_range(self):
        result = validate_quandle([(1, 3), (1, 2)])
        assert (result.error, result.witness) == ("EntryOutOfRange", (1, 2))
        result = validate_quandle([(1, 0), (1, 2)])
        assert result.error == "EntryOutOfRange"

    def test_idempotency_violation(self):
        result = validate_quandle([(1, 1, 1), (2, 2, 2), (3, 3, 2)])
        assert (result.error, result.witness) == ("IdempotencyViolation", (3,))

    def test_column_violation(self):
        result = validate_quandle([(1, 1), (1, 2)])
        assert (result.error, result.witness) == ("RightInvertibilityViolation", (1,))

    def test_distributivity_violation_first_witness(self):
        # swap entries (1,2) and (3,2); column 2 stays a permutation
        rows = [list(r) for r in Q94_ROWS]
        rows[0][1], rows[2][1] = rows[2][1], rows[0][1]
        result = validate_quandle(rows)
        assert result.error == "DistributivityViolation"
        assert (result.error, result.witness) == reference_first_failure(rows)

    def test_numpy_path_matches_naive_oracle(self):
        # corrupt an order-49 table and compare with the scalar scan
        base = [list(r) for r in affine_quandle(49, 19).rows]
        rng = random.Random(12)
        for _ in range(10):
            rows = [list(r) for r in base]
            j = rng.randrange(49)
            i1, i2 = rng.sample(range(49), 2)
            rows[i1][j], rows[i2][j] = rows[i2][j], rows[i1][j]
            result = validate_quandle(rows)
            expect = reference_first_failure(rows)
            assert (result.error, result.witness) == expect

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_matches_reference_on_mutated_relabellings(self, data):
        rows = data.draw(relabelled_rows())
        n = len(rows)
        index = st.integers(0, n - 1)
        kind = data.draw(st.sampled_from(["none", "swap", "diagonal", "column", "entry"]))
        if kind == "swap":  # two entries of one column trade places
            j, a, b = data.draw(index), data.draw(index), data.draw(index)
            rows[a][j], rows[b][j] = rows[b][j], rows[a][j]
        elif kind == "diagonal":
            i = data.draw(index)
            rows[i][i] = data.draw(st.integers(1, n))
        elif kind == "column":  # one column overwritten by another
            src, dst = data.draw(index), data.draw(index)
            for row in rows:
                row[dst] = row[src]
        elif kind == "entry":  # one entry repeated within its column
            j, a, b = data.draw(index), data.draw(index), data.draw(index)
            rows[a][j] = rows[b][j]
        result = validate_quandle(rows)
        assert (result.error, result.witness) == reference_first_failure(rows)

    def test_violation_beyond_the_first_generator(self):
        # label 1 is fixed by everything and acts trivially, so R_1 is an
        # automorphism that generates nothing; the broken Q94 on 2..10 fails later
        broken = [list(r) for r in Q94_ROWS]
        broken[0][1], broken[2][1] = broken[2][1], broken[0][1]
        rows = [[1] * 10] + [[i + 2] + [v + 1 for v in row] for i, row in enumerate(broken)]
        result = validate_quandle(rows)
        assert result.error == "DistributivityViolation"
        assert (result.error, result.witness) == reference_first_failure(rows)

    def test_valid_tables_skip_the_witness_scan(self, monkeypatch):
        def scan(tbl, cols):
            raise AssertionError("witness scan on a valid table")

        monkeypatch.setattr(core, "_first_mismatch", scan)
        rng = random.Random(343)
        image = list(range(1, 344))
        rng.shuffle(image)
        rows = relabel(affine_quandle(343, 3), Permutation(image)).rows
        assert validate_quandle(rows).ok
        assert validate_quandle([(1,) * 5, (2,) * 5, (3,) * 5, (4,) * 5, (5,) * 5]).ok

    def test_entry_forms_outside_the_array_path(self):
        # entries numpy cannot take as one integer array go through the scalar scan
        assert validate_quandle([(1, 2.0), (1, 2)]).witness == (1, 2)
        assert validate_quandle([(1, 1), (2, [2])]).witness == (2, 2)
        assert validate_quandle([(1, 1), (2, 2**70)]).witness == (2, 2)
        assert validate_quandle([("1", "1"), ("2", "2")]).witness == (1, 1)
        assert validate_quandle([(True, True), (2, 2)]).ok  # bools are ints
        assert validate_quandle([(True, True), (2, 3)]).witness == (2, 2)

    def test_integer_arrays_name_their_first_bad_entry(self):
        # an integer ndarray is range-checked as an array, not entry by entry
        for dtype in (np.int32, np.int64, np.uint8):
            for rows, witness in (([[1, 3], [2, 2]], (1, 2)), ([[1, 1], [0, 2]], (2, 1))):
                assert validate_quandle(np.array(rows, dtype=dtype)).witness == witness
                with pytest.raises(InvalidQuandleError) as exc:
                    QuandleTable(np.array(rows, dtype=dtype))
                assert exc.value.result.witness == witness

    def test_str_reports_witness(self):
        result = validate_quandle([(1, 1, 1), (2, 2, 2), (3, 3, 2)])
        assert "IdempotencyViolation" in str(result) and "(3,)" in str(result)


def reference_first_failure(rows):
    """(error name, witness) from the scalar scan: idempotency over i, column
    bijectivity over j, then distributivity i-major with early exit."""
    n = len(rows)
    t = [[v - 1 for v in row] for row in rows]
    for i in range(n):
        if t[i][i] != i:
            return ("IdempotencyViolation", (i + 1,))
    for j in range(n):
        if sorted(row[j] for row in t) != list(range(n)):
            return ("RightInvertibilityViolation", (j + 1,))
    for i in range(n):
        ti = t[i]
        for j in range(n):
            tij = t[ti[j]]
            tj = t[j]
            for k in range(n):
                if tij[k] != t[ti[k]][tj[k]]:
                    return ("DistributivityViolation", (i + 1, j + 1, k + 1))
    return (None, ())


@st.composite
def relabelled_rows(draw):
    """Rows of a random relabelling of an affine, family, trivial or even-order
    dihedral table, order <= 40.  The last two are disconnected and need many
    generators."""
    kind = draw(st.sampled_from(["affine", "family", "trivial", "dihedral"]))
    if kind == "affine":
        m = draw(st.integers(1, 40))
        q = affine_quandle(m, draw(st.sampled_from([h for h in range(m) if gcd(h, m) == 1])))
    elif kind == "family":
        q = shq_family(*draw(st.sampled_from([(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2)])))
    elif kind == "trivial":
        q = trivial_quandle(draw(st.integers(1, 12)))
    else:
        q = dihedral_quandle(2 * draw(st.integers(1, 20)))
    image = draw(st.permutations(range(1, q.n + 1)))
    return [list(row) for row in relabel(q, Permutation(image)).rows]


@st.composite
def union_arrays(draw, max_order: int = 40):
    """0-based table of a relabelled disjoint union of one to six SMALL
    quandles (x * y = x across pieces), order <= max_order: tables with many
    generators and with equal columns."""
    pieces = draw(st.lists(st.sampled_from(SMALL), min_size=1, max_size=6))
    while sum(q.n for q in pieces) > max_order:
        pieces.pop()
    n = sum(q.n for q in pieces)
    t = np.repeat(np.arange(n)[:, None], n, axis=1)
    lo = 0
    for q in pieces:
        t[lo : lo + q.n, lo : lo + q.n] = q.array + lo
        lo += q.n
    sigma = np.array(draw(st.permutations(range(n))))
    out = np.empty_like(t)
    out[np.ix_(sigma, sigma)] = sigma[t]
    return out


@st.composite
def bijective_tables(draw):
    """A union table, or a copy with one column changed so that every column
    stays a bijection: two entries swapped, or the column replaced by
    another one or by a random permutation."""
    t = draw(union_arrays())
    n = len(t)
    j = draw(st.integers(0, n - 1))
    kind = draw(st.sampled_from(["none", "swap", "column", "permutation"]))
    if kind == "swap" and n > 1:
        a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        t[[a, b], j] = t[[b, a], j]
    elif kind == "column":
        t[:, j] = t[:, draw(st.integers(0, n - 1))]
    elif kind == "permutation":
        t[:, j] = draw(st.permutations(range(n)))
    return t


class TestDistributivityKernel:
    """_distributive checks one generator per class of equal columns; the
    full scan _first_mismatch and the per-pair definitions below are its
    oracles, and test_table_oracles.py holds the walk's closures to
    reference_closure."""

    @settings(max_examples=300, deadline=None)
    @given(bijective_tables())
    def test_matches_full_scan(self, t):
        # only the labels the walk leaves unsettled can fail, so the scan
        # over their columns finds the full scan's witness
        unsettled = core._distributive(t)
        full = core._first_mismatch(t, np.arange(len(t)))
        assert (unsettled.size == 0) == (full is None)
        assert core._first_mismatch(t, unsettled) == full
        rows = (t + 1).tolist()
        result = validate_quandle(rows)
        assert (result.error, result.witness) == reference_first_failure(rows)

    @settings(max_examples=200, deadline=None)
    @given(union_arrays(), st.data())
    def test_automorphism_matches_definition(self, t, data):
        n = len(t)
        kind = data.draw(st.sampled_from(["column", "product", "permutation", "transposition"]))
        if kind == "column":  # an inner automorphism
            col = t[:, data.draw(st.integers(0, n - 1))]
        elif kind == "product":
            a, b = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
            col = t[t[:, b], a]
        elif kind == "permutation":
            col = np.array(data.draw(st.permutations(range(n))))
        else:
            col = np.arange(n)
            if n > 1:
                a, b = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                          unique=True))
                col[[a, b]] = col[[b, a]]
        want = np.array_equal(col[t], t[np.ix_(col, col)])  # col(i*j) = col(i)*col(j)
        assert core._automorphism(t, col, col != np.arange(n)) == want

    @pytest.mark.parametrize("build, checks", [
        (lambda: np.repeat(np.arange(2048)[:, None], 2048, axis=1), 1),  # trivial
        (lambda: affine_quandle(343, 3).array, 2),  # connected
        (lambda: affine_quandle(2048, 3).array, 2),  # two orbits, two generators
        (lambda: disjoint(dihedral_quandle(3), 100), 200),  # two per component
        (lambda: disjoint(affine_quandle(5, 2), 40), 80),
    ])
    def test_checks_per_table(self, monkeypatch, build, checks):
        t = build()
        calls = []
        real = core._automorphism
        monkeypatch.setattr(core, "_automorphism", lambda *a: calls.append(1) or real(*a))
        assert core._distributive(t).size == 0
        assert len(calls) == checks

    def test_witness_scan_reads_the_unsettled_columns(self, monkeypatch):
        # a swap in column 299 of the last of 100 copies of the order-3
        # quandle: the walk settles the 99 copies before it, so the scan
        # for the first witness reads only the last copy's columns
        t = disjoint(dihedral_quandle(3), 100)
        t[[297, 299], 298] = t[[299, 297], 298]
        scanned = []
        real = core._first_mismatch
        monkeypatch.setattr(core, "_first_mismatch",
                            lambda tbl, cols: scanned.append(cols.tolist()) or real(tbl, cols))
        rows = (t + 1).tolist()
        result = validate_quandle(rows)
        assert (result.error, result.witness) == reference_first_failure(rows)
        assert len(scanned) == 1 and set(scanned[0]) <= {297, 298, 299}


def disjoint(q: QuandleTable, copies: int) -> np.ndarray:
    """0-based table of `copies` side-by-side copies of q, x * y = x across them."""
    n = q.n * copies
    t = np.repeat(np.arange(n)[:, None], n, axis=1)
    for c in range(0, n, q.n):
        t[c : c + q.n, c : c + q.n] = q.array + c
    return t


class TestQuandleTable:
    def test_op_and_bounds(self, q94):
        assert q94.op(1, 2) == 3
        assert q94.op(9, 9) == 9
        with pytest.raises(IndexOutOfRange):
            q94.op(0, 1)
        with pytest.raises(IndexOutOfRange):
            q94.op(1, 10)

    def test_from_rows_raises_with_result(self):
        with pytest.raises(InvalidQuandleError) as exc:
            QuandleTable.from_rows([(1, 1), (1, 2)])
        assert exc.value.result.error == "RightInvertibilityViolation"

    def test_array_is_a_read_only_copy(self):
        # from rows, and from an integer array, which validation reads without
        # a copy: the stored table is its own 0-based int32 array
        rows = np.array(Q94_ROWS, dtype=np.int64)
        for source in (Q94_ROWS, rows):
            q = QuandleTable.from_rows(source)
            assert q.array.dtype == np.int32 and not q.array.flags.writeable
            assert (q.array == rows - 1).all()
            assert not np.shares_memory(q.array, rows)

    def test_equality_and_hash(self, q94):
        again = QuandleTable.from_rows(Q94_ROWS)
        assert q94 == again and hash(q94) == hash(again)
        assert q94 != trivial_quandle(9)


class TestRightTranslations:
    def test_golden_r1(self, q94):
        assert right_translation(q94, 1) == Permutation.from_cycles(
            9, [(2, 3), (4, 5, 6, 7, 8, 9)]
        )

    def test_trivial_is_identity(self):
        t = trivial_quandle(4)
        for i in range(1, 5):
            assert right_translation(t, i) == Permutation.identity(4)

    def test_column_4_structure(self, q94):
        assert cycle_structure(right_translation(q94, 4)).lengths == (1, 2, 6)

    def test_translations_are_columns(self, q94):
        for i, p in enumerate(translations(q94), start=1):
            assert all(p(j) == q94.op(j, i) for j in range(1, 10))


class TestFromTranslations:
    def test_round_trip_golden(self, q94):
        assert from_translations(translations(q94)) == q94

    def test_round_trip_property(self, shq_fixtures):
        for name, q in shq_fixtures:
            assert from_translations(translations(q)) == q, name

    def test_identities_build_trivial(self):
        perms = [Permutation.identity(3)] * 3
        assert from_translations(perms) == trivial_quandle(3)

    def test_swapped_columns_conjugation_violation(self, q94):
        perms = list(translations(q94))
        perms[0], perms[1] = perms[1], perms[0]
        with pytest.raises(ConjugationViolation) as exc:
            from_translations(perms)
        assert len(exc.value.witness) == 2

    def test_shared_non_identity_translation_misses_fixed_point(self):
        # R_i = (1 2) for every i satisfies the conjugation identity
        # trivially but fixes no index
        sigma = Permutation.from_cycles(3, [(1, 2)])
        with pytest.raises(FixedPointMissing) as exc:
            from_translations([sigma, sigma, sigma])
        assert exc.value.witness == (1,)

    def test_valid_translations_are_not_revalidated(self, monkeypatch, shq_fixtures):
        calls = []
        # validate_quandle and QuandleTable(rows) both validate through _validated
        real = core._validated
        monkeypatch.setattr(
            core, "_validated", lambda rows: calls.append(len(rows)) or real(rows)
        )
        for name, q in shq_fixtures:
            assert from_translations(translations(q)) == q, name
        assert calls == []

    def test_conjugation_identity_holds_on_valid_tables(self, q94):
        perms = translations(q94)
        for i in range(1, 10):
            ri = perms[i - 1]
            for j in range(1, 10):
                rj = perms[j - 1]
                assert perms[ri(j) - 1] == ri * rj * ri.inverse()


class TestQdlFormat:
    def test_parse_golden_file(self, q94):
        q = read_qdl(FIXTURES / "q94.qdl")
        assert q == q94

    def test_round_trip_bit_exact(self, q94):
        text = format_qdl(q94)
        assert parse_qdl(text) == q94
        assert format_qdl(parse_qdl(text)) == text

    def test_comments_written_and_skipped(self, q94, tmp_path):
        path = tmp_path / "t.qdl"
        write_qdl(q94, path, comments=("hello", "world"))
        text = path.read_text()
        assert text.startswith("# hello\n# world\n")
        assert read_qdl(path) == q94

    def test_empty_file(self):
        with pytest.raises(ParseError):
            parse_qdl("")

    def test_error_line_numbers(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_qdl("zap\n")
        with pytest.raises(ParseError, match="line 3"):
            parse_qdl("# c\n2\n1 2 3\n2 1\n")
        with pytest.raises(ParseError, match="line 4"):
            parse_qdl("2\n1 1\n2 2\nextra\n")
        with pytest.raises(ParseError):
            parse_qdl("2\n1 1\n")  # missing a row
        with pytest.raises(ParseError):
            parse_qdl("0\n")

    @pytest.mark.parametrize(
        "digit",
        [lambda d: f"+{d}", lambda d: f"0_{d}", lambda d: chr(0x660 + d)],
        ids=["plus", "underscore", "arabic_indic"],
    )
    def test_integers_are_ascii_decimal(self, digit):
        # '+3', '0_3' and the Arabic-Indic '3' all pass int(); none is a .qdl integer
        with pytest.raises(ParseError, match="line 2"):
            parse_qdl(f"# trivial\n{digit(3)}\n1 1 1\n2 2 2\n3 3 3\n")
        with pytest.raises(ParseError, match="line 3"):
            parse_qdl(f"3\n1 1 1\n2 {digit(2)} 2\n3 3 3\n")

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="0123456789+-_ \u0663\uff13\u00b2x", min_size=1, max_size=5))
    def test_row_integers_match_decimal_grammar(self, token):
        text = f"1\n{token}\n"
        decimal = re.fullmatch(r"-?[0-9]+", token.strip()) is not None
        if decimal:
            if int(token) == 1:
                assert parse_qdl(text).n == 1
            else:
                with pytest.raises(InvalidQuandleError):
                    parse_qdl(text)
        elif len(token.split()) == 1:
            with pytest.raises(ParseError, match="line 2"):
                parse_qdl(text)

    @settings(max_examples=150, deadline=None)
    @given(
        relabelled_rows(),
        st.lists(st.sampled_from(["c", "a comment"]), max_size=2),
        st.sampled_from(["token", "count", "truncate", "extra"]),
        st.data(),
    )
    def test_round_trip_and_mutated_lines(self, tmp_path_factory, rows, comments, mutation, data):
        q = QuandleTable.from_rows(rows)
        text = format_qdl(q, comments)
        assert parse_qdl(text) == q
        assert format_qdl(parse_qdl(text), comments) == text
        lines = text.splitlines()
        first = len(comments) + 1  # the header's line number
        if mutation == "token":
            line = data.draw(st.integers(first, len(lines)))
            tokens = lines[line - 1].split()
            bad = data.draw(st.sampled_from(["x", "+1", "1_0", "1.0", "٣", "--1", "0x1"]))
            tokens[data.draw(st.integers(0, len(tokens) - 1))] = bad
            lines[line - 1] = " ".join(tokens)
        elif mutation == "count":
            line = data.draw(st.integers(first, len(lines)))
            tokens = lines[line - 1].split()
            if len(tokens) > 1 and data.draw(st.booleans()):
                tokens.pop(data.draw(st.integers(0, len(tokens) - 1)))
            else:
                tokens.append("1")
            lines[line - 1] = " ".join(tokens)
        elif mutation == "truncate":
            # the file ends at or inside this line, and loses at least one entry
            line = data.draw(st.integers(first, len(lines) - (len(lines[-1].split()) == 1)))
            tokens = lines[line - 1].split()
            keep = data.draw(st.integers(1, len(tokens) - (line == len(lines))))
            lines = lines[: line - 1] + [" ".join(tokens[:keep])]
        else:
            line = len(lines) + 1
            lines.append(data.draw(st.sampled_from(["1", "x", "1 2 3"])))
        mutated = "\n".join(lines) + "\n"
        with pytest.raises(ParseError) as exc:
            parse_qdl(mutated)
        assert exc.value.line == line
        path = tmp_path_factory.mktemp("qdl") / "t.qdl"
        path.write_text(mutated)
        assert main(["validate", str(path)]) == 2

    @pytest.mark.parametrize(
        "raw, line",
        [
            (b"3\n1 3 2\n3 2 1\n2 1 \xff3\n", 4),
            (b"# caf\xe9\n1\n1\n", 1),
            (b"\xfe\n1\n1\n", 1),
            (b"1\r\n1\r\x80", 3),
            (b"# \xe2\x88\x97 ok\n2\n1 1\n2 2\xc3\n", 4),
        ],
    )
    def test_undecodable_bytes_are_a_parse_error(self, tmp_path, raw, line):
        path = tmp_path / "t.qdl"
        path.write_bytes(raw)
        with pytest.raises(ParseError, match=f"^line {line}: not valid UTF-8") as exc:
            read_qdl(path)
        assert exc.value.line == line

    def test_utf8_comments_are_read(self, tmp_path):
        path = tmp_path / "t.qdl"
        path.write_bytes("# r\u00e9sum\u00e9 \u2217\r\n1\r\n1\r\n".encode())
        assert read_qdl(path) == trivial_quandle(1)

    def test_negative_entry_reaches_validation(self):
        with pytest.raises(InvalidQuandleError) as exc:
            parse_qdl("2\n1 -1\n2 2\n")
        assert (exc.value.result.error, exc.value.result.witness) == ("EntryOutOfRange", (1, 2))
        with pytest.raises(ParseError, match="line 1"):
            parse_qdl("-2\n")

    def test_invalid_table_raises_invalid_not_parse(self):
        with pytest.raises(InvalidQuandleError):
            parse_qdl("2\n2 2\n1 1\n")
