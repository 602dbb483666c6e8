"""SHQ detection, canonical form, and the structure-theorem checks."""

import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandlekit import (
    InvalidQuandleError,
    NotAPartition,
    NotCanonicalForm,
    NotRelabelable,
    NotSHQShape,
    ParamOutOfRange,
    Permutation,
    QuandleTable,
    SubquandleEntry,
    affine_quandle,
    are_isomorphic,
    canonical_relabel,
    check_conjugation_relations,
    check_lcm_divisibility,
    check_profile_admissible,
    classify_shq,
    decomposition_of,
    enumerate_subquandles,
    fix_block_report,
    fix_blocks,
    predicted_profile,
    profile,
    right_translation,
    shq_lengths,
    validate_quandle,
    verify_main_theorem,
    ShqParams,
)
from quandlekit import shq
from conftest import SHQS, cyclic_type_quandle, dihedral_quandle, relabel, trivial_quandle


class TestShqParams:
    def test_golden(self):
        p = ShqParams(2, 3, 3, 1)
        assert p.as_dict() == {"ell": 2, "c": 3, "p": 3, "a": 1}

    def test_rejects_inconsistent(self):
        with pytest.raises(ParamOutOfRange):
            ShqParams(2, 3, 2, 1)  # 2**1 != 3
        with pytest.raises(ParamOutOfRange):
            ShqParams(1, 3, 2, 1)  # ell too small
        with pytest.raises(ParamOutOfRange):
            ShqParams(2, 1, 3, 1)  # c too small
        with pytest.raises(ParamOutOfRange):
            ShqParams(5, 2, 6, 1)  # 6 is not prime

    @pytest.mark.parametrize(
        "args", [(2.0, 3, 3, 1), (2, 3.0, 3, 1), (2, 3, 3.0, 1), (True, 3, 3, 1), ("2", 3, 3, 1)]
    )
    def test_rejects_non_integer_fields(self, args):
        with pytest.raises(ParamOutOfRange, match="must be integers"):
            ShqParams(*args)

    def test_numpy_integer_fields(self):
        p = ShqParams(np.int64(2), np.int32(3), np.int8(3), np.uint8(1))
        assert p == ShqParams(2, 3, 3, 1)
        assert all(type(v) is int for v in p.as_dict().values())


class TestLengthFormula:
    def test_examples(self):
        assert shq_lengths(2, 2) == (1, 2)
        assert shq_lengths(2, 3) == (1, 2, 6)
        assert shq_lengths(2, 4) == (1, 2, 6, 18)
        assert shq_lengths(4, 3) == (1, 4, 20)
        assert shq_lengths(6, 3) == (1, 6, 42)

    def test_accepts_params(self):
        assert shq_lengths(ShqParams(2, 3, 3, 1)) == (1, 2, 6)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ParamOutOfRange):
            shq_lengths(1, 3)
        with pytest.raises(ParamOutOfRange):
            shq_lengths(2, 1)
        with pytest.raises(ParamOutOfRange):
            shq_lengths(2)

    def test_each_length_exceeds_previous_partial_sum(self):
        # the strict gap n_(i-1) < l_i that forces the subquandle chain
        for ell in (2, 3, 4, 6, 8):
            for c in range(2, 6):
                lengths = shq_lengths(ell, c)
                partial = 1  # n_1
                for x in lengths[1:]:
                    assert partial < x  # n_(i-1) < l_i
                    partial += x

    def test_predicted_profile(self):
        assert predicted_profile(2, 3).lengths == (1, 2, 6)
        assert str(predicted_profile(4, 3)) == "(1, 4, 20)"

    @pytest.mark.parametrize("ell, c", [(2.5, 3), (2, 3.0), (True, 3), ("2", 3)])
    def test_rejects_non_integer_arguments(self, ell, c):
        # predicted_profile(2.5, 3) was (1, 2.5, 8.75)
        with pytest.raises(ParamOutOfRange, match="integers"):
            shq_lengths(ell, c)
        with pytest.raises(ParamOutOfRange, match="integers"):
            predicted_profile(ell, c)

    def test_numpy_integer_arguments(self):
        lengths = shq_lengths(np.int64(2), np.int8(3))
        assert lengths == (1, 2, 6)
        assert all(type(x) is int for x in lengths)


def direct_sum_with_point(q: QuandleTable) -> QuandleTable:
    """Append one element acting trivially in both directions."""
    n = q.n
    rows = [list(r) + [i] for i, r in enumerate(q.rows, start=1)]
    rows.append([n + 1] * (n + 1))
    return QuandleTable.from_rows(rows)


class TestClassify:
    def test_golden(self, q94):
        assert classify_shq(q94) == ShqParams(2, 3, 3, 1)

    def test_smallest_is_dihedral_3(self):
        assert classify_shq(dihedral_quandle(3)) == ShqParams(2, 2, 3, 1)

    def test_prime_power_base(self):
        assert classify_shq(cyclic_type_quandle(2, 2)) == ShqParams(3, 2, 2, 2)
        assert classify_shq(cyclic_type_quandle(2, 3)) == ShqParams(7, 2, 2, 3)

    def test_affine_tower(self):
        assert classify_shq(affine_quandle(27, 2)) == ShqParams(2, 4, 3, 1)

    def test_fixture_bank_all_detected(self, shq_fixtures):
        for name, q in shq_fixtures:
            assert classify_shq(q) is not None, name

    def test_non_shq_shapes(self, q94):
        assert classify_shq(trivial_quandle(3)) is None  # lengths (1^3)
        assert classify_shq(dihedral_quandle(5)) is None  # lengths (1, 2^2)
        assert classify_shq(dihedral_quandle(4)) is None  # lengths (1^2, 2)
        # differing structures across translations
        assert classify_shq(direct_sum_with_point(dihedral_quandle(3))) is None


class TestAdmissibility:
    def test_ruled_out(self):
        v = check_profile_admissible((1, 5))
        assert v.ruled_out and v.reason == "NotPrimePower" and v.index == 2
        assert "6" in v.detail
        v = check_profile_admissible((1, 5, 10))
        assert v.ruled_out and v.reason == "NotPrimePower"
        v = check_profile_admissible((1, 6, 12))
        assert v.ruled_out and v.reason == "FormulaMismatch" and v.index == 3
        assert "42" in v.detail

    def test_not_ruled_out(self):
        for lengths in [(1, 6), (1, 2, 6, 18), (1, 4, 20), (1, 2), (1, 8, 72)]:
            v = check_profile_admissible(lengths)
            assert not v.ruled_out and v.reason is None, lengths

    def test_formula_checked_left_to_right(self):
        v = check_profile_admissible((1, 2, 4, 8))
        assert v.ruled_out and v.reason == "FormulaMismatch" and v.index == 3

    def test_non_shapes_raise(self):
        for lengths in [(2, 4), (1,), (1, 3, 5), (1, 2, 2), (1, 2, 6, 6)]:
            with pytest.raises(NotSHQShape):
                check_profile_admissible(lengths)

    @pytest.mark.parametrize("lengths", [(1, 2.9, 6), (True, 2.5, 6.7), ("1", "2", "6")])
    def test_rejects_non_integer_lengths(self, lengths):
        # int() read each of these as (1, 2, 6), which is not ruled out
        with pytest.raises(ParamOutOfRange, match="integers"):
            check_profile_admissible(lengths)

    def test_numpy_integer_lengths(self):
        v = check_profile_admissible(np.array([1, 2, 6]))
        assert not v.ruled_out
        assert v.lengths == (1, 2, 6)
        assert all(type(x) is int for x in v.lengths)

    def test_str(self):
        assert "not ruled out" in str(check_profile_admissible((1, 6)))
        assert "NotPrimePower" in str(check_profile_admissible((1, 5)))


class TestCanonicalRelabel:
    def test_golden_already_canonical(self, q94):
        canon, decomp = canonical_relabel(q94)
        assert canon == q94
        assert decomp.relabeling == Permutation.identity(9)
        assert decomp.lengths == (1, 2, 6)

    def test_random_relabels_restore_canonical(self, shq_fixtures):
        rng = random.Random(31)
        for name, q in shq_fixtures:
            if q.n > 27:
                continue
            image = list(range(1, q.n + 1))
            rng.shuffle(image)
            shuffled = relabel(q, Permutation(image))
            canon, decomp = canonical_relabel(shuffled)
            decomposition_of(canon)  # canonical form, no raise
            assert are_isomorphic(canon, q) is not None, name

    def test_relabeling_transports_the_table(self, q94):
        rng = random.Random(32)
        image = list(range(1, 10))
        rng.shuffle(image)
        shuffled = relabel(q94, Permutation(image))
        canon, decomp = canonical_relabel(shuffled)
        f = decomp.relabeling
        for x in range(1, 10):
            for y in range(1, 10):
                assert canon.op(f(x), f(y)) == f(shuffled.op(x, y))

    def test_repeated_cycle_lengths_rejected(self):
        with pytest.raises(NotRelabelable):
            canonical_relabel(dihedral_quandle(5))


class TestDecomposition:
    def test_golden(self, q94):
        d = decomposition_of(q94)
        assert d.lengths == (1, 2, 6)
        assert d.ns == (1, 3, 9)
        assert (d.c, d.n) == (3, 9)
        assert d.ell(2) == 2
        assert list(d.block(2)) == [2, 3]
        assert list(d.block(3)) == [4, 5, 6, 7, 8, 9]
        assert list(d.prefix(2)) == [1, 2, 3]
        assert d.block_of(1) == 1 and d.block_of(3) == 2 and d.block_of(5) == 3

    def test_index_errors(self, q94):
        d = decomposition_of(q94)
        for bad in (0, 4):
            with pytest.raises(ParamOutOfRange):
                d.block(bad)
            with pytest.raises(ParamOutOfRange):
                d.prefix(bad)
            with pytest.raises(ParamOutOfRange):
                d.ell(bad)
        with pytest.raises(ParamOutOfRange):
            d.block_of(10)

    def test_block_of_bounds(self, q94):
        d = decomposition_of(q94)
        for bad in (-1, 0, d.n + 1):
            with pytest.raises(ParamOutOfRange):
                d.block_of(bad)
        assert (d.block_of(1), d.block_of(d.n)) == (1, d.c)

    def test_non_canonical_rejected(self, q94):
        swapped = relabel(q94, Permutation.from_cycles(9, [(2, 4)]))
        with pytest.raises(NotCanonicalForm):
            decomposition_of(swapped)


class TestConjugationRelations:
    def test_golden_passes(self, q94):
        assert check_conjugation_relations(q94).passed

    def test_fixture_bank_passes(self, shq_fixtures):
        for name, q in shq_fixtures:
            canon, _ = canonical_relabel(q)
            check = check_conjugation_relations(canon)
            assert check.passed and check.witness is None, name

    def test_swapped_columns_fail_with_witness(self, q94):
        rows = [list(r) for r in q94.rows]
        for r in rows:
            r[3], r[4] = r[4], r[3]  # swap translations 4 and 5
        broken = QuandleTable._from_array(np.array(rows) - 1)
        check = check_conjugation_relations(broken)
        assert not check.passed
        assert check.witness == (3, 1)


class TestFixBlocks:
    def test_golden_partition(self, q94):
        part = fix_blocks(q94, 2)
        assert part.sizes == (3, 3, 3)
        assert set(part.blocks) == {1, 4, 5}
        assert part.blocks[1] == frozenset({1, 2, 3})
        assert part.blocks[4] == frozenset({4, 6, 8})
        assert part.blocks[5] == frozenset({5, 7, 9})
        assert part.block_of(7) == frozenset({5, 7, 9})

    def test_exponent_1_gives_singletons(self, q94):
        assert fix_blocks(q94, 1).sizes == (1,) * 9

    def test_full_order_exponent_gives_everything(self, q94):
        assert fix_blocks(q94, 6).sizes == (9,)

    def test_errors(self, q94):
        with pytest.raises(ParamOutOfRange):
            fix_blocks(q94, 0)
        with pytest.raises(ParamOutOfRange):
            fix_blocks(q94, 2).block_of(42)

    @pytest.mark.parametrize("exponent", [True, 2.0, 2.5, "2"])
    def test_exponent_must_be_an_integer(self, q94, exponent):
        with pytest.raises(ParamOutOfRange, match="exponent must be integers"):
            fix_blocks(q94, exponent)

    def test_numpy_integer_exponent_stored_as_int(self, q94):
        part = fix_blocks(q94, np.int64(2))
        assert type(part.exponent) is int
        assert part == fix_blocks(q94, 2)

    def test_uncovered_labels_rejected(self):
        # every column equals (1)(2 3 4): only label 1 is ever fixed
        sigma = (1, 3, 4, 2)
        rows = [[sigma[i]] * 4 for i in range(4)]
        broken = QuandleTable._from_array(np.array(rows) - 1)
        with pytest.raises(NotAPartition, match="cover"):
            fix_blocks(broken, 1)

    def test_overlapping_sets_rejected(self):
        # column 1 is (1)(2 3 4), the rest are the identity
        sigma = (1, 3, 4, 2)
        rows = [[sigma[i], i + 1, i + 1, i + 1] for i in range(4)]
        broken = QuandleTable._from_array(np.array(rows) - 1)
        with pytest.raises(NotAPartition, match="overlap"):
            fix_blocks(broken, 1)


class TestDerivedTablesSkipValidation:
    def test_theorem_and_fix_blocks_run_no_axiom_check(self, monkeypatch):
        from quandlekit import core, shq_family

        image = list(range(1, 28))
        random.Random(31).shuffle(image)
        q = relabel(shq_family(3, 4), Permutation(image))
        calls = []
        # validate_quandle and QuandleTable(rows) both validate through _validated
        real = core._validated
        monkeypatch.setattr(
            core, "_validated", lambda rows: calls.append(len(rows)) or real(rows)
        )
        assert verify_main_theorem(q).all_passed
        assert fix_block_report(q).passed
        assert calls == []


class TestFixBlockReport:
    def test_golden(self, q94):
        report = fix_block_report(q94)
        assert report.passed
        assert report.checked == 2
        assert report.violations == ()

    def test_tower_checks_every_prefix(self):
        from quandlekit import shq_family

        report = fix_block_report(shq_family(3, 4))
        assert report.passed and report.checked == 3

    def test_non_shq_rejected(self):
        with pytest.raises(NotSHQShape):
            fix_block_report(trivial_quandle(3))


class TestLcmDivisibility:
    def test_golden(self, q94):
        check = check_lcm_divisibility(q94)
        assert check.passed and check.total_pairs == 81

    def test_smallest(self):
        check = check_lcm_divisibility(dihedral_quandle(3))
        assert check.passed and check.total_pairs == 9

    def test_matches_direct_recomputation(self, q94):
        from math import lcm

        d = decomposition_of(q94)
        check = check_lcm_divisibility(q94)
        naive = [
            (x, y, q94.op(x, y))
            for x in range(1, 10)
            for y in range(1, 10)
            if lcm(d.ell(d.block_of(x)), d.ell(d.block_of(y)))
            % d.ell(d.block_of(q94.op(x, y)))
        ]
        assert list(check.violations) == naive == []


SHQS_REPORTS = [verify_main_theorem(q).as_dict() for q in SHQS]


class TestMainTheorem:
    def test_golden(self, q94):
        report = verify_main_theorem(q94)
        assert report.is_shq and report.all_passed
        assert report.params == ShqParams(2, 3, 3, 1)
        assert [c.name for c in report.checks] == [
            "order", "profile", "prime_power", "subquandles"
        ]
        assert all(c.passed for c in report.checks)

    def test_as_dict_shape(self, q94):
        d = verify_main_theorem(q94).as_dict()
        assert d["is_shq"] is True and d["all_passed"] is True
        assert d["params"] == {"ell": 2, "c": 3, "p": 3, "a": 1}
        assert len(d["checks"]) == 4
        assert all(set(c) == {"name", "passed", "detail"} for c in d["checks"])

    def test_non_shq(self):
        report = verify_main_theorem(trivial_quandle(3))
        assert not report.is_shq
        assert report.params is None and report.checks == ()
        assert not report.all_passed

    def test_two_cycle_case_has_no_proper_subquandles(self):
        report = verify_main_theorem(cyclic_type_quandle(2, 2))
        assert report.all_passed
        sub = next(c for c in report.checks if c.name == "subquandles")
        assert "no non-trivial proper" in sub.detail

    def test_relabeled_table_still_verifies(self, q94):
        rng = random.Random(33)
        image = list(range(1, 10))
        rng.shuffle(image)
        assert verify_main_theorem(relabel(q94, Permutation(image))).all_passed

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_report_does_not_depend_on_the_labels(self, data):
        i = data.draw(st.integers(0, len(SHQS) - 1))
        q = SHQS[i]
        f = Permutation(data.draw(st.permutations(range(1, q.n + 1))))
        assert verify_main_theorem(relabel(q, f)).as_dict() == SHQS_REPORTS[i]


class TestSubquandleClauseFailures:
    """The subquandles clause on q94, whose inventory lists the order-3
    closed sets as entries 9, 10 and 11 of class 9, with doctored copies of
    that inventory, and on an unchecked table whose prefix escapes."""

    @staticmethod
    def clause(q, inventory):
        return shq._verify(q, profile(q), None, inventory).checks[-1]

    @staticmethod
    def doctored(q, **changes):
        """q's inventory with entry k replaced as changes[f"e{k}"] says;
        None drops the entry."""
        inventory = enumerate_subquandles(q)
        entries = [changes.get(f"e{k}", e) for k, e in enumerate(inventory.entries)]
        return replace(inventory, entries=tuple(e for e in entries if e is not None))

    def test_inventory_as_enumerated_passes(self, q94):
        entries = enumerate_subquandles(q94).entries
        assert [(e.order, e.iso_class) for e in entries[9:12]] == [(3, 9)] * 3
        check = self.clause(q94, enumerate_subquandles(q94))
        assert check.passed and check.detail == "non-trivial proper classes at orders [3]"

    def test_entry_of_a_non_prefix_order(self, q94):
        inventory = enumerate_subquandles(q94)
        extra = SubquandleEntry((1, 2, 3, 4), 4, profile(trivial_quandle(4)), 13)
        inventory = replace(inventory, entries=inventory.entries + (extra,))
        check = self.clause(q94, inventory)
        assert not check.passed and check.detail == "unexpected subquandle order 4"

    def test_entry_with_a_wrong_profile(self, q94):
        entry = enumerate_subquandles(q94).entries[10]
        wrong = replace(entry, profile=profile(trivial_quandle(3)))
        check = self.clause(q94, self.doctored(q94, e10=wrong))
        assert not check.passed
        assert check.detail == "order 3 has profile [(1^3)], predicted (1, 2)"

    def test_two_classes_at_a_prefix_order(self, q94):
        entry = enumerate_subquandles(q94).entries[11]
        check = self.clause(q94, self.doctored(q94, e11=replace(entry, iso_class=11)))
        assert not check.passed and check.detail == "order 3: 2 classes, predicted 1"

    def test_no_class_at_a_prefix_order(self, q94):
        check = self.clause(q94, self.doctored(q94, e9=None, e10=None, e11=None))
        assert not check.passed and check.detail == "order 3: 0 classes, predicted 1"

    def test_every_failure_is_noted(self, q94):
        entries = enumerate_subquandles(q94).entries
        wrong = profile(trivial_quandle(3))
        check = self.clause(q94, self.doctored(
            q94,
            e9=replace(entries[9], profile=wrong),
            e10=replace(entries[10], order=4),
            e11=replace(entries[11], iso_class=11),
        ))
        assert not check.passed
        assert check.detail.split("; ") == [
            "order 3 has profile [(1^3)], predicted (1, 2)",
            "unexpected subquandle order 4",
            "order 3: 2 classes, predicted 1",
        ]

    def test_notes_follow_the_listing(self, q94):
        entries = enumerate_subquandles(q94).entries
        inventory = self.doctored(
            q94,
            e9=replace(entries[9], profile=profile(trivial_quandle(3))),
            e11=replace(entries[11], profile=profile(cyclic_type_quandle(2, 2))),
        )
        notes = [
            "order 3 has profile [(1^3)], predicted (1, 2)",
            "order 3 has profile (1, 3), predicted (1, 2)",
        ]
        assert self.clause(q94, inventory).detail.split("; ") == notes
        backwards = replace(inventory, entries=inventory.entries[::-1])
        assert self.clause(q94, backwards).detail.split("; ") == notes[::-1]

    def test_prefix_that_escapes(self, q94):
        # R_2 conjugated by the transposition (2 5) keeps its cycle type and
        # R_1 stays canonical, but 2 * 2 = 4 = n_2 + 1 is the one product of
        # X_2 = {1, 2, 3} outside it; the prefix is read off the table,
        # whatever the inventory lists
        tbl = q94.array.copy()
        swap = np.array([0, 4, 2, 3, 1, 5, 6, 7, 8])
        tbl[:, 1] = swap[tbl[swap, 1]]
        bad = QuandleTable._from_array(tbl)
        assert bad.array[:3, :3].tolist() == [[0, 2, 1], [2, 3, 0], [1, 0, 2]]
        assert not validate_quandle(bad.rows).ok
        check = self.clause(bad, enumerate_subquandles(q94))
        assert not check.passed and check.detail == "prefix X_2 is not closed"

    def test_fix_block_report_refuses_the_escaping_prefix(self, q94):
        # the power tables are corners of the whole table's only when the
        # prefix is closed; one that is not raises subtable's error
        tbl = q94.array.copy()
        swap = np.array([0, 4, 2, 3, 1, 5, 6, 7, 8])
        tbl[:, 1] = swap[tbl[swap, 1]]
        with pytest.raises(InvalidQuandleError) as info:
            fix_block_report(QuandleTable._from_array(tbl))
        assert (info.value.result.error, info.value.result.witness) == ("EntryOutOfRange", (2, 2))


class TestTranslationSharing:
    def test_same_fix_block_shares_power(self, q94):
        # members of one block raise to the same permutation
        part = fix_blocks(q94, 2)
        for blk in part.blocks.values():
            powers = {right_translation(q94, x) ** 2 for x in blk}
            assert len(powers) == 1
