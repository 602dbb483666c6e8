"""Connectivity, profiles, subquandle enumeration, and isomorphism."""

import random
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandlekit import (
    GaloisField,
    IndexOutOfRange,
    InvalidQuandleError,
    ParamOutOfRange,
    Permutation,
    QuandleTable,
    SizeLimitExceeded,
    ValidationResult,
    affine_quandle,
    are_isomorphic,
    canonical_relabel,
    classify_shq,
    enumerate_subquandles,
    galois_affine_quandle,
    is_connected,
    is_latin,
    orbits,
    profile,
    right_translation,
    shq_family,
    subquandle_closure,
    subtable,
    validate_quandle,
)
from quandlekit import core, structure
from conftest import (
    SHQS,
    SMALL,
    UNION,
    cyclic_type_quandle,
    dihedral_quandle,
    disjoint_union,
    relabel,
    relabelled,
    shuffled,
    trivial_quandle,
)
from test_table_oracles import (
    reference_closure,
    reference_inventory,
    reference_orbits,
    reference_profile,
)


# Three singleton orbits with one column (the identity) and one orbit of
# three transpositions.
TRIVIAL_AND_D3 = shuffled(disjoint_union(trivial_quandle(3), dihedral_quandle(3)), 4)


def subfield_quandle(p: int, a: int, s: int) -> QuandleTable:
    """Galois affine quandle over GF(p^a) whose multiplier generates the
    subfield GF(p^s); its closed sets are the affine GF(p^s)-subspaces."""
    field = GaloisField(p, a)
    h = field.pow(field.multiplicative_generator(), (p**a - 1) // (p**s - 1))
    return galois_affine_quandle(p, a, h)


class TestOrbits:
    def test_trivial_all_singletons(self):
        assert orbits(trivial_quandle(4)) == ((1,), (2,), (3,), (4,))

    def test_golden_single_orbit(self, q94):
        assert orbits(q94) == (tuple(range(1, 10)),)

    def test_dihedral_even_splits_by_parity(self):
        assert orbits(dihedral_quandle(4)) == ((1, 3), (2, 4))

    def test_dihedral_odd_transitive(self):
        assert orbits(dihedral_quandle(5)) == (tuple(range(1, 6)),)


class TestConnectedLatin:
    def test_connected(self, q94):
        assert is_connected(q94)
        assert is_connected(trivial_quandle(1))
        assert not is_connected(trivial_quandle(2))
        assert not is_connected(dihedral_quandle(4))

    def test_latin(self, q94):
        assert is_latin(q94)
        assert is_latin(dihedral_quandle(5))
        assert is_latin(trivial_quandle(1))
        assert not is_latin(trivial_quandle(3))
        assert not is_latin(dihedral_quandle(4))

    def test_fixtures_are_latin(self, shq_fixtures):
        for name, q in shq_fixtures:
            assert is_latin(q), name


class TestProfile:
    def test_golden(self, q94):
        p = profile(q94)
        assert p.connected
        assert p.connected_form.lengths == (1, 2, 6)
        assert str(p) == "(1, 2, 6)"

    def test_trivial(self):
        p = profile(trivial_quandle(3))
        assert not p.connected and p.connected_form is None
        assert [s.lengths for s in p.structures] == [(1, 1, 1)]
        assert str(p) == "[(1^3)]"

    def test_disconnected_dedupes(self):
        p = profile(dihedral_quandle(4))
        assert [s.lengths for s in p.structures] == [(1, 1, 2)]

    def test_affine_mod_27_against_orbit_chasing(self):
        q = affine_quandle(27, 2)
        p = profile(q)
        assert p.connected
        # oracle: orbit lengths of j -> h*j + (1-h)*i on Z_27, chased directly
        h, m, i = 2, 27, 5
        seen, lengths = set(), []
        for start in range(m):
            if start in seen:
                continue
            x, steps = start, 0
            while True:
                x = (h * x + (1 - h) * i) % m
                steps += 1
                seen.add(x)
                if x == start:
                    break
            lengths.append(steps)
        assert p.connected_form.lengths == tuple(sorted(lengths)) == (1, 2, 6, 18)


class TestOrbitsOfDifferentTypes:
    """UNION has three orbits whose translations have three cycle types."""

    def test_matches_oracles(self):
        assert orbits(UNION) == reference_orbits(UNION)
        assert [len(o) for o in orbits(UNION)] == [7, 5, 3]
        assert not is_connected(UNION)
        assert profile(UNION) == reference_profile(UNION)
        assert str(profile(UNION)) == "[(1^13, 2); (1^11, 4); (1^9, 6)]"

    def test_isomorphism(self):
        other = shuffled(UNION, 16)
        f = are_isomorphic(UNION, other)
        assert f is not None
        for x in range(1, UNION.n + 1):
            for y in range(1, UNION.n + 1):
                assert f(UNION.op(x, y)) == other.op(f(x), f(y))
        # affine (5, 3) has the translation type of (5, 2) but is another quandle
        swapped = shuffled(
            disjoint_union(affine_quandle(3, 2), affine_quandle(5, 3), affine_quandle(7, 3)),
            17,
        )
        assert profile(swapped) == profile(UNION)
        assert are_isomorphic(UNION, swapped) is None
        assert are_isomorphic(swapped, UNION) is None

    def test_inventory_matches_reference(self):
        assert enumerate_subquandles(UNION) == reference_inventory(UNION)

    @pytest.mark.parametrize(
        "make, walks",
        [
            (lambda: shq_family(5, 3), 1),
            (lambda: UNION, 3),
            (lambda: trivial_quandle(6), 1),
            (lambda: TRIVIAL_AND_D3, 2),
        ],
        ids=["family(5,3)", "union", "trivial6", "trivial3+dihedral3"],
    )
    def test_profile_walks_one_column_per_orbit(self, make, walks, monkeypatch):
        q = make()
        calls = []
        walk = structure._cycles

        def counted(img):
            calls.append(1)
            return walk(img)

        monkeypatch.setattr(structure, "_cycles", counted)
        profile(q)
        assert len(calls) == walks

    @pytest.mark.parametrize(
        "q", [trivial_quandle(6), UNION, TRIVIAL_AND_D3], ids=["trivial6", "union", "trivial3+dihedral3"]
    )
    def test_shared_walks_type_every_column(self, q):
        """Orbits with equal columns share a walk; each column keeps its own type."""
        want = [tuple(sorted(map(len, core._cycles(q.array[:, x].tolist())))) for x in range(q.n)]
        assert structure._cycle_lengths(q) == want


class TestClosure:
    def test_singleton_closed(self, q94):
        assert subquandle_closure(q94, {5}) == frozenset({5})

    def test_golden_pair(self, q94):
        assert subquandle_closure(q94, {1, 2}) == frozenset({1, 2, 3})
        assert subquandle_closure(q94, {1, 4}) == frozenset(range(1, 10))

    def test_matches_naive_fixpoint(self, q94):
        for seed in [{1, 2}, {4, 6}, {2, 5}, {1, 2, 4}]:
            s = set(seed)
            while True:
                nxt = s | {q94.op(a, b) for a in s for b in s}
                if nxt == s:
                    break
                s = nxt
            assert subquandle_closure(q94, seed) == frozenset(s)

    def test_errors(self, q94):
        with pytest.raises(ParamOutOfRange):
            subquandle_closure(q94, ())
        with pytest.raises(IndexOutOfRange):
            subquandle_closure(q94, {0})
        with pytest.raises(IndexOutOfRange):
            subquandle_closure(q94, {1, 10})


class TestSubtable:
    def test_whole_set_is_same_table(self, q94):
        assert subtable(q94, range(1, 10)) == q94

    def test_golden_triple_is_dihedral(self, q94):
        sub = subtable(q94, {1, 2, 3})
        assert are_isomorphic(sub, dihedral_quandle(3)) is not None

    def test_relabels_by_rank(self, q94):
        sub = subtable(q94, {4, 6, 8})
        assert sub.n == 3
        back = {1: 4, 2: 6, 3: 8}
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                assert back[sub.op(a, b)] == q94.op(back[a], back[b])

    def test_unclosed_set_rejected(self, q94):
        with pytest.raises(InvalidQuandleError):
            subtable(q94, {1, 2})

    def test_out_of_range(self, q94):
        with pytest.raises(IndexOutOfRange):
            subtable(q94, {1, 42})


def brute_force_closed_subsets(q: QuandleTable) -> set[frozenset[int]]:
    """All non-empty closed subsets by testing every subset directly."""
    out = set()
    elems = range(1, q.n + 1)
    for r in range(1, q.n + 1):
        for combo in combinations(elems, r):
            s = set(combo)
            if all(q.op(a, b) in s for a in s for b in s):
                out.add(frozenset(s))
    return out


class TestEnumerateSubquandles:
    def test_trivial_has_every_subset(self):
        inv = enumerate_subquandles(trivial_quandle(3))
        assert len(inv.entries) == 7
        assert {e.elements for e in inv.entries} == {
            (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)
        }
        by_order = {}
        for e in inv.entries:
            by_order.setdefault(e.order, []).append(e)
        # all subsets of equal size are isomorphic (trivial on each)
        for entries in by_order.values():
            assert len({e.iso_class for e in entries}) == 1

    def test_golden_inventory(self, q94):
        inv = enumerate_subquandles(q94)
        assert inv.parent_order == 9
        assert len(inv.entries) == 13
        found = {e.elements for e in inv.entries if e.order == 3}
        assert found == {(1, 2, 3), (4, 6, 8), (5, 7, 9)}
        assert inv.non_trivial_proper() == (9, 10, 11)
        triple = inv.entries[9]
        assert triple.profile.connected_form.lengths == (1, 2)
        # the three order-3 subquandles land in one isomorphism class
        assert len({inv.entries[i].iso_class for i in (9, 10, 11)}) == 1

    def test_golden_matches_brute_force(self, q94):
        inv = enumerate_subquandles(q94)
        assert {frozenset(e.elements) for e in inv.entries} == (
            brute_force_closed_subsets(q94)
        )

    def test_order_4_connected_has_only_trivial_subquandles(self):
        q = cyclic_type_quandle(2, 2)
        inv = enumerate_subquandles(q)
        assert {e.elements for e in inv.entries} == (
            {(1,), (2,), (3,), (4,), (1, 2, 3, 4)}
        )
        assert {frozenset(e.elements) for e in inv.entries} == (
            brute_force_closed_subsets(q)
        )

    def test_dihedral_6_matches_brute_force(self):
        q = dihedral_quandle(6)
        inv = enumerate_subquandles(q)
        assert {frozenset(e.elements) for e in inv.entries} == (
            brute_force_closed_subsets(q)
        )

    def test_entries_sorted_and_closed(self, q94):
        inv = enumerate_subquandles(q94)
        keys = [(e.order, e.elements) for e in inv.entries]
        assert keys == sorted(keys)
        for e in inv.entries:
            s = set(e.elements)
            assert all(q94.op(a, b) in s for a in s for b in s)

    def test_classes_partition_entries(self, q94):
        inv = enumerate_subquandles(q94)
        members = [i for ms in inv.classes().values() for i in ms]
        assert sorted(members) == list(range(len(inv.entries)))
        for rep, ms in inv.classes().items():
            assert all(inv.entries[i].iso_class == rep for i in ms)

    def test_explicit_cap(self, q94):
        with pytest.raises(SizeLimitExceeded):
            enumerate_subquandles(q94, max_order=5)

    def test_env_cap(self, q94, monkeypatch):
        monkeypatch.setenv("QUANDLEKIT_MAX_ORDER", "5")
        with pytest.raises(SizeLimitExceeded):
            enumerate_subquandles(q94)
        # explicit argument wins over the environment
        assert len(enumerate_subquandles(q94, max_order=9).entries) == 13


class TestEnumerationBackends:
    """The orbit-wise inventory against reference_inventory: every closed set
    from the breadth-first growth, each with its own subtable and profile."""

    @staticmethod
    def agree(q):
        assert enumerate_subquandles(q) == reference_inventory(q)

    def test_agree_on_fixture_bank(self, shq_fixtures):
        for name, q in shq_fixtures:
            if q.n <= 32:
                self.agree(q)

    def test_agree_on_disconnected(self):
        for q in (trivial_quandle(5), dihedral_quandle(6), dihedral_quandle(8)):
            self.agree(q)

    @pytest.mark.parametrize(
        "p, a, s", [(3, 3, 1), (2, 6, 2)], ids=["gf27-over-gf3", "gf64-over-gf4"]
    )
    def test_largest_stabilisers_match_reference(self, p, a, s):
        # a multiplier in a proper subfield gives each closed set a large
        # group <R_s : s in S>, so most growth candidates are pruned
        q = subfield_quandle(p, a, s)
        order = list(range(1, q.n + 1))
        random.Random(p * a).shuffle(order)
        self.agree(relabel(q, Permutation(order)))

    @pytest.mark.parametrize(
        "make",
        [lambda: trivial_quandle(6), lambda: dihedral_quandle(6), lambda: shq_family(3, 3),
         lambda: subfield_quandle(3, 3, 1)],
        ids=["trivial6", "dihedral6", "family(3,3)", "gf27-over-gf3"],
    )
    def test_invariants_once_per_orbit(self, make, monkeypatch):
        # one _orbit_minima call on the whole table (and one cycle walk per
        # orbit of labels) for each distinct subtable of an orbit's first
        # entry, shared by its profile and the isomorphism grouping, and at
        # most one more on two columns (_pair_key) when it is grouped;
        # _closed_orbits makes calls of its own
        q = make()
        want = reference_inventory(q)
        orbits, seen = [], []
        real_orbits, real_minima = structure._closed_orbits, structure._orbit_minima

        def closed_orbits(tbl):
            orbits.extend(real_orbits(tbl))
            seen.clear()
            return orbits

        def minima(moves):
            seen.append(moves.shape)
            return real_minima(moves)

        monkeypatch.setattr(structure, "_closed_orbits", closed_orbits)
        monkeypatch.setattr(structure, "_orbit_minima", minima)
        assert enumerate_subquandles(q) == want
        orders = {}  # each distinct subtable's order, by its bytes
        for orbit in orbits:
            idx = min(map(np.flatnonzero, orbit), key=list)
            orders[np.searchsorted(idx, q.array[np.ix_(idx, idx)]).tobytes()] = idx.size
        pairs = [shape for shape in seen if shape[0] > 2 and shape[1] == 2]
        assert sorted(shape for shape in seen if shape not in pairs) == sorted(
            (k, k) for k in orders.values()
        )
        assert len(pairs) <= sum(k > 2 for k in orders.values())


class TestTrivialBuckets:
    def test_only_identity_buckets_skip_the_comparison(self):
        # T1 + R3 and the order-4 quandle where two points swap the other two
        # share order 4 and profile [(1^4); (1^2, 2)] but are not isomorphic,
        # so their bucket is grouped by comparison; the trivial subquandles
        # of each order form one class without one
        swap = QuandleTable.from_rows([[1, 1, 1, 1], [2, 2, 2, 2], [4, 4, 3, 3], [3, 3, 4, 4]])
        q = disjoint_union(trivial_quandle(1), dihedral_quandle(3), swap)
        inv = enumerate_subquandles(q)
        assert inv == reference_inventory(q)
        entries = {e.elements: e for e in inv.entries}
        union, swapped = entries[(1, 2, 3, 4)], entries[(5, 6, 7, 8)]
        assert union.profile == swapped.profile and union.iso_class != swapped.iso_class


class TestDerivedTableOracles:
    @settings(max_examples=40, deadline=None)
    @given(relabelled(SMALL))
    def test_enumeration_matches_brute_force(self, q):
        inv = enumerate_subquandles(q)
        assert {frozenset(e.elements) for e in inv.entries} == (
            brute_force_closed_subsets(q)
        )

    @settings(max_examples=40, deadline=None)
    @given(relabelled(SMALL + SHQS) | st.integers(1, 6).map(trivial_quandle))
    def test_inventory_matches_reference(self, q):
        assert enumerate_subquandles(q) == reference_inventory(q)

    @settings(max_examples=40, deadline=None)
    @given(relabelled(SHQS), st.data())
    def test_derived_tables_validate(self, q, data):
        assert validate_quandle(canonical_relabel(q)[0].rows).ok
        seed = data.draw(st.sets(st.integers(1, q.n), min_size=1, max_size=3))
        closed = subquandle_closure(q, seed)
        assert validate_quandle(subtable(q, closed).rows).ok

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(SMALL + SHQS), st.data())
    def test_profile_and_shq_class_survive_relabelling(self, q, data):
        other = relabel(q, Permutation(data.draw(st.permutations(range(1, q.n + 1)))))
        assert profile(other) == profile(q)
        assert classify_shq(other) == classify_shq(q)

    @settings(max_examples=40, deadline=None)
    @given(relabelled(SHQS))
    def test_canonical_relabel_is_idempotent(self, q):
        canon, decomp = canonical_relabel(q)
        again, redo = canonical_relabel(canon)
        assert again == canon
        assert (redo.lengths, redo.relabeling) == (decomp.lengths, Permutation.identity(q.n))

    @settings(max_examples=60, deadline=None)
    @given(relabelled(SMALL), st.data())
    def test_unclosed_subtable_witness(self, q, data):
        elems = sorted(data.draw(st.sets(st.integers(1, q.n), min_size=1)))
        inside = set(elems)
        # the first product escaping the set, in row-major order of the subtable
        escape = next(
            (
                (i, j)
                for i, a in enumerate(elems, start=1)
                for j, b in enumerate(elems, start=1)
                if q.op(a, b) not in inside
            ),
            None,
        )
        if escape is None:
            assert subtable(q, elems).n == len(elems)
            return
        with pytest.raises(InvalidQuandleError) as exc:
            subtable(q, elems)
        assert exc.value.result == ValidationResult(False, "EntryOutOfRange", escape)


class TestAreIsomorphic:
    def test_identity_case(self, q94):
        f = are_isomorphic(q94, q94)
        assert f is not None

    def test_returned_map_is_homomorphism(self, q94):
        rng = random.Random(21)
        image = list(range(1, 10))
        rng.shuffle(image)
        other = relabel(q94, Permutation(image))
        f = are_isomorphic(q94, other)
        assert f is not None
        for x in range(1, 10):
            for y in range(1, 10):
                assert f(q94.op(x, y)) == other.op(f(x), f(y))

    def test_random_relabels_always_found(self, shq_fixtures):
        rng = random.Random(22)
        for name, q in shq_fixtures:
            if q.n > 27:
                continue
            image = list(range(1, q.n + 1))
            rng.shuffle(image)
            other = relabel(q, Permutation(image))
            assert are_isomorphic(q, other) is not None, name
            assert are_isomorphic(other, q) is not None, name

    def test_dihedral_is_affine(self):
        assert are_isomorphic(dihedral_quandle(3), affine_quandle(3, 2)) is not None

    def test_distinct_multipliers_same_profile_not_isomorphic(self):
        q2, q3 = affine_quandle(5, 2), affine_quandle(5, 3)
        assert profile(q2).connected_form == profile(q3).connected_form
        assert are_isomorphic(q2, q3) is None
        assert are_isomorphic(q3, q2) is None

    def test_different_order_or_structure(self, q94):
        assert are_isomorphic(q94, trivial_quandle(9)) is None
        assert are_isomorphic(q94, trivial_quandle(4)) is None
        assert are_isomorphic(dihedral_quandle(4), trivial_quandle(4)) is None


def conjugation_quandle(m: int, cycle_type: tuple[int, ...]) -> QuandleTable:
    """The permutations of range(m) with the given sorted cycle type, a
    conjugacy class of S_m, under x * y = y^-1 x y."""
    perms = [
        p for p in permutations(range(m))
        if tuple(sorted(map(len, core._cycles(p)))) == cycle_type
    ]
    index = {p: k for k, p in enumerate(perms)}
    rows = []
    for x in perms:
        row = []
        for y in perms:
            y_inv = sorted(range(m), key=y.__getitem__)
            row.append(index[tuple(y_inv[x[y[i]]] for i in range(m))] + 1)
        rows.append(row)
    return QuandleTable.from_rows(rows)


class TestGroupIsomorphic:
    def test_invariants_once_per_table(self, monkeypatch):
        # order 7: affine multipliers 3 and 5, and 6 (the dihedral quandle),
        # each plain and relabelled, in an order that makes every later table
        # meet a representative it is not isomorphic to first
        tables = [
            affine_quandle(7, 3), affine_quandle(7, 5), shuffled(affine_quandle(7, 5), 1),
            dihedral_quandle(7), shuffled(affine_quandle(7, 3), 2),
            shuffled(affine_quandle(7, 6), 3), shuffled(affine_quandle(7, 3), 4),
        ]
        want: dict[int, list[int]] = {}
        for i, q in enumerate(tables):
            rep = next((r for r in want if are_isomorphic(q, tables[r]) is not None), None)
            want.setdefault(i if rep is None else rep, []).append(i)
        assert want == {0: [0, 4, 6], 1: [1, 2], 3: [3, 5]}
        # the cycle types come from the caller, and no invariant is recomputed:
        # the only orbit minima taken are each key's, on two columns
        types = [structure._cycle_lengths(q) for q in tables]
        seen = []
        real = structure._orbit_minima

        def spy(moves):
            seen.append(moves.shape)
            return real(moves)

        monkeypatch.setattr(structure, "_orbit_minima", spy)
        assert structure._group_isomorphic(tables, types, range(len(tables))) == want
        assert seen == [(7, 2)] * len(tables)

    # connected tables, several of each order.  In the class of cycle type
    # (2, 3) in S_5, the shortest generating cycles of R_0 give three
    # different relabelled tables, so the key must be their least.
    # Aff(GF(9), -1) has no generating pair, and the last two are
    # disconnected
    KEYED = [
        affine_quandle(5, 2), affine_quandle(5, 3), affine_quandle(5, 4),
        affine_quandle(7, 3), affine_quandle(7, 5), dihedral_quandle(7),
        affine_quandle(9, 2), affine_quandle(9, 5), cyclic_type_quandle(3, 2),
        galois_affine_quandle(3, 2, 3), cyclic_type_quandle(2, 3), shq_family(3, 4),
        conjugation_quandle(5, (2, 3)), conjugation_quandle(5, (1, 1, 3)),
    ]
    UNKEYED = [galois_affine_quandle(3, 2, 2), trivial_quandle(5), dihedral_quandle(6)]

    @staticmethod
    def key(q):
        return structure._pair_key(q.array)

    @staticmethod
    def draw_relabelled(data, bank):
        q = data.draw(st.sampled_from(bank))
        return relabel(q, Permutation(data.draw(st.permutations(range(1, q.n + 1)))))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_keys_equal_exactly_for_isomorphic_tables(self, data):
        # the second table has the order of the first
        q1 = self.draw_relabelled(data, self.KEYED)
        q2 = self.draw_relabelled(data, [q for q in self.KEYED if q.n == q1.n])
        k1, k2 = self.key(q1), self.key(q2)
        assert k1 is not None and k2 is not None
        assert (k1 == k2) == (are_isomorphic(q1, q2) is not None)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_relabelling_keeps_the_key(self, data):
        q = data.draw(st.sampled_from(self.KEYED + self.UNKEYED))
        assert self.key(self.draw_relabelled(data, [q])) == self.key(q)

    def test_unkeyed_fixtures(self):
        assert [self.key(q) for q in self.UNKEYED] == [None] * 3
        assert is_connected(self.UNKEYED[0])

    def test_unkeyed_tables_meet_only_unkeyed_representatives(self, monkeypatch):
        # keyed and unkeyed tables of order 9, plain and relabelled
        tables = [
            galois_affine_quandle(3, 2, 2), affine_quandle(9, 2), shuffled(affine_quandle(9, 2), 5),
            trivial_quandle(9), shuffled(galois_affine_quandle(3, 2, 2), 6),
            shuffled(trivial_quandle(9), 7), affine_quandle(9, 5),
        ]
        want: dict[int, list[int]] = {}
        for i, q in enumerate(tables):
            rep = next((r for r in want if are_isomorphic(q, tables[r]) is not None), None)
            want.setdefault(i if rep is None else rep, []).append(i)
        assert want == {0: [0, 4], 1: [1, 2], 3: [3, 5], 6: [6]}
        calls = []
        real = structure._isomorphism

        def spy(q1, inv1, q2, inv2):
            calls.append(tuple(next(i for i, t in enumerate(tables) if t is q) for q in (q1, q2)))
            return real(q1, inv1, q2, inv2)

        monkeypatch.setattr(structure, "_isomorphism", spy)
        types = [structure._cycle_lengths(q) for q in tables]
        assert structure._group_isomorphic(tables, types, range(len(tables))) == want
        assert calls == [(3, 0), (4, 0), (5, 0), (5, 3)]


class TestTranslationConjugation:
    def test_inner_automorphisms_move_fixed_sets(self, q94):
        # R_g is an automorphism, so Fix(R_{g(i)}) = R_g(Fix(R_i))
        for g in range(1, 10):
            rg = right_translation(q94, g)
            for i in range(1, 10):
                lhs = set(right_translation(q94, rg(i)).fixed_points())
                rhs = {rg(x) for x in right_translation(q94, i).fixed_points()}
                assert lhs == rhs

    def test_holds_across_fixture_bank(self, shq_fixtures):
        rng = random.Random(23)
        for name, q in shq_fixtures:
            for _ in range(5):
                g = rng.randrange(1, q.n + 1)
                i = rng.randrange(1, q.n + 1)
                rg = right_translation(q, g)
                lhs = set(right_translation(q, rg(i)).fixed_points())
                rhs = {rg(x) for x in right_translation(q, i).fixed_points()}
                assert lhs == rhs, name


class TestClosedOrbits:
    @pytest.mark.parametrize(
        "make, sets, orbit_count",
        [
            (lambda: shq_family(3, 4), 40, 4),
            (lambda: shq_family(5, 3), 31, 3),
            (lambda: galois_affine_quandle(3, 4, 2), 2452, 212),
            (lambda: dihedral_quandle(16), 31, 9),
            (lambda: dihedral_quandle(24), 60, 14),
            (lambda: shq_family(7, 4), 400, 4),
            (lambda: subfield_quandle(2, 6, 2), 485, 44),
        ],
        ids=[
            "family(3,4)", "family(5,3)", "galois(3,4,2)", "dihedral16", "dihedral24",
            "family(7,4)", "gf64-over-gf4",
        ],
    )
    def test_pinned_counts(self, make, sets, orbit_count):
        found = structure._closed_orbits(make().array)
        assert (sum(map(len, found)), len(found)) == (sets, orbit_count)

    @pytest.mark.parametrize(
        "make, candidates",
        [
            (lambda: shq_family(7, 4), 6),
            (lambda: shq_family(3, 4), 6),
            (lambda: galois_affine_quandle(3, 4, 2), 1120),
        ],
        ids=["family(7,4)", "family(3,4)", "galois(3,4,2)"],
    )
    def test_growth_closures(self, make, candidates, monkeypatch):
        # each orbit's first member S is grown once per orbit of
        # <R_s : s in S> outside S, as one candidate (S, e) of its generation,
        # and no closure pass runs
        calls = grown_calls(make(), monkeypatch)
        assert sum(len(closures) for _, _, closures, _ in calls) == candidates

    @pytest.mark.parametrize(
        "q",
        [
            *SMALL, *SHQS, UNION, TRIVIAL_AND_D3, subfield_quandle(2, 4, 2),
            subfield_quandle(2, 6, 2), galois_affine_quandle(3, 4, 2),
        ],
        ids=lambda q: f"order{q.n}",
    )
    def test_merged_closures_match_close_mask(self, q, monkeypatch):
        # named for the all-pairs kernel the library once ran, which lives
        # on as the oracle reference_closure
        check_merged_growth(q, monkeypatch)

    @settings(max_examples=25, deadline=None)
    @given(q=relabelled([*SMALL, TRIVIAL_AND_D3]))
    def test_merged_closures_match_close_mask_relabelled(self, q):
        with pytest.MonkeyPatch.context() as monkeypatch:
            check_merged_growth(q, monkeypatch)


def grown_calls(q: QuandleTable, monkeypatch) -> list[tuple]:
    """(seeds, lows, closures, merged) of each _grown call that
    _closed_orbits(q.array) makes."""
    calls = []
    grown = structure._grown

    def recorded(tbl, seeds, lows):
        closures, merged = grown(tbl, seeds, lows)
        calls.append((seeds, lows, closures, merged))
        return closures, merged

    monkeypatch.setattr(structure, "_grown", recorded)
    structure._closed_orbits(q.array)
    return calls


def check_merged_growth(q: QuandleTable, monkeypatch) -> None:
    """Every merged closure of a growth candidate (S, e) is the closure of
    S + e by the all-pairs fixpoint, and every merged partition is the orbit
    partition of the closure's columns."""
    tbl, n = q.array, q.n
    calls = grown_calls(q, monkeypatch)
    assert calls
    for seeds, lows, closures, merged in calls:
        which, labels = np.nonzero((lows == np.arange(n)) & ~seeds)
        assert len(closures) == len(merged) == len(which)
        for k, e, closure, low in zip(which, labels, closures, merged):
            mask = seeds[k].copy()
            mask[e] = True
            assert np.array_equal(closure, reference_closure(tbl, mask))
            assert np.array_equal(low, core._orbit_minima(tbl[:, closure]))


class TestLargeOrderEnumeration:
    def test_order_81_prefix_counts(self):
        # prefixes of the tower are exactly the non-trivial proper classes
        q = shq_family(3, 5)
        assert q.n == 81
        inv = enumerate_subquandles(q)
        orders = sorted(e.order for e in inv.entries)
        assert orders.count(1) == 81
        assert orders.count(81) == 1
        proper = [inv.entries[i].order for i in inv.non_trivial_proper()]
        assert sorted(set(proper)) == [3, 9, 27]
