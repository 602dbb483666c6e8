"""Canonical-form search, its statistics, and the naive reference search."""

import json
from math import gcd
from pathlib import Path

import numpy as np
import pytest

from quandlekit import (
    ParamOutOfRange,
    QuandleTable,
    RepeatedLengthsUnsupported,
    SearchSpec,
    SizeLimitExceeded,
    affine_quandle,
    are_isomorphic,
    classify_shq,
    format_qdl,
    is_connected,
    naive_connected_quandles,
    profile,
    prune_report,
    save_search_result,
    search_by_profile,
    validate_quandle,
)
from quandlekit import core, search
from quandlekit.limits import DEFAULT_SEARCH_CAP
from quandlekit.search import _candidate_count, _Searcher
from conftest import ACCEPTED_PROFILES, dihedral_quandle
from test_table_oracles import cycle_candidates, prepared

# (per_generator_nodes, per_generator_unary, nodes_expanded) of the node-wise
# search, for the 24 profiles the per-block candidate limit accepted
NODE_STATS = {
    (1, 2): ([3], [1], 1),
    (1, 3): ([4], [1], 1),
    (1, 4): ([8], [2], 2),
    (1, 2, 3): ([4, 1], [1, 0], 1),
    (1, 5): ([9], [0], 0),
    (1, 2, 4): ([4, 1], [1, 0], 1),
    (1, 6): ([16], [2], 2),
    (1, 2, 5): ([4, 1], [1, 0], 1),
    (1, 3, 4): ([5, 1], [1, 0], 1),
    (1, 7): ([26], [2], 2),
    (1, 2, 6): ([6, 15], [3, 6], 9),
    (1, 3, 5): ([5, 1], [1, 0], 1),
    (1, 8): ([45], [2], 2),
    (1, 2, 3, 4): ([5, 1, 0], [1, 0, 0], 1),
    (1, 2, 7): ([4, 1], [1, 0], 1),
    (1, 3, 6): ([10, 4], [4, 0], 4),
    (1, 4, 5): ([10, 2], [2, 0], 2),
    (1, 9): ([67], [0], 0),
    (1, 2, 3, 5): ([5, 1, 0], [1, 0, 0], 1),
    (1, 2, 8): ([4, 1], [1, 0], 1),
    (1, 3, 7): ([5, 1], [1, 0], 1),
    (1, 4, 6): ([10, 2], [2, 0], 2),
    (1, 10): ([126], [4], 4),
    (1, 2, 4, 5): ([5, 1, 0], [1, 0, 0], 1),
}

# (per_generator_nodes, per_generator_unary) past order 12, where the work
# of generators' propagation shows
SETTLED_STATS = {
    (1, 16): ([3060], [8]),
    (1, 3, 12): ([12, 4], [4, 0]),
    (1, 4, 20): ([38, 390], [10, 40]),
    (1, 2, 6, 18): ([15, 99, 414], [9, 54, 144]),
}


class TestSearchSpec:
    def test_order(self):
        assert SearchSpec((1, 2, 6)).order == 9

    def test_rejects_bad_lengths(self):
        with pytest.raises(ParamOutOfRange):
            SearchSpec((1,))
        with pytest.raises(ParamOutOfRange):
            SearchSpec((2, 4))
        with pytest.raises(ParamOutOfRange):
            SearchSpec((1, 6, 2))
        with pytest.raises(RepeatedLengthsUnsupported):
            SearchSpec((1, 2, 2))

    @pytest.mark.parametrize(
        "lengths", [(1.9, 2), (1, 2.7), (1, 2.0), (True, 2), (1, False), (1, "2")]
    )
    def test_rejects_non_integer_lengths(self, lengths):
        # int() would have turned (1.9, 2) and (1, 2.7) into the profile (1, 2)
        with pytest.raises(ParamOutOfRange, match="integers"):
            SearchSpec(lengths)

    def test_numpy_integer_lengths_become_ints(self):
        spec = SearchSpec((np.int64(1), np.int8(2)))
        assert spec.lengths == (1, 2)
        assert all(type(x) is int for x in spec.lengths)


class TestCandidateCount:
    def test_closed_form_matches_enumeration(self):
        for n, lengths in [(9, (1, 2, 6)), (5, (1, 4)), (4, (1, 3)), (7, (1, 2, 4))]:
            assert _candidate_count(n, lengths) == len(
                cycle_candidates(n, lengths, n - 1)
            )

    def test_candidates_have_required_shape(self):
        for img in cycle_candidates(5, (1, 4), 2):
            assert img[2] == 2
            assert sum(1 for i, v in enumerate(img) if i == v) == 1

    def test_accepted_profiles_are_pinned(self, monkeypatch):
        # No profile within the default search cap is refused when the
        # searcher is built, before any generator is looked for: the work
        # bound decides, as the search goes.  The 24 profiles the per-block
        # candidate limit let through each use under 1% of it.
        def tails(budget, lo):
            for x in range(lo, budget + 1):
                yield (x,)
                for rest in tails(budget - x, x + 1):
                    yield (x, *rest)

        def no_candidates(*args):
            raise AssertionError(f"generators looked for at {args}")

        profiles = sorted(
            ((1, *rest) for rest in tails(DEFAULT_SEARCH_CAP - 1, 2)),
            key=lambda lengths: (sum(lengths), lengths),
        )
        with monkeypatch.context() as m:
            m.setattr(_Searcher, "generators", no_candidates)
            for lengths in profiles:
                _Searcher(lengths)
        assert len(profiles) == 1277
        for lengths in ACCEPTED_PROFILES:
            stats = prune_report(SearchSpec(lengths))
            assert sum(stats.per_generator_nodes) < search._WORK_BOUND // 100, lengths


class TestWorkBound:
    def test_profile_past_the_bound_refused(self, monkeypatch):
        # (1,10) needs 126 backtracking nodes, every run
        runs = [prune_report(SearchSpec((1, 10))).per_generator_nodes for _ in range(2)]
        assert runs == [(126,), (126,)]
        monkeypatch.setattr(search, "_WORK_BOUND", 126)
        assert len(search_by_profile(SearchSpec((1, 10))).quandles) == 4
        monkeypatch.setattr(search, "_WORK_BOUND", 125)
        with pytest.raises(SizeLimitExceeded, match="more than 125 backtracking nodes"):
            search_by_profile(SearchSpec((1, 10)))

    def test_nodes_count_over_the_whole_tree(self, monkeypatch):
        # (1,2,6) needs 6 nodes at the root and 15 over the 3 nodes below it
        assert prune_report(SearchSpec((1, 2, 6))).per_generator_nodes == (6, 15)
        monkeypatch.setattr(search, "_WORK_BOUND", 20)
        with pytest.raises(SizeLimitExceeded):
            search_by_profile(SearchSpec((1, 2, 6)))


class TestKnownProfiles:
    def test_smallest_profile_finds_dihedral_3(self):
        res = search_by_profile(SearchSpec((1, 2)))
        assert len(res.quandles) == 1
        assert res.iso_classes == ((0,),)
        assert are_isomorphic(res.quandles[0], dihedral_quandle(3)) is not None

    def test_1_3_finds_the_galois_quandle(self):
        from conftest import cyclic_type_quandle

        res = search_by_profile(SearchSpec((1, 3)))
        assert len(res.quandles) == 1
        assert are_isomorphic(res.quandles[0], cyclic_type_quandle(2, 2)) is not None

    def test_1_4_finds_both_affine_classes(self):
        res = search_by_profile(SearchSpec((1, 4)))
        assert len(res.quandles) == 2
        assert len(res.iso_classes) == 2
        for h in (2, 3):
            target = affine_quandle(5, h)
            hits = [
                i
                for i, q in enumerate(res.quandles)
                if are_isomorphic(q, target) is not None
            ]
            assert len(hits) == 1, h

    def test_1_10_finds_the_four_affine_classes(self):
        # (1,10) is the profile of shq_family(11, 2); the primitive roots
        # mod 11 are 2, 6, 7 and 8
        res = search_by_profile(SearchSpec((1, 10)))
        assert len(res.quandles) == 4
        assert res.iso_classes == ((0,), (1,), (2,), (3,))
        matches = [
            [h for h in (2, 6, 7, 8) if are_isomorphic(q, affine_quandle(11, h)) is not None]
            for q in res.quandles
        ]
        assert sorted(matches) == [[2], [6], [7], [8]]

    def test_1_5_is_empty(self):
        res = search_by_profile(SearchSpec((1, 5)))
        assert res.quandles == () and res.iso_classes == ()

    def test_golden_profile_counts(self):
        res = search_by_profile(SearchSpec((1, 2, 6)))
        assert len(res.quandles) == 6
        assert res.iso_classes == ((0, 1), (2, 3), (4, 5))

    def test_golden_table_listed_verbatim(self, q94):
        res = search_by_profile(SearchSpec((1, 2, 6)))
        assert q94 in res.quandles

    def test_results_validate_and_match_profile(self):
        # the search checks no axiom of its own: every hit of every accepted
        # profile is a connected quandle with the target profile
        for lengths in ACCEPTED_PROFILES:
            res = search_by_profile(SearchSpec(lengths), dedup=False)
            for q in res.quandles:
                assert validate_quandle(q.rows).ok, lengths
                assert is_connected(q), lengths
                assert profile(q).connected_form.lengths == lengths

    def test_every_column_has_the_profile_type(self):
        # the grouping takes each hit's column types from the profile: the
        # hits are connected, so every column is conjugate to R_1; each
        # column is also walked on its own here
        from quandlekit.structure import _cycle_lengths

        for lengths in ACCEPTED_PROFILES:
            for q in search_by_profile(SearchSpec(lengths), dedup=False).quandles:
                walked = [tuple(sorted(map(len, core._cycles(col)))) for col in q.array.T.tolist()]
                assert _cycle_lengths(q) == walked == [lengths] * q.n, lengths

    def test_hits_are_not_validated(self, monkeypatch):
        assert not hasattr(search, "validate_quandle")
        calls = []
        for module, name in ((core, "_validated"), (search, "validate_quandle")):
            monkeypatch.setattr(module, name, lambda *a: calls.append(a), raising=False)
        assert len(search_by_profile(SearchSpec((1, 2, 6))).quandles) == 6
        assert calls == []

    def test_results_are_canonical_shqs_when_applicable(self):
        from quandlekit import decomposition_of

        res = search_by_profile(SearchSpec((1, 2, 6)))
        for q in res.quandles:
            decomposition_of(q)  # canonical labeling, no raise
            assert classify_shq(q) is not None


class TestSettledProfiles:
    """Profiles the per-block candidate limit refused and the node-wise
    search settles."""

    def test_1_3_12_is_empty(self):
        res = search_by_profile(SearchSpec((1, 3, 12)))
        assert res.quandles == () and res.iso_classes == ()

    def test_1_2_3_6_forced_generators(self):
        # at the third block, some assigned u has R_u(n_i) assigned, which
        # forces the generator: 6 backtracking nodes there, not 78
        res = search_by_profile(SearchSpec((1, 2, 3, 6)))
        assert len(res.quandles) == 6 and len(res.iso_classes) == 1
        assert res.stats.per_generator_nodes == (19, 159, 6)

    @pytest.mark.parametrize(
        "lengths, hits, classes",
        [((1, 2, 3, 6), 6, 1), ((1, 3, 4, 12), 24, 2), ((1, 2, 7, 14), 28, 2)],
        ids=str,
    )
    def test_product_relation_hits_validate(self, lengths, hits, classes):
        # these profiles have tree nodes with assigned u, v whose v*u is the
        # block's n_i, where generators forces g = R_u R_v R_u^-1; the search
        # checks no relation after generators, so every hit is validated here
        res = search_by_profile(SearchSpec(lengths))
        assert (len(res.quandles), len(res.iso_classes)) == (hits, classes)
        for q in res.quandles:
            assert validate_quandle(q.rows).ok, lengths
            assert profile(q).connected_form.lengths == lengths

    @pytest.mark.parametrize("lengths", SETTLED_STATS, ids=str)
    def test_pinned_work(self, lengths):
        stats = prune_report(SearchSpec(lengths)).as_dict()
        work, unary = SETTLED_STATS[lengths]
        assert (stats["per_generator_nodes"], stats["per_generator_unary"]) == (work, unary)

    @staticmethod
    def class_of(res, q) -> int:
        """The index of the one class of res whose representative is
        isomorphic to q (by are_isomorphic)."""
        matches = [
            k for k, c in enumerate(res.iso_classes)
            if are_isomorphic(res.quandles[c[0]], q) is not None
        ]
        assert len(matches) == 1, matches
        return matches[0]

    def test_1_4_20_has_ten_classes(self):
        # eight are Aff(Z_25, h) for the primitive roots h mod 25, and two are
        # Aff(Z_5^2, lam (I + N)) with N = [[0, 1], [0, 0]] and lam = 2, 3
        res = search_by_profile(SearchSpec((1, 4, 20)))
        assert len(res.quandles) == 40
        assert len(res.iso_classes) == 10
        known = [affine_quandle(25, h) for h in (2, 3, 8, 12, 13, 17, 22, 23)]
        points = np.array([(a, b) for a in range(5) for b in range(5)])
        for lam in (2, 3):
            m = lam * np.array([[1, 1], [0, 1]])
            prod = (points @ m.T)[:, None] + (points @ (np.eye(2, dtype=int) - m).T)[None]
            rows = (prod[..., 0] % 5 * 5 + prod[..., 1] % 5 + 1).tolist()  # x * y, 1-based
            assert validate_quandle(rows).ok, lam
            known.append(QuandleTable.from_rows(rows))
        assert sorted(self.class_of(res, q) for q in known) == list(range(10))

    def test_1_2_6_18_hits(self):
        # the six Aff(Z_27, h), h a primitive root mod 27, are six of the 12
        # classes; the other six are not identified
        res = search_by_profile(SearchSpec((1, 2, 6, 18)))
        assert len(res.quandles) == 144
        assert len(res.iso_classes) == 12
        found = {self.class_of(res, affine_quandle(27, h)) for h in (2, 5, 11, 14, 20, 23)}
        assert len(found) == 6

    @pytest.mark.parametrize("m", range(2, 17))
    def test_two_lengths_match_vendramin(self, m):
        # A connected quandle of order n = m + 1 with profile (1, m) is affine
        # over GF(p^k) with a primitive multiplier, so there are phi(m) / k
        # classes when n = p^k and none otherwise (Vendramin, Doubly
        # transitive groups and cyclic quandles, J. Math. Soc. Japan 69, 2017).
        n = m + 1
        p = next(d for d in range(2, n + 1) if n % d == 0)
        k = 0
        while n % p == 0:
            n, k = n // p, k + 1
        phi = sum(1 for x in range(1, m + 1) if gcd(x, m) == 1)
        want = phi // k if n == 1 else 0
        res = search_by_profile(SearchSpec((1, m)))
        assert len(res.iso_classes) == want


class TestNodeRelations:
    # A hand-built node of (1,2,3,6) at its third block (labels 3..5, n_i = 5)
    # whose columns are not those of any quandle.  R_1(n_i) and R_2(n_i) are
    # past the block, so neither forces nor commutes g, and R_1(2) = n_i is
    # the only pair u, v < 3 with v*u = n_i: the product relation is the
    # one source of g.  The other relations alone admit 12 generators.
    R1 = [8, 1, 5, 0, 3, 6, 11, 9, 4, 7, 10, 2]
    R2 = [9, 6, 2, 8, 3, 7, 10, 5, 4, 1, 11, 0]

    def test_product_pair_alone_forces_the_generator(self):
        searcher = _Searcher((1, 2, 3, 6))
        table = np.zeros((12, 12), dtype=np.int8)
        table[:, 0] = core._canonical_r1((1, 2, 3, 6))
        table[:, 1], table[:, 2] = self.R1, self.R2
        n_i = 5
        assert all(table[n_i, u] >= 6 for u in (1, 2))
        pairs = [(u, v) for u in range(3) for v in range(3) if table[v, u] == n_i]
        assert pairs == [(1, 2)]
        inverse = np.argsort(self.R1)
        want = np.array(self.R1)[np.array(self.R2)[inverse]]  # g = R_1 R_2 R_1^-1
        assert want[n_i] == n_i
        assert searcher.generators(1, table).tolist() == [want.tolist()]


class TestStats:
    def test_golden_filter_funnel(self):
        stats = search_by_profile(SearchSpec((1, 2, 6))).stats
        assert stats.raw_space == 3360 * 3360
        assert stats.per_generator_raw == (3360, 3360)
        assert stats.per_generator_nodes == (6, 15)
        assert stats.per_generator_unary == (3, 6)
        assert stats.nodes_expanded == 9
        assert stats.conjugation_pass == 6
        assert stats.connected_pass == 6
        assert stats.elapsed > 0

    # (raw_space, per_generator_raw, per_generator_nodes, per_generator_unary,
    # nodes_expanded, hits) of the node-wise search
    @pytest.mark.parametrize(
        "lengths, pinned",
        [
            ((1, 2, 4), (8100, [90, 90], [4, 1], [1, 0], 1, 0)),
            ((1, 3, 6), (406425600, [20160, 20160], [10, 4], [4, 0], 4, 0)),
            ((1, 7), (720, [720], [26], [2], 2, 2)),
            ((1, 8), (5040, [5040], [45], [2], 2, 2)),
            ((1, 9), (40320, [40320], [67], [0], 0, 0)),
        ],
    )
    def test_pinned_filter_funnels(self, lengths, pinned):
        raw_space, raw, work, unary, nodes, hits = pinned
        assert search_by_profile(SearchSpec(lengths)).stats.as_dict() == {
            "raw_space": raw_space,
            "per_generator_raw": raw,
            "per_generator_nodes": work,
            "per_generator_unary": unary,
            "nodes_expanded": nodes,
            "conjugation": hits,
            "connectivity": hits,
        }

    # read from the search that unranked every candidate generator and
    # filtered it, whose per-level funnel the level-wise oracle still gives:
    # (per_generator_unary, nodes_expanded, conjugation, distributivity,
    # connectivity); distributivity was conjugation, and search/2 drops it.
    # The node-wise search finds the same hits with NODE_STATS.
    @pytest.mark.parametrize(
        "lengths, pinned",
        [
            ((1, 2), ([1], 1, 1, 1, 1)),
            ((1, 3), ([1], 1, 1, 1, 1)),
            ((1, 4), ([2], 2, 2, 2, 2)),
            ((1, 2, 3), ([1, 1], 2, 0, 0, 0)),
            ((1, 5), ([0], 0, 0, 0, 0)),
            ((1, 2, 4), ([1, 2], 3, 0, 0, 0)),
            ((1, 6), ([2], 2, 2, 2, 2)),
            ((1, 2, 5), ([1, 0], 1, 0, 0, 0)),
            ((1, 3, 4), ([1, 2], 3, 0, 0, 0)),
            ((1, 7), ([2], 2, 2, 2, 2)),
            ((1, 2, 6), ([3, 8], 27, 6, 6, 6)),
            ((1, 3, 5), ([1, 0], 1, 0, 0, 0)),
            ((1, 8), ([2], 2, 2, 2, 2)),
            ((1, 2, 3, 4), ([1, 1, 2], 2, 0, 0, 0)),
            ((1, 2, 7), ([1, 2], 3, 0, 0, 0)),
            ((1, 3, 6), ([4, 2], 12, 0, 0, 0)),
            ((1, 4, 5), ([2, 0], 2, 0, 0, 0)),
            ((1, 9), ([0], 0, 0, 0, 0)),
            ((1, 2, 3, 5), ([1, 1, 0], 2, 0, 0, 0)),
            ((1, 2, 8), ([1, 2], 3, 0, 0, 0)),
            ((1, 3, 7), ([1, 2], 3, 0, 0, 0)),
            ((1, 4, 6), ([2, 2], 6, 0, 0, 0)),
            ((1, 10), ([4], 4, 4, 4, 4)),
            ((1, 2, 4, 5), ([1, 2, 0], 3, 0, 0, 0)),
        ],
        ids=str,
    )
    def test_accepted_profiles_pinned_stats(self, lengths, pinned):
        unary, nodes, conj, dist, conn = pinned
        oracle = prepared(lengths)
        assert [len(blocks) for blocks in oracle.filtered] == unary
        assert oracle.run()[1] == nodes
        assert dist == conj
        work, node_unary, expanded = NODE_STATS[lengths]
        stats = search_by_profile(SearchSpec(lengths)).stats.as_dict()
        raw = _candidate_count(sum(lengths), lengths)
        assert stats == {
            "raw_space": raw ** (len(lengths) - 1),
            "per_generator_raw": [raw] * (len(lengths) - 1),
            "per_generator_nodes": work,
            "per_generator_unary": node_unary,
            "nodes_expanded": expanded,
            "conjugation": conj,
            "connectivity": conn,
        }

    def test_conjugation_implies_distributivity(self, monkeypatch):
        # every leaf that satisfies the conjugation closure validates, whether
        # or not it is kept as connected
        leaves = []

        def spy(q):
            leaves.append(q)
            return is_connected(q)

        monkeypatch.setattr(search, "is_connected", spy)
        for lengths in [(1, 2), (1, 3), (1, 4), (1, 5), (1, 2, 6), (1, 10)]:
            leaves.clear()
            stats = search_by_profile(SearchSpec(lengths), dedup=False).stats
            assert len(leaves) == stats.conjugation_pass
            for q in leaves:
                assert validate_quandle(q.rows).ok, lengths

    def test_as_dict_has_no_timing(self):
        d = search_by_profile(SearchSpec((1, 2))).stats.as_dict()
        assert "elapsed" not in d
        assert set(d) == {
            "raw_space",
            "per_generator_raw",
            "per_generator_nodes",
            "per_generator_unary",
            "nodes_expanded",
            "conjugation",
            "connectivity",
        }

    def test_prune_report_matches_search(self):
        a = prune_report(SearchSpec((1, 4)))
        b = search_by_profile(SearchSpec((1, 4))).stats
        assert a.as_dict() == b.as_dict()

    def test_prune_report_skips_grouping(self, monkeypatch):
        want = search_by_profile(SearchSpec((1, 2, 6))).stats.as_dict()

        def no_grouping(*args):
            raise AssertionError("prune_report grouped the hits")

        monkeypatch.setattr(search, "_group_isomorphic", no_grouping)
        assert prune_report(SearchSpec((1, 2, 6))).as_dict() == want


class TestDeterminismAndWorkers:
    def test_repeat_runs_identical(self):
        a = search_by_profile(SearchSpec((1, 2, 6)))
        b = search_by_profile(SearchSpec((1, 2, 6)))
        assert a.quandles == b.quandles
        assert a.iso_classes == b.iso_classes
        assert a.stats.as_dict() == b.stats.as_dict()

    def test_dedup_off_skips_grouping(self):
        res = search_by_profile(SearchSpec((1, 2, 6)), dedup=False)
        assert len(res.quandles) == 6
        assert res.iso_classes == ()


class TestCaps:
    def test_explicit_cap(self):
        with pytest.raises(SizeLimitExceeded):
            search_by_profile(SearchSpec((1, 2, 6)), max_order=8)

    def test_default_cap(self):
        with pytest.raises(SizeLimitExceeded):
            search_by_profile(SearchSpec((1, 40)))  # order 41 > default 32

    def test_env_cap(self, monkeypatch):
        monkeypatch.setenv("QUANDLEKIT_MAX_ORDER", "8")
        with pytest.raises(SizeLimitExceeded):
            search_by_profile(SearchSpec((1, 2, 6)))
        assert len(search_by_profile(SearchSpec((1, 2, 6)), max_order=9).quandles) == 6


class TestSaveSearchResult:
    def test_layout_and_manifest(self, tmp_path):
        res = search_by_profile(SearchSpec((1, 2, 6)))
        manifest = save_search_result(res, tmp_path / "out")
        files = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert files == ["manifest.json"] + [f"q{i:03d}.qdl" for i in range(6)]
        on_disk = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert on_disk == manifest
        assert manifest["schema"] == "quandlekit.search/2"
        assert manifest["profile"] == [1, 2, 6]
        assert manifest["order"] == 9
        assert manifest["count"] == 6
        assert manifest["iso_classes"] == [[0, 1], [2, 3], [4, 5]]
        assert manifest["stats"]["conjugation"] == 6

    def test_files_parse_back(self, tmp_path):
        from quandlekit import read_qdl

        res = search_by_profile(SearchSpec((1, 4)))
        save_search_result(res, tmp_path)
        for i, q in enumerate(res.quandles):
            loaded = read_qdl(tmp_path / f"q{i:03d}.qdl")
            assert loaded == q
        text = (tmp_path / "q000.qdl").read_text()
        assert text.startswith("# profile (1, 4)\n")

    def test_written_as_bytes(self, tmp_path, monkeypatch):
        # no file goes through text mode, whose b"\n" becomes b"\r\n" on
        # Windows: the bytes are those of format_qdl and json.dumps
        monkeypatch.setattr(Path, "write_text", None)
        res = search_by_profile(SearchSpec((1, 2, 6)))
        manifest = save_search_result(res, tmp_path)
        for i, q in enumerate(res.quandles):
            want = format_qdl(q, comments=("profile (1, 2, 6)",)).encode()
            assert (tmp_path / f"q{i:03d}.qdl").read_bytes() == want
        want = json.dumps(manifest, sort_keys=True, indent=2) + "\n"
        assert (tmp_path / "manifest.json").read_bytes() == want.encode()

    def test_bytes_stable_across_runs(self, tmp_path):
        save_search_result(search_by_profile(SearchSpec((1, 3))), tmp_path / "a")
        save_search_result(search_by_profile(SearchSpec((1, 3))), tmp_path / "b")
        for name in ("q000.qdl", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()


class TestNaiveReference:
    def test_frozen_counts(self):
        assert [len(naive_connected_quandles(n)) for n in range(1, 6)] == [
            1, 0, 1, 2, 18
        ]

    def test_tables_are_valid_connected(self):
        for n in range(1, 6):
            for q in naive_connected_quandles(n):
                assert validate_quandle(q.rows).ok
                assert is_connected(q)

    def test_order_3_is_dihedral(self):
        (q,) = naive_connected_quandles(3)
        assert are_isomorphic(q, dihedral_quandle(3)) is not None

    def test_golden_listed_at_order_9_would_be_too_slow(self):
        # the reference search is for tiny orders only; just check the guard
        with pytest.raises(ParamOutOfRange):
            naive_connected_quandles(0)

    def test_order_5_profile_split(self):
        profs = [
            profile(q).connected_form.lengths for q in naive_connected_quandles(5)
        ]
        assert profs.count((1, 4)) == 12
        assert profs.count((1, 2, 2)) == 6
