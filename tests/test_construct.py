"""Affine constructions over Z_m and GF(p^a), and the family embeddings."""

import numpy as np
import pytest

from quandlekit import construct
from quandlekit import (
    DegenerateMultiplier,
    GaloisField,
    MultiplierNotInvertible,
    NotOddPrime,
    ParamOutOfRange,
    SizeLimitExceeded,
    affine_quandle,
    classify_shq,
    family_embedding,
    galois_affine_quandle,
    naive_connected_quandles,
    primitive_root,
    profile,
    shq_family,
    shq_lengths,
    ShqParams,
)
from conftest import dihedral_quandle, trivial_quandle


def order_mod(x: int, m: int) -> int:
    """Multiplicative order by raw iteration."""
    k, acc = 1, x % m
    while acc != 1:
        acc = acc * x % m
        k += 1
    return k


class TestPrimitiveRoot:
    def test_frozen_small_primes(self):
        r = primitive_root(3)
        assert (r.g, r.h, r.lifted) == (2, 2, False)
        r = primitive_root(7)
        assert (r.g, r.h, r.lifted) == (3, 3, False)

    def test_matches_brute_force(self):
        for p in (3, 5, 7, 11, 13, 17, 19, 23):
            r = primitive_root(p)
            smallest = next(
                g for g in range(2, p) if order_mod(g, p) == p - 1
            )
            assert r.g == smallest
            assert r.h in (r.g, r.g + p)
            assert r.lifted == (r.h != r.g)
            # h must generate the units modulo p^2 (hence every power)
            assert order_mod(r.h, p * p) == p * (p - 1)

    def test_rejects_non_odd_primes(self):
        for p in (1, 2, 4, 9, 15):
            with pytest.raises(NotOddPrime):
                primitive_root(p)


class TestAffineQuandle:
    def test_multiplier_one_is_trivial(self):
        assert affine_quandle(5, 1) == trivial_quandle(5)

    def test_multiplier_minus_one_is_dihedral(self):
        assert affine_quandle(5, 4) == dihedral_quandle(5)
        assert affine_quandle(7, 6) == dihedral_quandle(7)

    def test_entry_formula(self):
        q = affine_quandle(9, 2)
        for a in range(9):
            for b in range(9):
                assert q.op(a + 1, b + 1) == (2 * a - b) % 9 + 1

    def test_multiplier_reduced_mod_m(self):
        assert affine_quandle(5, 7) == affine_quandle(5, 2)

    def test_non_unit_rejected(self):
        with pytest.raises(MultiplierNotInvertible):
            affine_quandle(4, 2)
        with pytest.raises(MultiplierNotInvertible):
            affine_quandle(9, 3)

    def test_bad_modulus(self):
        with pytest.raises(ParamOutOfRange):
            affine_quandle(0, 1)

    def test_caps(self, monkeypatch):
        with pytest.raises(SizeLimitExceeded):
            affine_quandle(100, 3, max_order=50)
        with pytest.raises(SizeLimitExceeded):
            affine_quandle(2049, 2)
        # construction caps ignore the environment knob; only the explicit
        # argument changes them
        monkeypatch.setenv("QUANDLEKIT_MAX_ORDER", "5")
        assert affine_quandle(9, 2).n == 9


class TestShqFamily:
    def test_smallest_member(self):
        q = shq_family(3, 2)
        assert q == affine_quandle(3, 2)
        assert classify_shq(q) == ShqParams(2, 2, 3, 1)

    def test_golden_member_is_affine_9_2(self):
        assert shq_family(3, 3) == affine_quandle(9, 2)

    def test_orders_and_profiles(self):
        for p, c in [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2)]:
            q = shq_family(p, c)
            assert q.n == p ** (c - 1)
            assert profile(q).connected_form.lengths == shq_lengths(p - 1, c)

    def test_rejects_bad_parameters(self):
        with pytest.raises(NotOddPrime):
            shq_family(2, 3)
        with pytest.raises(NotOddPrime):
            shq_family(9, 2)
        with pytest.raises(ParamOutOfRange):
            shq_family(3, 1)

    def test_cap_applies_to_final_order(self):
        with pytest.raises(SizeLimitExceeded):
            shq_family(3, 5, max_order=80)  # order 81
        assert shq_family(3, 5, max_order=81).n == 81


class TestGaloisField:
    def test_frozen_moduli(self):
        assert GaloisField(2, 2).modulus == (1, 1, 1)  # x^2 + x + 1
        assert GaloisField(2, 3).modulus == (1, 1, 0, 1)  # x^3 + x + 1
        assert GaloisField(3, 2).modulus == (1, 0, 1)  # x^2 + 1
        assert GaloisField(5, 1).modulus == (0, 1)

    def test_encode_element_round_trip(self):
        f = GaloisField(3, 2)
        for k in range(9):
            assert f.encode(f.element(k)) == k
        with pytest.raises(ParamOutOfRange):
            f.element(9)

    @pytest.mark.parametrize("p,a", [(2, 2), (2, 3), (3, 2), (2, 4)])
    def test_field_axioms_exhaustive(self, p, a):
        f = GaloisField(p, a)
        xs = f.elements()
        for x in xs:
            assert f.add(x, f.zero) == x
            assert f.mul(x, f.one) == x
            assert f.mul(x, f.zero) == f.zero
            assert f.add(x, f.sub(f.zero, x)) == f.zero
            assert f.pow(x, f.order) == x  # Frobenius fixed field
            if x != f.zero:
                assert f.mul(x, f.inv(x)) == f.one
        for x in xs:
            for y in xs:
                assert f.add(x, y) == f.add(y, x)
                assert f.mul(x, y) == f.mul(y, x)
                for z in xs:
                    assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))
                    assert f.mul(f.mul(x, y), z) == f.mul(x, f.mul(y, z))

    def test_multiplicative_generator(self):
        for p, a in [(2, 2), (2, 3), (3, 2), (5, 1)]:
            f = GaloisField(p, a)
            g = f.multiplicative_generator()
            assert f.element_order(g) == f.order - 1
            # smallest encoding wins
            for k in range(1, f.encode(g)):
                assert f.element_order(f.element(k)) != f.order - 1

    def test_frozen_generators(self):
        assert GaloisField(2, 2).multiplicative_generator() == (0, 1)
        assert GaloisField(5, 1).multiplicative_generator() == (2,)

    def test_element_order_against_iteration(self):
        f = GaloisField(3, 2)
        for k in range(1, 9):
            x = f.element(k)
            acc, steps = x, 1
            while acc != f.one:
                acc = f.mul(acc, x)
                steps += 1
            assert f.element_order(x) == steps

    def test_errors(self):
        with pytest.raises(ParamOutOfRange):
            GaloisField(4, 2)
        with pytest.raises(ParamOutOfRange):
            GaloisField(2, 0)
        f = GaloisField(2, 2)
        with pytest.raises(ParamOutOfRange):
            f.inv(f.zero)
        with pytest.raises(ParamOutOfRange):
            f.element_order(f.zero)
        with pytest.raises(ParamOutOfRange):
            f.pow(f.one, -1)


class TestGaloisAffineQuandle:
    def test_two_cycle_profiles(self):
        for (p, a), want in [((2, 2), (1, 3)), ((2, 3), (1, 7)), ((3, 2), (1, 8))]:
            f = GaloisField(p, a)
            q = galois_affine_quandle(p, a, f.multiplicative_generator())
            assert q.n == p**a
            assert profile(q).connected_form.lengths == want
            assert classify_shq(q) == ShqParams(p**a - 1, 2, p, a)

    def test_multiplier_encoding_and_tuple_agree(self):
        assert galois_affine_quandle(2, 2, 2) == galois_affine_quandle(2, 2, (0, 1))

    def test_prime_field_matches_modular_affine(self):
        assert galois_affine_quandle(5, 1, 2) == affine_quandle(5, 2)
        assert galois_affine_quandle(7, 1, 3) == affine_quandle(7, 3)

    def test_non_generator_multiplier(self):
        # h = 2 in GF(9) has order 2, so every translation is an involution
        q = galois_affine_quandle(3, 2, 2)
        assert profile(q).connected_form.lengths == (1, 2, 2, 2, 2)
        assert classify_shq(q) is None

    def test_degenerate_multipliers(self):
        with pytest.raises(DegenerateMultiplier):
            galois_affine_quandle(2, 2, 0)
        with pytest.raises(DegenerateMultiplier):
            galois_affine_quandle(2, 2, 1)

    def test_cap(self):
        with pytest.raises(SizeLimitExceeded):
            galois_affine_quandle(2, 5, 2, max_order=16)

    def test_tuple_multiplier_reduced_before_degenerate_check(self):
        with pytest.raises(DegenerateMultiplier):
            galois_affine_quandle(3, 2, (0, 3))  # (0, 0) mod 3
        assert galois_affine_quandle(3, 2, (-1, 1)) == galois_affine_quandle(3, 2, (2, 1))

    @pytest.mark.parametrize("multiplier", [(2,), (1, 0, 0), (2.0, 1)])
    def test_tuple_multiplier_needs_a_integer_coefficients(self, multiplier):
        with pytest.raises(ParamOutOfRange):
            galois_affine_quandle(3, 2, multiplier)


class TestCapBeforeSetUp:
    """Oversized orders are refused before any primality test, field set-up
    or primitive root search, and without forming a huge p**a."""

    @pytest.fixture(autouse=True)
    def no_primality_tests(self, monkeypatch):
        def refuse(n):
            raise AssertionError(f"is_prime({n}) ran before the cap check")

        monkeypatch.setattr(construct, "is_prime", refuse)

    def test_galois(self):
        for p, a in [(2, 12), (2, 40), (1000000000000000003, 1), (3, 10**9)]:
            with pytest.raises(SizeLimitExceeded, match="exceeds construction cap 2048"):
                galois_affine_quandle(p, a, 2)

    def test_invalid_p_with_oversized_order(self):
        # the cap is read before primality, so p = 4 is refused for its size
        with pytest.raises(SizeLimitExceeded):
            galois_affine_quandle(4, 40, 2)
        with pytest.raises(SizeLimitExceeded):
            shq_family(9, 30)

    def test_shq_family(self):
        for p, c in [(3, 30000000), (1000000000000000003, 2), (3, 9)]:
            with pytest.raises(SizeLimitExceeded, match="exceeds construction cap"):
                shq_family(p, c)

    def test_cheap_checks_come_first(self):
        with pytest.raises(ParamOutOfRange, match="1 is not prime"):
            galois_affine_quandle(1, 40, 2)
        with pytest.raises(ParamOutOfRange, match="need a >= 1"):
            galois_affine_quandle(3, 0, 2)
        with pytest.raises(NotOddPrime):
            shq_family(2, 40)
        with pytest.raises(ParamOutOfRange, match="need c >= 2"):
            shq_family(3, 1)


class TestIntegerArguments:
    """Orders, exponents and moduli obey the integer rule of core._integers:
    a float or bool is ParamOutOfRange, not a TypeError deep in the build."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: affine_quandle(5.0, 2),
            lambda: affine_quandle(5, 2.0),
            lambda: shq_family(3.0, 3),
            lambda: shq_family(3, 3.0),
            lambda: shq_family(True, 3),
            lambda: galois_affine_quandle(3.0, 2, 3),
            lambda: galois_affine_quandle(3, 2.0, 3),
            lambda: family_embedding(3, 2.0),
            lambda: naive_connected_quandles(3.0),
            # the multiplier: an encoding or coefficients, each an integer
            lambda: galois_affine_quandle(2, 2, 2.0),
            lambda: galois_affine_quandle(2, 2, True),
            lambda: galois_affine_quandle(2, 2, "2"),
            lambda: galois_affine_quandle(2, 2, (1.0, 1)),
            lambda: galois_affine_quandle(2, 2, (True, 1)),
        ],
    )
    def test_refused(self, build):
        with pytest.raises(ParamOutOfRange, match="must be integers"):
            build()

    def test_numpy_integers_accepted(self):
        assert affine_quandle(np.int16(5), np.int64(2)) == affine_quandle(5, 2)
        assert shq_family(np.int64(3), np.int8(3)) == shq_family(3, 3)
        assert galois_affine_quandle(np.int64(2), np.uint8(2), 2) == (
            galois_affine_quandle(2, 2, 2)
        )
        assert naive_connected_quandles(np.int64(3)) == naive_connected_quandles(3)
        assert galois_affine_quandle(2, 2, np.int64(2)) == galois_affine_quandle(2, 2, 2)
        assert galois_affine_quandle(2, 2, (np.int64(1), 1)) == (
            galois_affine_quandle(2, 2, (1, 1))
        )
        report = family_embedding(np.int32(3), np.int64(2))
        assert report == family_embedding(3, 2)
        assert type(report.p) is int and type(report.c) is int


class TestFamilyEmbedding:
    @pytest.mark.parametrize("p,c", [(3, 2), (3, 3), (5, 2)])
    def test_members_embed(self, p, c):
        report = family_embedding(p, c)
        assert report.passed
        assert (report.p, report.c) == (p, c)
        assert [ch.name for ch in report.checks] == [
            "injective", "homomorphism", "image_closed", "induced_table"
        ]

    def test_cap_passes_through(self):
        with pytest.raises(SizeLimitExceeded):
            family_embedding(3, 4, max_order=50)  # the big member has order 81
