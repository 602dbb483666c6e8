"""Number-theory helpers against brute-force oracles."""

import math
import random
import time

import pytest

from quandlekit.errors import ParamOutOfRange, SizeLimitExceeded
from quandlekit.numth import euler_phi, factorize, is_prime, multiplicative_order, prime_power


def naive_is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, n))


def test_is_prime_matches_naive_scan():
    for n in range(0, 400):
        assert is_prime(n) == naive_is_prime(n), n


def test_factorize_recombines():
    for n in range(2, 500):
        f = factorize(n)
        prod = 1
        for p, e in f.items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n


def test_prime_power_detection():
    assert prime_power(9) == (3, 2)
    assert prime_power(8) == (2, 3)
    assert prime_power(7) == (7, 1)
    assert prime_power(1) is None
    assert prime_power(6) is None
    assert prime_power(12) is None
    for n in range(2, 300):
        got = prime_power(n)
        expect = None
        for p in range(2, n + 1):
            if naive_is_prime(p):
                a, m = 0, n
                while m % p == 0:
                    m //= p
                    a += 1
                if m == 1 and a >= 1:
                    expect = (p, a)
                    break
        assert got == expect, n


def factorized_prime_power(n: int):
    """prime_power by full factorization, the way it was computed before."""
    facs = factorize(n) if n >= 2 else {}
    return next(iter(facs.items())) if len(facs) == 1 else None


def test_prime_power_matches_factorization():
    for n in range(-2, 10**5):
        assert prime_power(n) == factorized_prime_power(n), n


@pytest.mark.parametrize(
    "n, want",
    [
        (999983**2, (999983, 2)),  # the largest prime below 2**20, squared
        (2**100, (2, 100)),
        (10**27, None),
        (2**40 - 87, (2**40 - 87, 1)),  # prime: no factor below 2**20 and n < 2**40
        ((2**20 - 3) * (2**20 + 7), None),  # one factor below the bound
    ],
)
def test_prime_power_large_inputs_stay_fast_and_exact(n, want):
    start = time.perf_counter()
    assert prime_power(n) == want
    assert time.perf_counter() - start < 1


def test_prime_power_refuses_a_large_prime_fast():
    # 10**18 + 3 is prime: full trial division would take about 90 s
    start = time.perf_counter()
    with pytest.raises(SizeLimitExceeded, match="no factor below"):
        prime_power(10**18 + 3)
    assert time.perf_counter() - start < 1


def test_euler_phi_matches_gcd_count():
    for n in range(1, 200):
        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_multiplicative_order_matches_brute_force():
    rng = random.Random(2024)
    for _ in range(200):
        m = rng.randrange(2, 200)
        x = rng.randrange(1, m)
        if math.gcd(x, m) != 1:
            with pytest.raises(ParamOutOfRange):
                multiplicative_order(x, m)
            continue
        k, acc = 1, x % m
        while acc != 1:
            acc = acc * x % m
            k += 1
        assert multiplicative_order(x, m) == k


def test_multiplicative_order_rejects_non_units():
    with pytest.raises(ParamOutOfRange):
        multiplicative_order(2, 4)


def unbounded_factorize(n: int) -> dict[int, int]:
    """factorize as it was before its trial-division bound: every d <= sqrt(n)."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_factorize_matches_unbounded_trial_division():
    for n in range(1, 10**5):
        assert factorize(n) == unbounded_factorize(n), n


@pytest.mark.parametrize(
    "n, want",
    [
        (999983**2, {999983: 2}),
        (2**40 - 87, {2**40 - 87: 1}),  # prime: no factor below 2**20 and n < 2**40
        ((2**20 - 3) * (2**20 + 7), {2**20 - 3: 1, 2**20 + 7: 1}),
        (3 * (2**40 - 87), {3: 1, 2**40 - 87: 1}),
    ],
)
def test_factorize_large_inputs_stay_fast_and_exact(n, want):
    start = time.perf_counter()
    assert factorize(n) == want
    assert time.perf_counter() - start < 1


def test_multiplicative_order_refuses_a_large_prime_modulus_fast():
    # 10**18 + 3 is prime: euler_phi would trial-divide it for minutes
    start = time.perf_counter()
    with pytest.raises(SizeLimitExceeded, match="no factor below"):
        multiplicative_order(2, 10**18 + 3)
    assert time.perf_counter() - start < 1
