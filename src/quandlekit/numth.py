"""Small number-theory helpers: primality, factorization, element orders."""

from __future__ import annotations

from math import gcd, isqrt

from .errors import ParamOutOfRange, SizeLimitExceeded


def is_prime(n: int) -> bool:
    """Primality by prime_power, so within its trial-division bound."""
    return prime_power(n) == (n, 1)


_TRIAL_BOUND = 1 << 20


def _least_factor(n: int, start: int = 2) -> int:
    """The least factor d >= start of n >= 2, which has none below start, by
    trial division by d < 2**20 only: with no factor there, n < 2**40 is
    prime, and a larger n raises SizeLimitExceeded, so the time is bounded."""
    if n % 2 == 0:
        return 2
    p = next((d for d in range(start | 1, min(_TRIAL_BOUND, isqrt(n) + 1), 2) if n % d == 0), n)
    if p == n and n >= _TRIAL_BOUND**2:
        raise SizeLimitExceeded(f"{n} has no factor below {_TRIAL_BOUND}; too large to decide")
    return p


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {prime: exponent} of n >= 1, by _least_factor."""
    if n < 1:
        raise ParamOutOfRange(f"cannot factorize {n}")
    out: dict[int, int] = {}
    p = 2
    while n > 1:
        p = _least_factor(n, p)
        while n % p == 0:
            n, out[p] = n // p, out.get(p, 0) + 1
    return out


def prime_power(n: int) -> tuple[int, int] | None:
    """(p, a) with n = p**a if n is a prime power, else None: n is one
    exactly when it is a power of its least factor p."""
    if n < 2:
        return None
    p, a = _least_factor(n), 0
    while n % p == 0:
        n, a = n // p, a + 1
    return (p, a) if n == 1 else None


def euler_phi(n: int) -> int:
    phi = 1
    for p, a in factorize(n).items():
        phi *= (p - 1) * p ** (a - 1)
    return phi


def multiplicative_order(x: int, m: int) -> int:
    """Order of x in the unit group of Z_m; requires gcd(x, m) = 1."""
    x %= m
    if m < 2 or gcd(x, m) != 1:
        raise ParamOutOfRange(f"{x} is not a unit modulo {m}")
    order = euler_phi(m)
    for p in factorize(order):
        while order % p == 0 and pow(x, order // p, m) == 1:
            order //= p
    return order
