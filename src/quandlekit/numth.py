"""Small number-theory helpers: primality, factorization, element orders."""

from __future__ import annotations

from math import gcd, isqrt

from .errors import ParamOutOfRange, SizeLimitExceeded


def is_prime(n: int) -> bool:
    """Primality by prime_power, so within its trial-division bound."""
    return prime_power(n) == (n, 1)


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {prime: exponent} of n >= 1 by trial division."""
    if n < 1:
        raise ParamOutOfRange(f"cannot factorize {n}")
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


_TRIAL_BOUND = 1 << 20


def prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, a) with n = p**a if n is a prime power, else None.

    Trial division runs only by d < 2**20, so the time is bounded for any n.
    With a factor p found there, n is a prime power exactly when it is a
    power of p; with none, n < 2**40 is prime.  A larger n with no factor
    below 2**20 raises SizeLimitExceeded.
    """
    if n < 2:
        return None
    p = next((d for d in range(2, min(_TRIAL_BOUND, isqrt(n) + 1)) if n % d == 0), n)
    if p == n and n >= _TRIAL_BOUND**2:
        raise SizeLimitExceeded(
            f"{n} has no factor below {_TRIAL_BOUND}; cannot decide if it is a prime power"
        )
    a = 0
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
