"""Constructions: affine tables over Z_m and GF(p^a), and the SHQ families.

The workhorse is the affine rule a * b = h*a - (h-1)*b.  Over Z_(p^(c-1))
with h a primitive root modulo every power of the odd prime p, this yields
an SHQ with profile (1, (p-1)p^0, ..., (p-1)p^(c-2)); over GF(p^a) with h a
multiplicative generator it yields the two-cycle (cyclic type) SHQs with
profile (1, p^a - 1).  Members of the Z-family embed in the next one via
z -> p*z.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from math import gcd
from typing import TYPE_CHECKING

import numpy as np

from .core import QuandleTable, _integers
from .errors import (
    DegenerateMultiplier,
    MultiplierNotInvertible,
    NotOddPrime,
    ParamOutOfRange,
    SizeLimitExceeded,
)
from .limits import DEFAULT_TABLE_CAP, resolve_cap
from .numth import factorize, is_prime, multiplicative_order

if TYPE_CHECKING:  # imported by family_embedding, so that construct loads no shq
    from .shq import CheckOutcome


@dataclass(frozen=True)
class PrimitiveRootResult:
    """Smallest primitive root g mod p, and h in {g, g+p} that generates the
    units modulo p^2 and therefore modulo every power of p."""

    p: int
    g: int
    h: int
    lifted: bool  # True when h = g + p


def primitive_root(p: int) -> PrimitiveRootResult:
    """Find g and its lift h for an odd prime p."""
    if p < 3 or not is_prime(p):
        raise NotOddPrime(f"{p} is not an odd prime")
    g = None
    for cand in range(2, p):
        if multiplicative_order(cand, p) == p - 1:
            g = cand
            break
    if g is None:  # every odd prime has one; guards the order routine
        raise ParamOutOfRange(f"no primitive root found modulo {p}")
    if multiplicative_order(g, p * p) == p * (p - 1):
        return PrimitiveRootResult(p, g, g, False)
    h = g + p
    if multiplicative_order(h, p * p) != p * (p - 1):
        raise ParamOutOfRange(f"lift {h} is not primitive modulo {p * p}")
    return PrimitiveRootResult(p, g, h, True)


def _capped_order(p: int, a: int, max_order: int | None) -> int:
    """The order p**a, refused above the construction cap before any
    primality test or field set-up.  With p >= 2, an exponent above the
    cap's bit length is refused without forming p**a."""
    if p < 2:
        raise ParamOutOfRange(f"{p} is not prime")
    if a < 1:
        raise ParamOutOfRange(f"need a >= 1, got {a}")
    cap = resolve_cap(max_order, DEFAULT_TABLE_CAP, env=False)
    if a > cap.bit_length():
        raise SizeLimitExceeded(f"order {p}^{a} exceeds construction cap {cap}")
    order = p**a
    if order > cap:
        raise SizeLimitExceeded(f"order {order} exceeds construction cap {cap}")
    return order


def _digit_sums(base: int, digits: int) -> np.ndarray:
    """S[u, v] for u, v < base**digits: u + v added digit by digit mod base."""
    x = np.arange(base**digits)
    sums = np.zeros((x.size, x.size), dtype=np.int32)
    for d in range(digits):
        place = base**d
        sums += np.add.outer(x // place % base, x // place % base) % base * place
    return sums


def _affine_table(hx: np.ndarray, ky: np.ndarray, base: int, digits: int) -> QuandleTable:
    """The table hx[x] + ky[y] of encodings sum(c_i * base^i), added digit
    by digit mod base: one digit mod m for Z_m, a digits mod p for the
    additive group of GF(p^a).  Z_m takes one int32 add and mod.  Two or
    more digits are split at cut = base^(digits // 2), and each half is
    read from a table of digit-wise sums, HI of the high halves (scaled by
    cut) and LO of the low ones, with sides base^ceil(digits/2) and
    base^floor(digits/2): two n x n gathers.

    hx and ky are x -> h*x and y -> (1-h)*y for a unit h, so the table is a
    quandle by construction and is wrapped unchecked: x*x = x, column y is
    x -> h*x + (1-h)*y, a bijection as h is a unit, and the rule is
    distributive, both sides of (x*y)*z = (x*z)*(y*z) being
    h^2 x + h(1-h) y + (1-h) z.
    """
    if digits == 1:
        table = np.add.outer(hx.astype(np.int32), ky.astype(np.int32))
        np.remainder(table, base, out=table)
    else:
        cut = base ** (digits // 2)
        table = (_digit_sums(base, digits - digits // 2) * cut)[np.ix_(hx // cut, ky // cut)]
        table += _digit_sums(base, digits // 2)[np.ix_(hx % cut, ky % cut)]
    return QuandleTable._from_array(table)


def affine_quandle(m: int, h: int, max_order: int | None = None) -> QuandleTable:
    """The table a * b = h*a - (h-1)*b on Z_m, labels shifted to 1..m.

    h must be a unit mod m; h = 1 gives the trivial quandle.  The table is
    a quandle by construction and is not validated again.
    """
    m, h = _integers((m, h), "m and h")
    if m < 1:
        raise ParamOutOfRange(f"modulus must be positive, got {m}")
    cap = resolve_cap(max_order, DEFAULT_TABLE_CAP, env=False)
    if m > cap:
        raise SizeLimitExceeded(f"order {m} exceeds construction cap {cap}")
    h %= m
    if gcd(h, m) != 1:
        raise MultiplierNotInvertible(f"{h} is not a unit modulo {m}")
    x = np.arange(m, dtype=np.int64)
    return _affine_table(h * x % m, (1 - h) * x % m, m, 1)


def shq_family(p: int, c: int, max_order: int | None = None) -> QuandleTable:
    """Member (p, c) of the affine family: order p^(c-1), profile
    (1, (p-1)p^0, ..., (p-1)p^(c-2))."""
    p, c = _integers((p, c), "p and c")
    if p < 3:
        raise NotOddPrime(f"{p} is not an odd prime")
    if c < 2:
        raise ParamOutOfRange(f"need c >= 2, got {c}")
    m = _capped_order(p, c - 1, max_order)
    return affine_quandle(m, primitive_root(p).h, max_order)


def _digits(k: int, p: int, count: int) -> tuple[int, ...]:
    """The low-to-high base-p digits of k, count of them."""
    return tuple(k // p**i % p for i in range(count))


class GaloisField:
    """GF(p^a) with elements as low-to-high coefficient tuples modulo the
    first irreducible monic polynomial in integer-encoding order."""

    def __init__(self, p: int, a: int):
        if not is_prime(p):
            raise ParamOutOfRange(f"{p} is not prime")
        if a < 1:
            raise ParamOutOfRange(f"need a >= 1, got {a}")
        self.p = p
        self.a = a
        self.order = p**a
        self.modulus = self._find_modulus()

    # -- encoding -------------------------------------------------------
    def element(self, k: int) -> tuple[int, ...]:
        """Element with integer encoding k = sum(c_i * p^i)."""
        if not 0 <= k < self.order:
            raise ParamOutOfRange(f"encoding {k} outside 0..{self.order - 1}")
        return _digits(k, self.p, self.a)

    def encode(self, x) -> int:
        out = 0
        for c in reversed(tuple(x)):
            out = out * self.p + c
        return out

    def elements(self) -> list[tuple[int, ...]]:
        return [self.element(k) for k in range(self.order)]

    @property
    def zero(self) -> tuple[int, ...]:
        return (0,) * self.a

    @property
    def one(self) -> tuple[int, ...]:
        return (1,) + (0,) * (self.a - 1)

    # -- arithmetic -----------------------------------------------------
    def add(self, x, y) -> tuple[int, ...]:
        return tuple((u + v) % self.p for u, v in zip(x, y))

    def sub(self, x, y) -> tuple[int, ...]:
        return tuple((u - v) % self.p for u, v in zip(x, y))

    def mul(self, x, y) -> tuple[int, ...]:
        prod = [0] * (2 * self.a - 1)
        for i, u in enumerate(x):
            if u:
                for j, v in enumerate(y):
                    prod[i + j] = (prod[i + j] + u * v) % self.p
        return tuple(self._reduce(prod))

    def _reduce(self, poly: list[int]) -> list[int]:
        mod = self.modulus
        for d in range(len(poly) - 1, self.a - 1, -1):
            lead = poly[d]
            if lead:
                for i in range(self.a + 1):
                    poly[d - self.a + i] = (poly[d - self.a + i] - lead * mod[i]) % self.p
        poly = poly[: self.a]
        return poly + [0] * (self.a - len(poly))

    def pow(self, x, e: int) -> tuple[int, ...]:
        if e < 0:
            raise ParamOutOfRange("negative exponents: use inv")
        out = self.one
        base = tuple(x)
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def inv(self, x) -> tuple[int, ...]:
        if tuple(x) == self.zero:
            raise ParamOutOfRange("zero has no inverse")
        return self.pow(x, self.order - 2)

    def element_order(self, x) -> int:
        """Multiplicative order of a nonzero element."""
        if tuple(x) == self.zero:
            raise ParamOutOfRange("zero has no multiplicative order")
        order = self.order - 1
        for f in factorize(order) if order > 1 else ():
            while order % f == 0 and self.pow(x, order // f) == self.one:
                order //= f
        return order

    def multiplicative_generator(self) -> tuple[int, ...]:
        """Generator of the unit group with the smallest integer encoding."""
        target = self.order - 1
        for k in range(1, self.order):
            x = self.element(k)
            if self.element_order(x) == target:
                return x
        raise ParamOutOfRange("no generator found")  # unreachable

    # -- modulus search -------------------------------------------------
    def _find_modulus(self) -> tuple[int, ...]:
        if self.a == 1:
            return (0, 1)  # reduction modulo x: the prime field itself
        for k in range(self.order):
            cand = _digits(k, self.p, self.a) + (1,)
            if self._is_irreducible(cand):
                return cand
        raise ParamOutOfRange("no irreducible polynomial found")  # unreachable

    def _is_irreducible(self, f: tuple[int, ...]) -> bool:
        deg_f = len(f) - 1
        for d in range(1, deg_f // 2 + 1):
            for k in range(self.p**d):
                g = list(_digits(k, self.p, d)) + [1]
                if self._poly_divides(g, list(f)):
                    return False
        return True

    def _poly_divides(self, g: list[int], f: list[int]) -> bool:
        """Whether monic g divides f over Z_p."""
        rem = f[:]
        dg = len(g) - 1
        for d in range(len(rem) - 1, dg - 1, -1):
            lead = rem[d]
            if lead:
                for i in range(dg + 1):
                    rem[d - dg + i] = (rem[d - dg + i] - lead * g[i]) % self.p
        return not any(rem[:dg])


def galois_affine_quandle(
    p: int, a: int, multiplier, max_order: int | None = None
) -> QuandleTable:
    """The table x * y = h*x + (1-h)*y over GF(p^a).

    multiplier is a field element, an integer encoding or a coefficient
    tuple (core._integers); labels follow the encoding order (encoding + 1).
    With a multiplicative generator the result has profile (1, p^a - 1).
    """
    p, a = _integers((p, a), "p and a")
    _capped_order(p, a, max_order)
    field = GaloisField(p, a)
    if isinstance(multiplier, Iterable):
        h = _integers(multiplier, "multiplier coefficients")
    else:
        h = field.element(*_integers((multiplier,), "multiplier"))
    if len(h) != a:
        raise ParamOutOfRange(f"multiplier needs {a} integer coefficients, got {h}")
    return _galois_table(field, tuple(v % p for v in h))


def _galois_table(field: GaloisField, h: tuple[int, ...]) -> QuandleTable:
    """galois_affine_quandle on a field already built, for the reduced
    coefficient tuple h; 0 and 1 raise DegenerateMultiplier."""
    p, a = field.p, field.a
    if h == field.zero or h == field.one:
        raise DegenerateMultiplier(f"multiplier {field.encode(h)} gives no quandle structure")
    k = field.sub(field.one, h)
    # x -> h*x and y -> k*y are GF(p)-linear: row i of `linear` holds the
    # digits of h * t^i, then those of k * t^i, for the basis t^i
    basis = [field.element(p**i) for i in range(a)]
    linear = np.array([field.mul(h, e) + field.mul(k, e) for e in basis])
    places = p ** np.arange(a)
    digits = np.arange(p**a)[:, None] // places % p  # row x: the digits of x
    images = digits @ linear % p
    return _affine_table(images[:, :a] @ places, images[:, a:] @ places, p, a)


@dataclass(frozen=True)
class EmbeddingReport:
    """Outcome of embedding family member (p, c) into (p, c+1) by z -> p*z."""

    p: int
    c: int
    checks: tuple[CheckOutcome, ...]

    @property
    def passed(self) -> bool:
        return all(ch.passed for ch in self.checks)


def family_embedding(p: int, c: int, max_order: int | None = None) -> EmbeddingReport:
    """Check that the order-p^(c-1) member sits inside the order-p^c member
    as the image of z -> p*z."""
    from .shq import CheckOutcome

    p, c = _integers((p, c), "p and c")
    small = shq_family(p, c, max_order)
    big = shq_family(p, c + 1, max_order)
    img = p * np.arange(small.n)  # 0-based, increasing
    size = len(set(img.tolist()))
    distinct = size == small.n and int(img.max()) < big.n
    products = big.array[np.ix_(img, img)]  # f(x)*f(y) for every pair (x, y)
    bad = np.argwhere(products != img[small.array])
    hom_bad = (int(bad[0, 0]) + 1, int(bad[0, 1]) + 1) if bad.size else None
    rank = np.full(big.n, -1, dtype=np.int32)  # position in the image, or -1
    rank[img] = np.arange(small.n)
    induced = rank[products]
    closed = bool((induced >= 0).all())
    same = closed and np.array_equal(induced, small.array)
    return EmbeddingReport(p, c, (
        CheckOutcome("injective", distinct, f"{small.n} distinct images"),
        CheckOutcome(
            "homomorphism",
            hom_bad is None,
            "f(x*y) = f(x)*f(y) on all pairs" if hom_bad is None else f"fails at {hom_bad}",
        ),
        CheckOutcome("image_closed", closed, f"image of size {size}"),
        CheckOutcome(
            "induced_table",
            same,
            "induced table equals the smaller member" if same else "induced table differs",
        ),
    ))
