"""Independent reference math for the benchmark's inputs and expectations.

Nothing here imports quandlekit: every expected output the benchmark checks
is derived from the definitions (the affine rule, the documented GF(p^a)
conventions, the quandle axioms) so that a defect in the code under test
cannot hide in its own expectations.  Tables are numpy arrays with 1-based
entries, row i column j holding i * j.
"""

from __future__ import annotations

from math import factorial, prod

import numpy as np


# -- tables -------------------------------------------------------------------
def affine_table(m: int, h: int) -> np.ndarray:
    """a * b = h*a + (1-h)*b over Z_m, labels shifted to 1..m."""
    a = np.arange(m, dtype=np.int64)
    return (h * a[:, None] + (1 - h) * a[None, :]) % m + 1


def _mult_order(x: int, m: int) -> int:
    k, y = 1, x % m
    while y != 1:
        y = y * x % m
        k += 1
    return k


def family_multiplier(p: int) -> int:
    """Smallest primitive root g mod p, lifted to g + p when g does not
    generate the units mod p^2 (the construction documented for shq_family)."""
    g = next(x for x in range(2, p) if _mult_order(x, p) == p - 1)
    return g if _mult_order(g, p * p) == p * (p - 1) else g + p


def family_table(p: int, c: int) -> np.ndarray:
    """The SHQ family member (p, c): affine over Z_(p^(c-1))."""
    return affine_table(p ** (c - 1), family_multiplier(p))


def family_lengths(p: int, c: int) -> list[int]:
    """Forced SHQ profile (1, l, l(l+1), ...) with l = p - 1."""
    ell = p - 1
    return [1] + [ell * (ell + 1) ** (i - 2) for i in range(2, c + 1)]


class _Field:
    """GF(p^a): coefficient lists low to high, modulo the first irreducible
    monic polynomial in integer-encoding order."""

    def __init__(self, p: int, a: int):
        self.p, self.a, self.q = p, a, p**a
        self.mod = next(
            f for f in (self._coeffs(k, a) + [1] for k in range(self.q))
            if self._irreducible(f)
        )

    def _coeffs(self, k: int, width: int) -> list[int]:
        out = []
        for _ in range(width):
            out.append(k % self.p)
            k //= self.p
        return out

    def _rem(self, f: list[int], g: list[int]) -> list[int]:
        """f mod monic g over Z_p."""
        f = f[:]
        dg = len(g) - 1
        for d in range(len(f) - 1, dg - 1, -1):
            lead = f[d]
            if lead:
                for i in range(dg + 1):
                    f[d - dg + i] = (f[d - dg + i] - lead * g[i]) % self.p
        return f[:dg]

    def _irreducible(self, f: list[int]) -> bool:
        deg = len(f) - 1
        return not any(
            not any(self._rem(f, self._coeffs(k, d) + [1]))
            for d in range(1, deg // 2 + 1)
            for k in range(self.p**d)
        )

    def mul(self, x: list[int], y: list[int]) -> list[int]:
        prod_ = [0] * (2 * self.a)
        for i, u in enumerate(x):
            for j, v in enumerate(y):
                prod_[i + j] = (prod_[i + j] + u * v) % self.p
        return self._rem(prod_, self.mod)

    def encode(self, x: list[int]) -> int:
        return sum(c * self.p**i for i, c in enumerate(x))

    def power(self, x: list[int], e: int) -> list[int]:
        out = self._coeffs(1, self.a)
        while e:
            if e & 1:
                out = self.mul(out, x)
            x = self.mul(x, x)
            e >>= 1
        return out

    def generator(self) -> int:
        """Smallest encoding of an element of multiplicative order q - 1."""
        one = self._coeffs(1, self.a)
        primes = [r for r in range(2, self.q) if (self.q - 1) % r == 0
                  and all(r % s for s in range(2, r))]
        for k in range(1, self.q):
            x = self._coeffs(k, self.a)
            if all(self.power(x, (self.q - 1) // r) != one for r in primes):
                return k
        raise ValueError("no generator")  # every finite field has one


def galois_table(p: int, a: int, multiplier: int | None = None) -> np.ndarray:
    """x * y = h*x + (1-h)*y over GF(p^a), labels = encoding + 1; h defaults
    to the unit-group generator with the smallest encoding."""
    field = _Field(p, a)
    h = field._coeffs(field.generator() if multiplier is None else multiplier, a)
    k = [(-c) % p for c in h]
    k[0] = (k[0] + 1) % p
    elems = [field._coeffs(e, a) for e in range(field.q)]
    hx = np.array([field.mul(h, x) for x in elems], dtype=np.int64)
    ky = np.array([field.mul(k, y) for y in elems], dtype=np.int64)
    coeffs = (hx[:, None, :] + ky[None, :, :]) % p
    return coeffs @ (p ** np.arange(a, dtype=np.int64)) + 1


def subfield_multiplier(p: int, a: int, s: int) -> int:
    """Encoding of an h in GF(p^a) of multiplicative order p^s - 1, so that
    GF(p)(h) is the subfield GF(p^s) (s divides a, p^s > 2)."""
    field = _Field(p, a)
    g = field._coeffs(field.generator(), a)
    return field.encode(field.power(g, (p**a - 1) // (p**s - 1)))


def _gaussian_binomial(m: int, d: int, q: int) -> int:
    """Number of d-dimensional subspaces of GF(q)^m."""
    num = prod(q ** (m - i) - 1 for i in range(d))
    return num // prod(q ** (i + 1) - 1 for i in range(d))


def affine_subspaces(p: int, a: int, s: int) -> tuple[int, int]:
    """Closed subsets and their isomorphism classes for x * y = h*x + (1-h)*y
    over GF(p^a) with GF(p)(h) = GF(p^s).  A nonempty subset is closed exactly
    when it is an affine GF(p^s)-subspace of GF(p^s)^(a/s), so the count is
    the number of such subspaces, one class per dimension 0..a/s."""
    q, m = p**s, a // s
    return sum(q ** (m - d) * _gaussian_binomial(m, d, q) for d in range(m + 1)), m + 1


def relabel(t: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """The isomorphic table under x -> sigma[x] (sigma 0-based)."""
    out = np.empty_like(t)
    out[np.ix_(sigma, sigma)] = sigma[t - 1] + 1
    return out


def render_qdl(t: np.ndarray) -> str:
    """Canonical .qdl text: order line, single spaces, trailing newline."""
    lines = [str(t.shape[0])]
    lines.extend(" ".join(map(str, row)) for row in t.tolist())
    return "\n".join(lines) + "\n"


# -- invariants ---------------------------------------------------------------
def cycle_lengths(perm: list[int]) -> tuple[int, ...]:
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        if not seen[start]:
            length, x = 0, start
            while not seen[x]:
                seen[x] = True
                x = perm[x]
                length += 1
            out.append(length)
    return tuple(sorted(out))


def _prime_power(n: int) -> tuple[int, int] | None:
    if n < 2:
        return None
    p = next(d for d in range(2, n + 1) if n % d == 0)
    a = 0
    while n % p == 0:
        n //= p
        a += 1
    return (p, a) if n == 1 else None


def analyze_report(t: np.ndarray) -> dict:
    """The plain `analyze --json` report of a valid table."""
    n = t.shape[0]
    t0 = t - 1
    columns = t0.T.tolist()
    structures = [cycle_lengths(col) for col in columns]
    reached = np.zeros(n, dtype=bool)
    reached[0] = True
    frontier = np.array([0])
    while frontier.size:
        hit = np.zeros(n, dtype=bool)
        hit[t0[frontier].ravel()] = True
        frontier = np.flatnonzero(hit & ~reached)
        reached |= hit
    connected = bool(reached.all())
    latin = bool((np.sort(t0, axis=1) == np.arange(n)).all())
    distinct = sorted(set(structures))
    shq = None
    if len(distinct) == 1:
        lengths = distinct[0]
        shaped = (
            len(lengths) >= 2 and lengths[0] == 1
            and all(b > a and b % a == 0 for a, b in zip(lengths, lengths[1:]))
        )
        pa = _prime_power(lengths[1] + 1) if shaped else None
        if pa:
            shq = {"ell": lengths[1], "c": len(lengths), "p": pa[0], "a": pa[1]}
    return {
        "schema": "quandlekit.analyze/1",
        "order": n,
        "valid": True,
        "connected": connected,
        "latin": latin,
        "profile": {
            "structures": [list(s) for s in (distinct[:1] if connected else distinct)],
            "connected_form": list(distinct[0]) if connected else None,
        },
        "shq": shq,
    }


def profile_text(report: dict) -> str:
    """The profile as `construct` prints it: (1, 2^3, 6) or [s1; s2]."""

    def one(lengths):
        parts, i = [], 0
        while i < len(lengths):
            j = i
            while j < len(lengths) and lengths[j] == lengths[i]:
                j += 1
            parts.append(str(lengths[i]) if j - i == 1 else f"{lengths[i]}^{j - i}")
            i = j
        return "(" + ", ".join(parts) + ")"

    prof = report["profile"]
    if prof["connected_form"] is not None:
        return one(prof["connected_form"])
    return "[" + "; ".join(one(s) for s in prof["structures"]) + "]"


def first_violation(t: np.ndarray) -> tuple[str, list[int]] | None:
    """First axiom violation of an n x n table with entries in 1..n: the
    diagonal over i, then column bijectivity over j, then distributivity
    (i*j)*k = (i*k)*(j*k) scanned i-major, stopping at the first i that fails."""
    n = t.shape[0]
    t0 = t - 1
    bad = np.flatnonzero(np.diagonal(t0) != np.arange(n))
    if bad.size:
        return "IdempotencyViolation", [int(bad[0]) + 1]
    bad = np.flatnonzero((np.sort(t0, axis=0) != np.arange(n)[:, None]).any(axis=0))
    if bad.size:
        return "RightInvertibilityViolation", [int(bad[0]) + 1]
    for i in range(n):
        lhs = t0[t0[i]]  # lhs[j, k] = (i*j)*k
        rhs = t0[np.broadcast_to(t0[i], (n, n)), t0]  # rhs[j, k] = (i*k)*(j*k)
        diff = np.argwhere(lhs != rhs)
        if diff.size:
            return "DistributivityViolation", [i + 1, int(diff[0, 0]) + 1, int(diff[0, 1]) + 1]
    return None


def generator_candidates(lengths: list[int]) -> int:
    """Permutations of cycle type `lengths` (distinct, one fixed point) that
    fix a given point: (n-1)! / product of the lengths above 1."""
    return factorial(sum(lengths) - 1) // prod(x for x in lengths if x > 1)
