"""Dense integer polynomials: Z[x] and Z[x][y] as coefficient lists.

Z[x] is a list of ints, lowest power first, without trailing zeros (the
zero polynomial is []); Z[x][y] is a list of those, lowest power of y first,
with a nonzero last entry.  Nothing here imports from the rest of the package.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import reduce
from typing import Mapping, Sequence


class EngineInconsistencyError(RuntimeError):
    """An internal cross-check failed: two exact routes to one fact disagreed."""


CERT_PRIME = 2**31 - 1


def zx_sub(a: list[int], b: list[int]) -> list[int]:
    out = a + [0] * (len(b) - len(a)) if len(a) < len(b) else list(a)
    for i, v in enumerate(b):
        out[i] -= v
    while out and not out[-1]:
        out.pop()
    return out


def zx_mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    if len(a) == 1:
        return [a[0] * v for v in b]
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u:
            for j, v in enumerate(b):
                out[i + j] += u * v
    return out


def zx_pow(a: list[int], n: int) -> list[int]:
    out = [1]
    for _ in range(n):
        out = zx_mul(out, a)
    return out


def zx_div(a: list[int], b: list[int]) -> list[int]:
    """The quotient a / b in Z[x], for a b that the caller knows divides a.

    The power of x that divides b must divide a; both are stripped of it
    first, so a power of x costs one pass and not a schoolbook division.
    """
    shift = next(i for i, v in enumerate(b) if v)
    if any(a[:shift]):
        raise EngineInconsistencyError("a division in Z[x] is not exact")
    a, b = a[shift:], b[shift:]
    q = [0] * max(len(a) - len(b) + 1, 0)
    for k in reversed(range(len(q))):
        q[k] = c = a[k + len(b) - 1] // b[-1]
        for j, v in enumerate(b):
            a[k + j] -= c * v
    if any(a):
        raise EngineInconsistencyError("a division in Z[x] is not exact")
    return q


def euclid_mod_p(f: list[int], g: list[int]) -> list[int]:
    """gcd in F_p[v] of coefficient lists, lowest power first, nonzero leads."""
    while g:
        inverse = pow(g[-1], -1, CERT_PRIME)
        while len(f) >= len(g):
            q = f[-1] * inverse % CERT_PRIME
            shift = len(f) - len(g)
            for i, c in enumerate(g):
                f[shift + i] = (f[shift + i] - q * c) % CERT_PRIME
            while f and not f[-1]:
                f.pop()
        f, g = g, f
    return f


def zx_gcd(a: list[int], b: list[int]) -> list[int]:
    """gcd in Z[x] of nonzero a and b, primitive, up to sign.

    It is 1 when the images modulo ``CERT_PRIME`` are coprime and the prime
    does not divide lc(a): the image of a common factor keeps its degree and
    divides both images.  Otherwise the primitive remainder sequence, whose
    reduction steps multiply r by lc(b) / gcd(lc(r), lc(b)), not by lc(b).
    """
    if a[-1] % CERT_PRIME:
        g = [v % CERT_PRIME for v in b]
        while g and not g[-1]:
            g.pop()
        if len(euclid_mod_p([v % CERT_PRIME for v in a], g)) == 1:
            return [1]
    if len(a) < len(b):
        a, b = b, a
    content = math.gcd(*a)
    a = [v // content for v in a]
    while b:
        content = math.gcd(*b)
        r, b = a, [v // content for v in b]
        while len(r) >= len(b):
            k = math.gcd(r[-1], b[-1])
            u, t = b[-1] // k, r[-1] // k
            shift = len(r) - len(b)
            r = [u * v for v in r]
            for j, v in enumerate(b):
                r[shift + j] -= t * v
            while r and not r[-1]:
                r.pop()
        a, b = b, r
    return a


def prem(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """lc(b)^(deg a - deg b + 1) * a modulo b, in Z[x][y]."""
    lead, r = b[-1], list(a)
    spare = len(a) - len(b) + 1
    while len(r) >= len(b):
        top, shift = r.pop(), len(r) + 1 - len(b)
        r = [zx_mul(lead, c) for c in r]
        for j, c in enumerate(b[:-1]):
            r[shift + j] = zx_sub(r[shift + j], zx_mul(top, c))
        while r and not r[-1]:
            r.pop()
        spare -= 1
    scale = zx_pow(lead, spare)
    return [zx_mul(scale, c) for c in r]


def resultant(a: list[list[int]], b: list[list[int]]) -> list[int]:
    """Res_y(a, b) in Z[x] for a, b in Z[x][y], not both constant in y.

    The subresultant pseudo-remainder sequence (Collins 1967; Brown and
    Traub 1971), as in Cohen, *A Course in Computational Algebraic Number
    Theory*, Algorithm 3.3.7, without taking contents.
    """
    sign = 1
    if len(a) < len(b):
        a, b = b, a
        sign = -1 if (len(a) - 1) * (len(b) - 1) % 2 else 1
    g = h = [1]
    while len(b) > 1:
        delta = len(a) - len(b)
        if (len(a) - 1) % 2 and (len(b) - 1) % 2:
            sign = -sign
        r = prem(a, b)
        if not r:
            return []
        divisor = zx_mul(g, zx_pow(h, delta))
        a, b = b, [zx_div(c, divisor) for c in r]
        g = a[-1]
        if delta:
            h = zx_div(zx_pow(g, delta), zx_pow(h, delta - 1))
    n = len(a) - 1
    h = zx_div(zx_pow(b[0], n), zx_pow(h, n - 1))
    return [sign * v for v in h]


def zxy_primitive(p: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """(c, q): c a gcd in Z[x] of the entries of p, q = p/c with no integer content."""
    content = reduce(zx_gcd, filter(None, p))
    q = [zx_div(c, content) for c in p]
    k = math.gcd(*(v for c in q for v in c))
    return content, [[v // k for v in c] for c in q]


def on_axis_only_at_origin(a: list[list[int]], b: list[list[int]]) -> bool:
    """Whether gcd(a(0, y), b(0, y)) is a power of y; a(0, y) is nonzero."""
    images = []
    for p in (a, b):
        values = [c[0] if c else 0 for c in p]
        while values and not values[-1]:
            values.pop()
        while values and not values[0]:
            values.pop(0)
        images.append([[v] if v else [] for v in values])
    if not images[1]:
        return len(images[0]) == 1
    return min(map(len, images)) == 1 or bool(resultant(*images))


def horner(coeffs: list[int], root: Fraction) -> int:
    """d^k f(n/d) for f = sum coeffs[i] t^i, k = len(coeffs) - 1 and root = n/d.

    The homogeneous value sum coeffs[i] n^i d^(k - i): an integer for integer
    coefficients, zero exactly when the root is a root of f.
    """
    n, d = root.numerator, root.denominator
    acc, power = 0, 1
    for c in reversed(coeffs):
        acc = acc * n + c * power
        power *= d
    return acc


def eval_mod(coeffs: list[int], value: int, modulus: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * value + c) % modulus
    return acc


def loos_roots(coeffs: list[Fraction | int]) -> tuple[list[Fraction], list[int]]:
    """The rational roots, sorted and each once, and the integer residual.

    The residual has every one divided out to its full multiplicity, so it
    has no rational root.  The search is Loos's p-adic method (SIAM J.
    Comput. 12, 1983), complete and with no budget:

    * zero roots are stripped; s is the integer-primitive squarefree part of
      the rest, which is the rest itself when it is linear or a quadratic
      with nonzero discriminant, and else the rest over its gcd with its
      derivative, both over Z[t] (``zx_gcd``, then the exact ``zx_div``);
    * p is the first prime not dividing lc(s) at which every root of s mod p
      (s evaluated at 0, ..., p - 1) is simple; each is lifted by Newton
      iteration until ``p**k > 2*|lc(s)|*|s(0)|``, and u = lc(s)*r mod p**k,
      read in the symmetric range, gives u/lc(s) = n/d, kept if it is a root
      (``horner``); the rest, cleared to a primitive integer list, is divided
      by d*t - n over Z (``zx_div``) while n/d is a root of it.

    No root is missed: a root a/b in lowest terms has b | lc(s) and
    |a| <= |s(0)|, its image mod p is a simple root with a unique lift, and
    the symmetric range recovers the integer lc(s)*a/b.  The prime loop ends:
    it skips only primes dividing lc(s) or disc(s), nonzero as s is
    squarefree.
    """
    work = list(coeffs)
    while len(work) > 1 and work[-1] == 0:
        work.pop()
    roots = []
    while len(work) > 1 and work[0] == 0:
        roots = [Fraction(0)]
        work.pop(0)
    if len(work) > 1:
        scale = math.lcm(*(c.denominator for c in work))
        work = [c.numerator * (scale // c.denominator) for c in work]
        content = math.gcd(*work)
        s = work = [v // content for v in work]
        if len(s) > 3 or len(s) == 3 and s[1] ** 2 == 4 * s[0] * s[2]:
            s = zx_div(s, zx_gcd(s, [i * c for i, c in enumerate(s)][1:]))
        lead, ds = s[-1], [i * c for i, c in enumerate(s)][1:]
        for p in itertools.count(2):
            if lead % p and all(p % q for q in range(2, math.isqrt(p) + 1)):
                residues = [r for r in range(p) if eval_mod(s, r, p) == 0]
                if all(eval_mod(ds, r, p) for r in residues):
                    break
        for r in residues:
            modulus = p
            while modulus <= 2 * abs(lead * s[0]):
                modulus *= modulus
                inverse = pow(eval_mod(ds, r, modulus), -1, modulus)
                r = (r - eval_mod(s, r, modulus) * inverse) % modulus
            u = lead * r % modulus
            root = Fraction(u - modulus if 2 * u > modulus else u, lead)
            if horner(s, root) == 0:
                roots.append(root)
                while horner(work, root) == 0:
                    work = zx_div(work, [-root.numerator, root.denominator])
    return sorted(roots), work


def sheared(terms: Mapping[tuple[int, int], int], c: int) -> list[list[int]]:
    """A nonzero map in x and y, at (x + c*y, y), in Z[x][y]."""
    rows: dict[int, dict[int, int]] = {}
    for (i, j), v in terms.items():
        for k in range(i + 1) if c else (i,):
            row = rows.setdefault(j + i - k, {})
            row[k] = row.get(k, 0) + v * math.comb(i, k) * c ** (i - k)
    out = []
    for e in range(max(rows) + 1):
        row = rows.get(e, {})
        coeffs = [row.get(k, 0) for k in range(max(row, default=-1) + 1)]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        out.append(coeffs)
    while not out[-1]:
        out.pop()
    return out


def restrict_to_line(terms: Mapping[tuple[int, ...], int],
                     point: Sequence[Fraction | int | None]) -> list[int]:
    """The map at ``point``, whose one ``None`` entry is t, by power of t.

    Each other entry n/d, whose variable has largest exponent D in the map,
    gives a term c*m the factor n^(m_i) d^(D - m_i): an integer multiple of
    the restriction, one entry longer than the largest exponent of t.
    """
    var = point.index(None)
    fixed = [(i, v.numerator, v.denominator, max((m[i] for m in terms), default=0))
             for i, v in enumerate(point) if v is not None]
    coeffs = [0] * (max((m[var] for m in terms), default=0) + 1)
    for m, c in terms.items():
        for i, n, d, top in fixed:
            c *= n ** m[i] * d ** (top - m[i])
        coeffs[m[var]] += c
    return coeffs
