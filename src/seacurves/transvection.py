"""The r-transvection of binary forms, as one weighted convolution.

For f of degree n and g of degree m and 0 <= r <= min(n, m):

    (f, g)^r = (m-r)! (n-r)! / (n! m!)
               * sum_{k=0}^{r} (-1)^k C(r, k)
                 * d^r f / dX^(r-k) dZ^k  *  d^r g / dX^k dZ^(r-k)

The result is a form of degree n + m - 2r.  Every covariant and invariant in
:mod:`seacurves.invariants` is a composition of this single operation with
form products.

In coefficients (Olver, *Classical Invariant Theory*, 1999, ch. 5; Glenn,
*Theory of Invariants*, 1915), with f = sum f_a X^a Z^(n-a),
g = sum g_b X^b Z^(m-b) and P(x, j) = x!/(x-j)! the falling factorial,

    coefficient s of (f, g)^r = sum_{a+b=s+r} f_a g_b W(a, b) / (P(n, r) P(m, r)),

    W(a, b) = sum_k alpha_k(a) beta_k(b),
    alpha_k(a) = (-1)^k C(r, k) P(a, r-k) P(n-a, k),  beta_k(b) = P(b, k) P(m-b, r-k).

W depends only on the shape (n, m, r), so one builder, ``_table``, makes it
once per shape, each alpha_k and beta_k row by the ratio recurrence of
``forms._falling_products``.  A table keeps one entry per output index s,
the dot product that gives coefficient s: with t = s + r, the range
[lo, hi) of a from the first to the last a with W(a, t - a) != 0, the
offset o = lo + m - t at which b = t - lo sits in g reversed, and the
weights W(a, t - a) / c over that range (a zero inside it is kept).  The
content c = gcd(P(n, r) P(m, r), every weight) is divided out once, as the
table is built, and the table keeps the scale P(n, r) P(m, r) / c next to
its entries: at n = m = 22 and r = 20, c has 109 bits and the largest
weight 30, against 138 undivided.  A transvectant is then one pass over
the entries on the forms' cleared vectors, read over their joint field by
the one lift of :mod:`seacurves.forms` (``_lift``, which gives a rational
operand over Q(sqrt D) a zero B), giving a vector over the denominator
scale * den(f) den(g), made canonical once.  ``_weighted_sum`` reads g
reversed, so the slices f[lo:hi] and g[o:o + hi - lo] run side by side.
Over Q, which the gate benchmark runs, each output is one sum in C over
the products of f's slice, g's slice and the weights; an order-0 output,
an invariant, is one dot product of at most a dozen terms.  Over Q(sqrt D),
which sqrt_ext runs, each output is one loop over the zipped slices of the
(A, B) pairs, with D B of g taken once per call, for the pairs
(x + x' sqrt D)(y + y' sqrt D); on Q the pair loop would multiply zeros.

At r = 0 the weights are all 1 and (f, g)^0 is the product f * g, which
``transvect`` returns before any table is looked up: the same canonical
vector, and the same ``FieldMixError`` for operands over two fields.

A self-transvectant (f, f)^r, recognised by equal cleared operands, uses the
symmetry (f, g)^r = (-1)^r (g, f)^r, that is W(a, b) = (-1)^r W(b, a) when
n = m: for odd r the result is zero and no table is built, and for even r
the sum reads a symmetric half-table S(a, b) = W(a, b) + W(b, a) = 2 W(a, b)
over a < b, with S(a, a) = W(a, a): ``_table`` with its ``half`` flag set,
which skips b < a while it builds, so each entry's range ends at a <= t / 2.

Tables are cached oldest-first-out under one key, (n, m, r, half), within
two bounds, ``_CACHE_ENTRIES`` tables and ``_CACHE_BYTES`` (16 MiB) as
``_table_bytes`` counts them: every tuple and int of a table, shared small
ints included, so the count over-states the memory a table holds.  A table
larger than the byte bound is used and not kept, so the cache never holds
more than 16 MiB.  At ``MAX_DEGREE`` = 100 the largest full table,
(100, 100, 20), counts 0.45 MiB, the largest
half-table 0.24 MiB and the 50 half-tables (even r >= 2) 8.15 MiB; the
self-tables of degrees 6-22 (even r >= 2) count 0.75 MiB.  Six rounds of
seed 1 of the benchmark read 62 tables on gate (32 full, 30 half,
0.22 MiB), 52 on sqrt_ext (0.16 MiB) and 31 on catalog_cli (0.06 MiB), so
neither bound binds there.  The byte bound caps the memory of in-process
callers that use many shapes; the entry bound caps the dict and the recount
on each insert, as the byte bound alone would admit about 42,000 of the
smallest tables (400 B).
"""

from __future__ import annotations

import threading
from math import comb, gcd, perm
from operator import mul
from sys import getsizeof

from .forms import BinaryForm, _falling_products, _join_field, _lift, _require_form
from .scalars import SeacurvesError, _int_str, _require_int

__all__ = ["transvect", "TransvectionError"]

_CACHE_ENTRIES = 512
_CACHE_BYTES = 16 * 2 ** 20

# (n, m, r, half) -> (table, bytes), oldest first; lookups read it unlocked,
# inserts and evictions hold the lock
_TABLES: dict = {}
_TABLES_LOCK = threading.Lock()


class TransvectionError(SeacurvesError):
    """r exceeds the degree of one of the operands (or is negative)."""


def _table(n: int, m: int, r: int, half: bool) -> tuple:
    """(scale, entries): the weights of (f, g)^r for degrees n and m over
    their content c, and the scale P(n, r) P(m, r) / c.  Entry s, for each
    output index s, is (lo, hi, o, ws): coefficient s sums f_a g_b W(a, b) / c
    over a in [lo, hi), the a-range from the first to the last nonzero
    weight, with b = s + r - a at offset o + (a - lo) of g reversed, and ws
    the weights W(a, b) / c in order of a.  Row a of W gains
    alpha_k(a) beta_k(b) over b = k .. m - r + k, or with ``half`` (n = m,
    even r) over b >= a only, doubled at b > a to S(a, b)."""
    w = [[0] * (m + 1) for _ in range(n + 1)]
    for k in range(r + 1):
        c = -comb(r, k) if k % 2 else comb(r, k)
        beta = _falling_products(m, k, r - k)
        hi = k + len(beta)
        for a, x in enumerate(_falling_products(n, r - k, k), r - k):
            lo = max(a, k) if half else k
            x *= c
            row = w[a]
            row[lo:hi] = [z + x * y for z, y in zip(row[lo:hi], beta[lo - k:])]
    if half:
        for a, row in enumerate(w):
            row[a + 1:] = [2 * x for x in row[a + 1:]]
    scale = perm(n, r) * perm(m, r)
    content = gcd(scale, *(x for row in w for x in row))
    entries = []
    for t in range(r, n + m - r + 1):  # t = s + r = a + b
        first = max(0, t - m)
        nonzero = [a for a in range(first, min(n, t // 2 if half else t) + 1) if w[a][t - a]]
        lo, hi = (nonzero[0], nonzero[-1] + 1) if nonzero else (first, first)
        entries.append((lo, hi, lo + m - t, tuple(w[a][t - a] // content for a in range(lo, hi))))
    return scale // content, tuple(entries)


def _table_bytes(table: tuple) -> int:
    """The bytes of every tuple and int of a table, shared small ints included."""
    scale, entries = table
    return getsizeof(table) + getsizeof(scale) + getsizeof(entries) + sum(
        getsizeof(entry) + sum(map(getsizeof, entry[:3])) + getsizeof(entry[3])
        + sum(map(getsizeof, entry[3])) for entry in entries)


def _cached(key: tuple) -> tuple:
    """``_table(*key)``, (scale, entries), kept in ``_TABLES`` within both cache bounds."""
    hit = _TABLES.get(key)
    if hit is not None:
        return hit[0]
    table = _table(*key)
    size = _table_bytes(table)
    if size <= _CACHE_BYTES:
        with _TABLES_LOCK:
            _TABLES[key] = (table, size)
            total = sum(s for _, s in _TABLES.values())
            while len(_TABLES) > _CACHE_ENTRIES or total > _CACHE_BYTES:
                total -= _TABLES.pop(next(iter(_TABLES)))[1]
    return table


def _weighted_sum(entries: tuple, f, g, disc: int):
    """The (A, B) pair of sum f_a g_b W(a, b) / c at a + b - r over a table's
    entries, for (A, B) pairs f and g lifted to Z[sqrt(disc)]
    (``forms._lift``): B is None over Q, and a vector over Q(sqrt disc)."""
    (fa, fb), (ga, gb) = f, g
    ga = ga[::-1]
    if not disc:
        return [sum(map(mul, map(mul, fa[lo:hi], ga[o:o + hi - lo]), ws))
                for lo, hi, o, ws in entries], None
    gb = gb[::-1]
    gd = [disc * y for y in gb]
    acc, rad = [], []
    for lo, hi, o, ws in entries:
        e = o + hi - lo
        x = y = 0
        for x0, x1, y0, y1, z1, w in zip(fa[lo:hi], fb[lo:hi], ga[o:e], gb[o:e], gd[o:e], ws):
            x += (x0 * y0 + x1 * z1) * w
            y += (x0 * y1 + x1 * y0) * w
        acc.append(x)
        rad.append(y)
    return acc, rad


def transvect(f: BinaryForm, g: BinaryForm, r: int) -> BinaryForm:
    """The r-transvection (f, g)^r, exact; an f or g that is not a
    :class:`BinaryForm` is a TypeError naming it."""
    _require_form(f)
    _require_form(g)
    _require_int(r, "transvection order r")
    n, m = f.degree, g.degree
    if r < 0 or r > min(n, m):
        raise TransvectionError(
            f"transvection order {_int_str(r)} out of range for degrees ({n}, {m})"
        )
    if r == 0:
        return f * g
    deg = n + m - 2 * r
    disc = _join_field(f.vec[3], g.vec[3])
    half = f.vec == g.vec
    if half and r % 2:
        return BinaryForm.zero(deg)
    scale, entries = _cached((n, m, r, half))
    a, b = _weighted_sum(entries, _lift(f.vec, disc), _lift(g.vec, disc), disc)
    return BinaryForm._from_vec(scale * f.vec[0] * g.vec[0], a, b, disc)
