"""Reference arithmetic the benchmark checks pairlin's outputs against.

Supertropical and sign determinants are recomputed here from their
definitions, without pairlin: a supertropical element is ``None`` (the zero,
-inf) or ``(ghost, value)`` with an exact ``Fraction`` value, and a sign
element is one of the literals ``0``, ``1``, ``-1``, ``inf``.  For the other
finite pairs the track expansion and the balance rule are re-derived here,
over the pair's own element operations.
"""

from __future__ import annotations

import math
from fractions import Fraction

# -- supertropical -----------------------------------------------------------


def st_parse(text):
    if text == "-inf":
        return None
    if text.endswith("g"):
        return (True, Fraction(text[:-1]))
    return (False, Fraction(text))


def st_format(x):
    if x is None:
        return "-inf"
    return str(x[1]) + ("g" if x[0] else "")


def st_add(x, y):
    """Max-plus sum; a tie at the maximum is a ghost."""
    if x is None:
        return y
    if y is None:
        return x
    if x[1] > y[1]:
        return x
    if y[1] > x[1]:
        return y
    return (True, x[1])


def st_mul(x, y):
    if x is None or y is None:
        return None
    return (x[0] or y[0], x[1] + y[1])


def st_null(x):
    return x is None or x[0]


def st_balances(x, y):
    """First kind: both null, or the sum null."""
    return (st_null(x) and st_null(y)) or st_null(st_add(x, y))


def _tracks(n, entry_ok):
    """Yield (rows, odd) for every track whose entries all pass entry_ok.

    Column c takes row rows[c]; tracks come in lexicographic order of rows,
    and odd is the parity of the permutation's inversion count.
    """
    used = [False] * n
    rows = []

    def walk(c, inv):
        if c == n:
            yield tuple(rows), inv & 1
            return
        for r in range(n):
            if used[r] or not entry_ok(r, c):
                continue
            above = sum(1 for s in rows if s > r)
            used[r] = True
            rows.append(r)
            yield from walk(c + 1, inv + above)
            rows.pop()
            used[r] = False

    yield from walk(0, 0)


def st_det(a):
    """Parity-split determinant (det_plus, det_minus) by track expansion.

    Each parity's sum is the largest track value; it is a ghost when two
    tracks reach it or a track reaching it has a ghost entry.  Values are
    scaled to integers by the common denominator, which keeps them exact.
    """
    n = len(a)
    scale = 1
    for row in a:
        for e in row:
            if e is not None:
                scale = math.lcm(scale, e[1].denominator)
    val = [[None if e is None else int(e[1] * scale) for e in row] for row in a]
    ghost = [[e is not None and e[0] for e in row] for row in a]
    best = [None, None]
    tied = [False, False]
    for rows, odd in _tracks(n, lambda r, c: val[r][c] is not None):
        v = sum(val[rows[c]][c] for c in range(n))
        g = any(ghost[rows[c]][c] for c in range(n))
        if best[odd] is None or v > best[odd]:
            best[odd], tied[odd] = v, g
        elif v == best[odd]:
            tied[odd] = True
    return tuple(
        None if b is None else (t, Fraction(b, scale)) for b, t in zip(best, tied)
    )


def minor(a, i, j):
    return [
        [e for c, e in enumerate(row) if c != j] for r, row in enumerate(a) if r != i
    ]


def st_adjoint(a):
    """Doubled adjoint: entry (i, j) is the (j, i) minor's parity split,
    swapped when i + j is odd."""
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            p, q = ((False, Fraction(0)), None) if n == 1 else st_det(minor(a, j, i))
            row.append((q, p) if (i + j) & 1 else (p, q))
        out.append(row)
    return out


def dd_add(x, y):
    return (st_add(x[0], y[0]), st_add(x[1], y[1]))


def dd_mul(x, y):
    return (
        st_add(st_mul(x[0], y[0]), st_mul(x[1], y[1])),
        st_add(st_mul(x[0], y[1]), st_mul(x[1], y[0])),
    )


def dd_null(x):
    return x[0] == x[1] or st_null(st_add(x[0], x[1]))


def dd_balances(x, y):
    """In the doubled pair X balances Y when X + switch(Y) is null."""
    return dd_null(dd_add(x, (y[1], y[0])))


def dd_mat_vec(a, v):
    out = []
    for row in a:
        acc = (None, None)
        for e, x in zip(row, v):
            acc = dd_add(acc, dd_mul(e, x))
        out.append(acc)
    return out


def st_cramer(a, v):
    """(w, balanced): w = adj(A) v in the doubled pair, and whether
    |A| v balances A w in every component."""
    vhat = [(e, None) for e in v]
    w = dd_mat_vec(st_adjoint(a), vhat)
    det = st_det(a)
    aw = dd_mat_vec([[(e, None) for e in row] for row in a], w)
    lhs = [dd_mul(det, x) for x in vhat]
    return w, all(dd_balances(x, y) for x, y in zip(lhs, aw))


def st_combination_null(vectors, coeffs):
    """Whether sum_i c_i v_i is null in every column."""
    for j in range(len(vectors[0])):
        acc = None
        for c, vec in zip(coeffs, vectors):
            acc = st_add(acc, st_mul(c, vec[j]))
        if not st_null(acc):
            return False
    return True


def st_mat_vec(a, x):
    out = []
    for row in a:
        acc = None
        for e, xe in zip(row, x):
            acc = st_add(acc, st_mul(e, xe))
        out.append(acc)
    return out


# -- sign pair ---------------------------------------------------------------

SIGN_NULL = frozenset({"0", "inf"})


def sign_add(x, y):
    if x == "0":
        return y
    if y == "0" or x == y:
        return x
    return "inf"


def sign_mul(x, y):
    if x == "0" or y == "0":
        return "0"
    if x == "inf" or y == "inf":
        return "inf"
    return "1" if x == y else "-1"


def sign_sum(values):
    """The sum of a set of track values: opposite signs meet at inf."""
    out = "0"
    for v in values:
        out = sign_add(out, v)
    return out


def sign_det(a):
    """(det_plus, det_minus) from the set of track signs of each parity."""
    n = len(a)
    seen = (set(), set())
    for rows, odd in _tracks(n, lambda r, c: a[r][c] != "0"):
        t = "1"
        for c in range(n):
            t = sign_mul(t, a[rows[c]][c])
        seen[odd].add(t)
    return sign_sum(sorted(seen[0])), sign_sum(sorted(seen[1]))


def sign_balances(x, y):
    """Second kind: both null, or a common element 0, 1 or -1 kills both."""
    if x in SIGN_NULL and y in SIGN_NULL:
        return True
    return any(
        sign_add(x, t) in SIGN_NULL and sign_add(y, t) in SIGN_NULL
        for t in ("0", "1", "-1")
    )


# -- other finite pairs, over the pair's own element operations --------------


def generic_det(alg, a):
    """Track expansion over alg's add and mul, folded in lexicographic
    track order from alg.zero, each track a product from alg.one."""
    n = len(a)
    acc = [alg.zero, alg.zero]
    for rows, odd in _tracks(n, lambda r, c: True):
        t = alg.one
        for c in range(n):
            t = alg.mul(t, a[rows[c]][c])
        acc[odd] = alg.add(acc[odd], t)
    return tuple(acc)


def generic_balances(alg, x, y):
    """Both null; or, first kind (1 + 1 null), the sum null; or, otherwise,
    some element of {0} u T whose sum with each is null."""
    if alg.is_null(x) and alg.is_null(y):
        return True
    if alg.is_null(alg.add(alg.one, alg.one)):
        return alg.is_null(alg.add(x, y))
    return any(
        alg.is_null(alg.add(x, t)) and alg.is_null(alg.add(y, t))
        for t in (alg.zero,) + tuple(alg.tangibles)
    )


def generic_combination_null(alg, vectors, coeffs):
    for j in range(len(vectors[0])):
        acc = alg.zero
        for c, vec in zip(coeffs, vectors):
            acc = alg.add(acc, alg.mul(c, vec[j]))
        if not alg.is_null(acc):
            return False
    return True
