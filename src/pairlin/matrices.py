"""Matrices over a pair: doubled determinants, adjoints, Laplace expansion,
Cayley-Hamilton, quasi-identities and quasi-inverses.

Determinants are parity-split track sums.  Semiring pairs lack subtraction,
so there is no elimination; instead tracks are built column by column and
grouped by the set of rows they have taken.  Where multiplication distributes
over addition each row set keeps its two parity sums (about n * 2^n
products); elsewhere it keeps its distinct nonzero partial products with
their track counts, which for tangible entries of a hyperfield are at most
the number of tangible atoms.  One such pass gives the determinants of every
minor on the columns walked, so an adjoint takes n passes and a Laplace
expansion two.  The characteristic polynomial takes one principal walk over
the columns, not one layer per principal submatrix: its states are (rows
taken, columns taken), and its last step holds the determinant of every
principal minor (see _principal_moves).  The desk-scale caps bound n either
way.

Only this module reads the layers: other modules take adj(A) and |A| from
one pass (_adjugate), the singularity of the minors on each column set from
one walk (_singular_minors), and the tracks of a square matrix one by one
(_tracks).  This module checks every matrix-size bound: each entry point
checks its own sizes before any work, so no caller picks an n to check.

Which row sets a pass over m rows reaches at column step k, and from which
sets of the step before, depends only on (m, k).  Each pass therefore walks
an index plan: for each row set of the next layer, in the order a dict walk
first reaches it, the (source position, row, parity swap) of every
extension into it.  Layers are flat lists aligned with the plan, the hot
loop only multiplies and adds codes in the dict walk's order, and each
pass builds its dict keyed by row set once, at the end.  Plans of up to
PLAN_CACHE_ROWS rows, and principal plans of up to PRINCIPAL_PLAN_ROWS, are
kept, each a stated number of extensions; taller ones last one call.

The kernels run on codes, not on elements: each public call binds its pair's
codec (core.Codec) to the elements it was given, encodes each matrix once,
adds and multiplies codes, and decodes only the values it returns.  A
Matrix keeps the codes of its last call with its codec, and a later call
under the same codec object reuses them, so the Laplace expansions of one
matrix along each of its row sets encode it once.  Nullity is decided on
codes, through the codec's nullity mapping (core.Codec.null): singularity
on the coded tracks, through a memo per codec from pairs of codes to
whether they balance, and each entry of Cayley-Hamilton's f(A) by the
doubled nullity of its base coordinates.

Doubled products with an embedded factor, b -> (b, 0), are done in base
coordinates.  Zero is additively neutral and multiplicatively absorbing in
every pair (the audit's admissible flag), so (p, n)(x, 0) = (px + n0, p0 + nx)
= (px, nx) exactly, and the powers of an embedded matrix are the embedded
powers of the base matrix.  Cayley-Hamilton therefore multiplies only base
matrices and folds each entry of f(A) as two base sums.  The same laws let
every sum of products start from the zero code.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field

from .core import CapExceeded, El, PairAlgebra, PairError, _balance_codes, _doubled_null, balances
from .instances import BadSpecifier, embed_doubled, make_doubled, project_doubled


class DimensionMismatch(PairError):
    pass


class SingularInput(PairError):
    pass


class NonInvertibleDeterminant(PairError):
    pass


DEFAULT_DET_CAP = 8
CAYLEY_HAMILTON_CAP = 5
KRASNER_CAP = 4


def det_cap():
    raw = os.environ.get("PAIRLIN_CAP_N")
    if raw is None:
        return DEFAULT_DET_CAP
    if not raw.strip().isdecimal():
        raise BadSpecifier(f"PAIRLIN_CAP_N must be a nonnegative integer, got {raw!r}")
    return int(raw)


def _check_n(what, n, limit=None):
    """Raise CapExceeded when n is above limit, det_cap() by default."""
    if n > (det_cap() if limit is None else limit):
        raise CapExceeded(f"{what} cap exceeded at n = {n}")


@dataclass(frozen=True)
class Matrix:
    alg: PairAlgebra
    entries: tuple
    # (coding, codes) of the last kernel call on this matrix: see _coded
    _codes: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.entries or not self.entries[0]:
            raise DimensionMismatch("matrix dimensions must be positive")
        w = len(self.entries[0])
        check = self.alg.check
        for row in self.entries:
            if len(row) != w:
                raise DimensionMismatch("ragged rows")
            check(*row)

    @property
    def rows(self):
        return len(self.entries)

    @property
    def cols(self):
        return len(self.entries[0])

    @property
    def is_square(self):
        return self.rows == self.cols

    def __getitem__(self, rc):
        return self.entries[rc[0]][rc[1]]

    def col(self, j):
        return tuple(r[j] for r in self.entries)

    def transpose(self):
        return Matrix(self.alg, tuple(zip(*self.entries)))

    def submatrix(self, row_idx, col_idx):
        return Matrix(
            self.alg,
            tuple(tuple(self.entries[i][j] for j in col_idx) for i in row_idx),
        )

    def minor(self, i, j):
        ri = [r for r in range(self.rows) if r != i]
        ci = [c for c in range(self.cols) if c != j]
        return self.submatrix(ri, ci)


def matrix(alg, rows) -> Matrix:
    return Matrix(alg, tuple(tuple(r) for r in rows))


def identity(alg, n) -> Matrix:
    return Matrix(
        alg,
        tuple(
            tuple(alg.one if i == j else alg.zero for j in range(n)) for i in range(n)
        ),
    )


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.rows:
        raise DimensionMismatch(f"{a.rows}x{a.cols} times {b.rows}x{b.cols}")
    alg = a.alg
    alg.check(*b.entries[0])
    coding, x = _coded(a, *b.entries)
    dec = coding.decode
    prod = _mat_mul_codes(x, _encode(coding, b.entries), coding)
    return Matrix(alg, tuple(tuple(dec(c) for c in row) for row in prod))


def mat_vec(a: Matrix, v) -> tuple:
    if a.cols != len(v):
        raise DimensionMismatch("vector length mismatch")
    a.alg.check(*v)
    coding, x = _coded(a, v)
    dec = coding.decode
    vc = [coding.encode(e) for e in v]
    return tuple(dec(_dot(coding, row, vc)) for row in x)


def scalar_mat(alg, c, a: Matrix) -> Matrix:
    return Matrix(alg, tuple(tuple(alg.mul(c, e) for e in row) for row in a.entries))


def embed_matrix(dalg, a: Matrix) -> Matrix:
    return Matrix(dalg, tuple(tuple(embed_doubled(dalg, e) for e in row) for row in a.entries))


def project_matrix(dalg, a: Matrix) -> Matrix:
    return Matrix(
        dalg.base,
        tuple(tuple(project_doubled(dalg, e) for e in row) for row in a.entries),
    )


# ---------------------------------------------------------------------------
# codes


def _encode(coding, rows) -> list:
    """rows as codes.  A matrix keeps its codes for later calls (see
    _coded), so no kernel changes the lists it is given."""
    enc = coding.encode
    return [[enc(e) for e in row] for row in rows]


def _coded(a: Matrix, *extra) -> tuple:
    """(coding, codes): the codec of one call, bound to a's entries and the
    extra element iterables, and a's entries as codes.

    a keeps the pair of its last call.  Codes are a function of the codec
    and the entries, so a call whose codec is the same object takes them
    as they are: every call of a pair with one codec, and every call of a
    supertropical matrix at the scale of its last one.  A call whose extra
    elements bring a new denominator gets a codec of a new scale, and
    encodes a again.
    """
    coding = a.alg.coding(itertools.chain(*a.entries, *extra))
    kept = a._codes
    if kept is None or kept[0] is not coding:
        kept = coding, _encode(coding, a.entries)
        object.__setattr__(a, "_codes", kept)
    return kept


def _dot(coding, xs, ys):
    add, mul = coding.add, coding.mul
    acc = coding.zero
    for x, y in zip(xs, ys):
        acc = add(acc, mul(x, y))
    return acc


def _mat_mul_codes(x, y, coding) -> list:
    cols = list(zip(*y))
    return [[_dot(coding, row, col) for col in cols] for row in x]


# ---------------------------------------------------------------------------
# doubled determinants


@dataclass(frozen=True)
class DoubledDet:
    """Ordered pair of the even-track and odd-track sums, with the number of
    code products the minor layers made for it (0 where none ran)."""

    alg: PairAlgebra
    det_plus: El
    det_minus: El
    products: int = field(default=0, compare=False)

    def total(self) -> El:
        """det_plus + det_minus: the permanent."""
        return self.alg.add(self.det_plus, self.det_minus)

    def is_null_total(self) -> bool:
        return self.alg.is_null(self.total())

    def balanced(self) -> bool:
        return balances(self.alg, self.det_plus, self.det_minus)


def _perms(n):
    """Yield every permutation of range(n) with its parity, in lexicographic
    order, keeping no table.

    Lexicographic order of the permutations is lexicographic order of their
    Lehmer codes, and a code's digit sum is the permutation's inversion count.
    """
    codes = itertools.product(*(range(k) for k in range(n, 0, -1)))
    for perm, code in zip(itertools.permutations(range(n)), codes):
        yield perm, sum(code) & 1


def _det_size(a: Matrix) -> int:
    if not a.is_square:
        raise DimensionMismatch("determinant of a non-square matrix")
    _check_n("determinant", a.rows)
    return a.rows


def _tracks(a: Matrix, what):
    """(permutation, parity, product) for each of the n! tracks of the square
    matrix a, in _perms order, each product multiplied out on elements.  n is
    checked against det_cap() under the name what when this is called."""
    n = a.rows
    _check_n(what, n)
    alg = a.alg
    return ((perm, odd, alg.product(a[perm[c], c] for c in range(n)))
            for perm, odd in _perms(n))


def det_tracks(a: Matrix) -> DoubledDet:
    """Reference parity-split expansion: each of the n! tracks multiplied out
    on its own and folded into its parity's sum, in lexicographic order of
    the permutations.

    Assumes no algebraic law and runs on elements; det_doubled is tested
    against it.
    """
    if not a.is_square:
        raise DimensionMismatch("determinant of a non-square matrix")
    alg = a.alg
    plus = alg.zero
    minus = alg.zero
    for _, odd, track in _tracks(a, "determinant"):
        if odd:
            minus = alg.add(minus, track)
        else:
            plus = alg.add(plus, track)
    return DoubledDet(alg, plus, minus)


def det_method(alg: PairAlgebra) -> str:
    """The path det_doubled takes over alg: "dp" where multiplication
    distributes over addition, "tracks" elsewhere."""
    return "dp" if alg.distributive else "tracks"


def det_doubled(a: Matrix) -> DoubledDet:
    """Exact parity-split determinant (det_plus, det_minus), equal to
    det_tracks.

    Pairs that declare multiplication distributive take the subset DP; every
    other pair takes the grouped track walk, which needs only that addition
    is commutative and associative.
    """
    coding, (p, q), products = _det_codes(a)
    return DoubledDet(a.alg, coding.decode(p), coding.decode(q), products)


def _det_codes(a: Matrix) -> tuple:
    """(coding, (plus, minus), products): det_doubled on codes."""
    n = _det_size(a)
    coding, codes = _coded(a)
    layer, products = _minor_layer(a.alg, codes, range(n), coding)
    return coding, layer[(1 << n) - 1], products


def _minor_layer(alg, codes, cols, coding, plans=None) -> tuple:
    """(layer, products): the layer maps every row set S (a bitmask) with
    |S| = len(cols) to the coded (det_plus, det_minus) of the submatrix on
    rows S and columns cols, and products counts the code products made.

    Both paths walk cols in order on the index plans of len(codes) rows (see
    _plan_step); plans is their store, from _row_plans, for callers that
    walk several layers of one height.  The dict is built once, at the end,
    in the plan's order of the row sets.
    """
    m = len(codes)
    if plans is None:
        plans = _row_plans(m)
    keys, pairs, products = _layer_walk(
        alg, ([row[c] for row in codes] for c in cols), lambda k: _plan(plans, m, k), coding
    )
    return dict(zip(keys, pairs)), products


def _layer_walk(alg, columns, plan, coding) -> tuple:
    """(keys, pairs, products): the coded columns walked in order, column k
    on the plan step plan(k), by _sum_step where multiplication distributes
    and _group_step elsewhere.  keys are the last step's targets ((0,)
    after no column), pairs their coded (plus, minus) in that order, and
    products counts the code products made."""
    if det_method(alg) == "dp":
        step, layer = _sum_step, [coding.one, coding.zero]
    else:
        step, layer = _group_step, [{coding.one: [1, 0]}]
    keys, products = (0,), 0
    for k, col in enumerate(columns):
        plan_k = plan(k)
        layer, made = step(layer, col, plan_k, coding)
        keys, products = plan_k[0], products + made
    if step is _sum_step:
        return keys, _pairs(layer), products
    return keys, [_parity_sums(coding, groups) for groups in layer], products


# Plans of at most this many rows stay in _PLANS once built: m rows take
# m * 2^(m-1) extensions over all their steps, so the cache holds at most
# PLAN_CACHE_EXTENSIONS = 45,057 of them, 4.6 MB under CPython 3.11.  Taller
# plans are built for the call that needs them and dropped with it.
PLAN_CACHE_ROWS = 12
PLAN_CACHE_EXTENSIONS = sum(m << (m - 1) for m in range(1, PLAN_CACHE_ROWS + 1))
_PLANS = {}  # (m, k) -> the plan of column step k over m rows

# Principal plans (see _principal_moves) of at most this many rows stay in
# _PRINCIPAL_PLANS once built.  Those of 1 to 8 rows take
# PRINCIPAL_PLAN_EXTENSIONS = 10,446 extensions over all their steps, about
# 1.3 MB under CPython 3.11; 12 rows alone take 458,268.  Taller plans are
# built for the call that needs them and dropped with it.
PRINCIPAL_PLAN_ROWS = 8
PRINCIPAL_PLAN_EXTENSIONS = 10_446
_PRINCIPAL_PLANS = {}  # (n, j) -> the plan of principal column step j over n rows


def _row_plans(m) -> dict:
    """The plan store for m rows: the cache for m <= PLAN_CACHE_ROWS,
    otherwise a new dict that the caller keeps for its layers."""
    return _PLANS if m <= PLAN_CACHE_ROWS else {}


def _row_moves(m, k, s) -> list:
    """(target, swap, row) for each way row set s of m rows takes one more
    row i at a column step: every row outside s, one inversion per row of s
    with a larger index than i, so an odd number of those swaps the partial
    track's parity."""
    return [(s | 1 << i, (s >> i).bit_count() & 1, i) for i in range(m) if not s >> i & 1]


def _principal_moves(n, j, key) -> list:
    """(target, swap, row) for each way the principal walk over n rows
    extends its state key at column j.

    A state is S | T << n, with S the rows and T the columns taken, so
    column j may skip, by the pseudo-row n whose entry is one, unless row j
    is in S, since then j is in the minor.  Or it takes a row r outside S
    that the minor can still hold: r in T, r = j or r after j, whose
    column is then taken later.  Rows before j outside T belong to skipped
    columns.  So every state of the last step has S = T = P and holds the
    tracks of the principal minor on P."""
    s, t = key & ((1 << n) - 1), key >> n
    moves = [] if s >> j & 1 else [(key, 0, n)]
    took = key | 1 << n + j
    moves += [
        (took | 1 << r, (s >> r).bit_count() & 1, r)
        for r in range(n) if not s >> r & 1 and (r >= j or t >> r & 1)
    ]
    return moves


def _plan(plans, m, k, moves=_row_moves) -> tuple:
    """The plan of column step k over m rows, built with the steps before it
    where plans lacks it; moves (_row_moves by default) gives each state's
    extensions.  A plan depends only on (m, k) and its store's moves, so
    two threads that build one keep the same."""
    step = plans.get((m, k))
    if step is None:
        keys = _plan(plans, m, k - 1, moves)[0] if k else (0,)
        step = plans.setdefault((m, k), _plan_step(keys, [moves(m, k, s) for s in keys]))
    return step


def _plan_step(keys, moves) -> tuple:
    """(targets, exts, size): one column step from the states keys, in
    their layer's order, moves[j] listing the (target, swap, row)
    extensions of keys[j].

    targets lists the states reached, in the order this loop first reaches
    them, and exts[t] holds the extensions that reach targets[t], in loop
    order, as (first, rest).  An extension (a, b, i) takes row i from the
    source at position j = a >> 1: a = 2j and b = 2j + 1 without a swap,
    the other way round with one, so a and b index the source's even and
    odd sums in a flat layer.  size counts the extensions.
    """
    index = {}
    exts = []
    ints = list(range(2 * len(keys)))  # shared int objects keep cached plans small
    for j, ways in enumerate(moves):
        for t, swap, i in ways:
            pos = index.get(t)
            if pos is None:
                pos = index[t] = len(exts)
                exts.append([])
            exts[pos].append((ints[2 * j + swap], ints[2 * j + 1 - swap], i))
    size = sum(map(len, exts))
    return tuple(index), tuple((ext[0], tuple(ext[1:])) for ext in exts), size


def _sum_step(layer, col, step, coding) -> tuple:
    """(next layer, products) where multiplication distributes over
    addition: a flat layer holds each row set's even and odd sums of partial
    track products, and the step extends them by the coded entries col of
    the new column.  Each row set's sums fold its extensions in plan order,
    the first setting them and every later one adding to them."""
    add, mul = coding.add, coding.mul
    nxt = []
    put = nxt.append
    for (a, b, i), rest in step[1]:
        e = col[i]
        x = mul(layer[a], e)
        y = mul(layer[b], e)
        for a, b, i in rest:
            e = col[i]
            x = add(x, mul(layer[a], e))
            y = add(y, mul(layer[b], e))
        put(x)
        put(y)
    return nxt, 2 * step[2]


def _pairs(flat) -> zip:
    """The (even, odd) sums of each row set in a flat layer."""
    it = iter(flat)
    return zip(it, it)


def _group_step(layer, col, step, coding) -> tuple:
    """(next layer, products) for any pair: each row set keeps its distinct
    partial products, each with the number of even and of odd partial tracks
    that reach it.

    Tracks with equal prefixes have equal continuations, since the next
    prefix is mul(prefix, entry), so the grouping is exact for any pair and
    a group costs one multiplication per extension.  A parity's sum is then
    the sum over its distinct products x of k * x, for k tracks.  Zero is
    absorbing and additively neutral, so a zero entry extends nothing and a
    zero product starts no group: every parity sum stays the same, and
    products counts the multiplications made.
    """
    mul, zero = coding.mul, coding.zero
    products = 0
    nxt = []
    for first, rest in step[1]:
        out = {}
        for a, b, i in (first, *rest):
            e = col[i]
            if e == zero:
                continue
            prefixes = layer[a >> 1]
            products += len(prefixes)
            p, q = a & 1, b & 1
            for x, counts in prefixes.items():
                y = mul(x, e)
                if y == zero:
                    continue
                counts_y = out.get(y)
                if counts_y is None:
                    out[y] = [counts[p], counts[q]]
                else:
                    counts_y[0] += counts[p]
                    counts_y[1] += counts[q]
        nxt.append(out)
    return nxt, products


def _parity_sums(coding, prefixes) -> tuple:
    add = coding.add
    sums = [coding.zero, coding.zero]
    for x, counts in prefixes.items():
        for p, k in enumerate(counts):
            if k:
                sums[p] = add(sums[p], _multiple(add, k, x))
    return tuple(sums)


def _multiple(add, k, x):
    """x + x + ... + x with k >= 1 terms, by doubling."""
    acc = None
    while True:
        if k & 1:
            acc = x if acc is None else add(acc, x)
        k >>= 1
        if not k:
            return acc
        x = add(x, x)


def permanent(a: Matrix) -> El:
    """Sum of all tracks regardless of parity (= det_plus + det_minus)."""
    return det_doubled(a).total()


def is_singular(a: Matrix) -> bool:
    """Singularity per the balancing of the two determinant tracks, equal
    to det_doubled(a).balanced(), decided on their codes."""
    coding, pq, _ = _det_codes(a)
    return _balance_codes(a.alg, coding)[pq]


def _column_layers(alg, codes, k, coding):
    """(cols, layer) for every set of k columns of the coded rows codes, in
    lexicographic order, one minor layer each (see _minor_layer), walked as
    they are drawn."""
    plans = _row_plans(len(codes))
    for cols in itertools.combinations(range(len(codes[0])), k):
        yield cols, _minor_layer(alg, codes, cols, coding, plans)[0]


def _singular_minors(a: Matrix, k):
    """(cols, singular) for every set of k columns in lexicographic order,
    from one minor layer each: singular maps each set of k rows (a bitmask)
    to whether that minor's coded tracks balance.  k is checked against
    det_cap() when this is called; the layers are walked as they are drawn."""
    _check_n("determinant", k)

    def walk():
        coding, codes = _coded(a)
        balanced = _balance_codes(a.alg, coding)
        for cols, layer in _column_layers(a.alg, codes, k, coding):
            yield cols, {s: balanced[pq] for s, pq in layer.items()}

    return walk()


def _permanent_minors(alg, codes, k, coding):
    """(cols, permanents) for every set of k columns of the coded rows codes
    in lexicographic order: permanents maps each set of k rows (a bitmask)
    to the code of that minor's permanent, det_plus + det_minus.  k is
    checked against det_cap() when this is called."""
    _check_n("determinant", k)
    add = coding.add
    return ((cols, {s: add(*pq) for s, pq in layer.items()})
            for cols, layer in _column_layers(alg, codes, k, coding))


# ---------------------------------------------------------------------------
# adjoint and Laplace


def _adjugate(a: Matrix, *extra, det=True, nonsingular=False, precondition=None) -> tuple:
    """(coding, codes, rows, det): the coding of the square matrix a and
    extra (see _coded), a's codes, adjoint(a) as rows of coded (plus, minus)
    pairs, and |A| as one, or None without det.

    Before any layer it checks n - 1, the size of the adjoint's minors, and
    then n where it also takes |A|, both against one reading of det_cap().
    A 1 x 1 adjoint has no minor to check.  precondition, when given, is
    then called on a's codes, still before any layer, and may raise.

    Row i is one minor layer over every column but i.  The last row is
    walked first, and |A| right after it: on the DP path |A| extends that
    row's layer by the last column with the last plan step, 2n products
    instead of a layer.  The walk's layer holds summed values, which a
    product need not distribute over, so it takes its own.  With
    nonsingular, a singular |A| raises SingularInput there, before the
    other n - 1 layers.
    """
    alg, n = a.alg, a.rows
    if n > 1 or det:
        cap = det_cap()
        _check_n("determinant", n - 1, cap)
        if det:
            _check_n("determinant", n, cap)
    coding, codes = _coded(a, *extra)
    if precondition is not None:
        precondition(codes)
    plans = _row_plans(n)
    full = (1 << n) - 1

    def layer(i):
        return _minor_layer(alg, codes, [c for c in range(n) if c != i], coding, plans)[0]

    last = layer(n - 1)
    if not det:
        pq = None
    elif det_method(alg) == "dp":
        flat = [x for pq in last.values() for x in pq]
        col = [row[n - 1] for row in codes]
        (pq,) = _pairs(_sum_step(flat, col, _plan(plans, n, n - 1), coding)[0])
    else:
        pq = _minor_layer(alg, codes, range(n), coding, plans)[0][full]
    if nonsingular and _balance_codes(alg, coding)[pq]:
        raise SingularInput("matrix is singular")
    rows = []
    for i in range(n):
        minors = last if i == n - 1 else layer(i)
        row = []
        for j in range(n):
            p, q = minors[full ^ 1 << j]
            row.append((q, p) if (i + j) & 1 else (p, q))
        rows.append(row)
    return coding, codes, rows, pq


def _adjoint_matrix(dalg, coding, rows) -> Matrix:
    dec = coding.decode
    return Matrix(dalg, tuple(tuple(El(dalg.id, (dec(p), dec(q))) for p, q in row) for row in rows))


def adjoint(a: Matrix) -> Matrix:
    """Doubled adjoint: entry (i,j) is the (j,i) minor's doubled determinant,
    switch-adjusted by the parity of i+j."""
    if not a.is_square:
        raise DimensionMismatch("adjoint of a non-square matrix")
    coding, _, rows, _ = _adjugate(a, det=False)
    return _adjoint_matrix(make_doubled(a.alg), coding, rows)


def laplace_expand(a: Matrix, row_set) -> DoubledDet:
    """Generalized Laplace expansion along a set of rows.

    Contract: equals det_doubled(a) exactly, as a doubled element.

    A permutation and its inverse have one parity, so the minor layer of the
    transpose over rows holds the doubled determinant of A on rows x S for
    every column set S, and its layer over the other rows holds every
    complementary minor: two layers instead of 2 * C(n, m) determinants.
    """
    if not a.is_square:
        raise DimensionMismatch("laplace expansion of a non-square matrix")
    n = a.rows
    rows = tuple(sorted(row_set))
    if not rows or len(rows) >= n:
        raise DimensionMismatch("row set must be nonempty and proper")
    _check_n("laplace", n)
    alg = a.alg
    coding, codes = _coded(a)
    add, mul = coding.add, coding.mul
    comp_rows = tuple(i for i in range(n) if i not in rows)
    at = [list(col) for col in zip(*codes)]
    plans = _row_plans(n)
    top, made = _minor_layer(alg, at, rows, coding, plans)
    bottom, more = _minor_layer(alg, at, comp_rows, coding, plans)
    full = (1 << n) - 1
    plus = minus = coding.zero
    for cols in itertools.combinations(range(n), len(rows)):
        s = sum(1 << j for j in cols)
        (p1, n1), (p2, n2) = top[s], bottom[full ^ s]
        # the doubled (twist) product of the two minors
        x = add(mul(p1, p2), mul(n1, n2))
        y = add(mul(p1, n2), mul(n1, p2))
        if (sum(rows) + sum(cols)) & 1:
            x, y = y, x
        plus, minus = add(plus, x), add(minus, y)
    dec = coding.decode
    return DoubledDet(alg, dec(plus), dec(minus), made + more)


# ---------------------------------------------------------------------------
# Cayley-Hamilton


def char_poly_doubled(a: Matrix):
    """Characteristic polynomial coefficients of lambda*I (-) A in the doubled
    pair: coefficient of lambda^(n-k) is switch^k of the sum of the k x k
    principal minors' doubled determinants."""
    dalg = make_doubled(a.alg)
    coding, codes = _coded(a)
    dec = coding.decode
    return [El(dalg.id, (dec(p), dec(q))) for p, q in _char_poly_codes(a, codes, coding)]


def _char_poly_codes(a: Matrix, codes, coding) -> list:
    """char_poly_doubled's coefficients as coded (plus, minus) pairs, for
    a's codes, from one principal walk over the n columns (see
    _principal_moves): its last step holds the doubled determinant of every
    principal minor, and coefficient k sums those on k rows.  n is checked
    before any step."""
    if not a.is_square:
        raise DimensionMismatch("characteristic polynomial of a non-square matrix")
    n = a.rows
    _check_n("determinant", n)
    plans = _PRINCIPAL_PLANS if n <= PRINCIPAL_PLAN_ROWS else {}
    keys, pairs, _ = _layer_walk(
        a.alg,
        ([row[j] for row in codes] + [coding.one] for j in range(n)),
        lambda j: _plan(plans, n, j, _principal_moves),
        coding,
    )
    add = coding.add
    sums = [[coding.zero] * 2 for _ in range(n + 1)]
    for key, (p, q) in zip(keys, pairs):
        acc = sums[(key >> n).bit_count()]
        acc[0], acc[1] = add(acc[0], p), add(acc[1], q)
    return [(q, p) if k & 1 else (p, q) for k, (p, q) in enumerate(sums)]


def cayley_hamilton_check(a: Matrix) -> bool:
    """f(A) entrywise null in the doubled pair, for f the characteristic
    polynomial of A, decided on codes by the doubled nullity of the base
    coordinates (core._doubled_null)."""
    n = a.rows
    _check_n("cayley-hamilton", n, CAYLEY_HAMILTON_CAP)
    make_doubled(a.alg)  # the doubled pair's own caps come first
    # the coefficients are sums of products of entries, so the coding of A
    # covers them
    coding, codes = _coded(a)
    cs = _char_poly_codes(a, codes, coding)
    pluses, minuses = [c[0] for c in cs], [c[1] for c in cs]
    zero, one = coding.zero, coding.one
    # f(A)_ij = (sum c+ (A^(n-k))_ij, sum c- (A^(n-k))_ij): see the module notes
    powers = [[[one if i == j else zero for j in range(n)] for i in range(n)], codes]
    for _ in range(n - 1):
        powers.append(_mat_mul_codes(powers[-1], codes, coding))
    null = _doubled_null(a.alg, coding)
    for i in range(n):
        for j in range(n):
            column = [powers[n - k][i][j] for k in range(n + 1)]
            if not null[_dot(coding, pluses, column), _dot(coding, minuses, column)]:
                return False
    return True


# ---------------------------------------------------------------------------
# quasi-identities and quasi-inverses


def quasi_identity_check(m: Matrix) -> bool:
    """Diagonal 1, null off-diagonal, and M*M = M entrywise."""
    if not m.is_square:
        raise DimensionMismatch("quasi-identity check needs a square matrix")
    alg = m.alg
    for i in range(m.rows):
        for j in range(m.cols):
            if i == j:
                if m[i, j] != alg.one:
                    return False
            elif not alg.is_null(m[i, j]):
                return False
    return mat_mul(m, m).entries == m.entries


@dataclass
class QuasiInverse:
    a_prime: Matrix
    a_tilde: Matrix
    left_identity: Matrix
    right_identity: Matrix
    verified: bool


def quasi_inverse(a: Matrix) -> QuasiInverse:
    """A' = |A|^{-1} adj A, projected to the base where a negation map exists,
    together with the quasi-identity verification and A~ = A'AA'.  adj A
    and |A| come from one adjugate pass, which raises SingularInput on a
    singular A after its first layer."""
    if not a.is_square:
        raise DimensionMismatch("quasi-inverse of a non-square matrix")
    _det_size(a)
    alg = a.alg
    coding, _, rows, (p, q) = _adjugate(a, nonsingular=True)
    det_plus, det_minus = coding.decode(p), coding.decode(q)
    dalg = make_doubled(alg)
    adj = _adjoint_matrix(dalg, coding, rows)
    if alg.negation is not None:
        det = alg.add(det_plus, alg.negation(det_minus))
        if not alg.is_tangible(det):
            raise NonInvertibleDeterminant(f"determinant {det!r} is not tangible")
        if alg.tangible_inverse is None:
            raise NonInvertibleDeterminant(f"{alg.id} has no tangible inverses")
        inv = alg.tangible_inverse(det)
        a_prime = scalar_mat(alg, inv, project_matrix(dalg, adj))
        work = a
    else:
        det = El(dalg.id, (det_plus, det_minus))
        if not dalg.is_tangible(det):
            raise NonInvertibleDeterminant("doubled determinant is not tangible")
        if dalg.tangible_inverse is None:
            raise NonInvertibleDeterminant(f"{dalg.id} has no tangible inverses")
        inv = dalg.tangible_inverse(det)
        a_prime = scalar_mat(dalg, inv, adj)
        work = embed_matrix(dalg, a)
    left = mat_mul(work, a_prime)
    right = mat_mul(a_prime, work)
    verified = quasi_identity_check(left) and quasi_identity_check(right)
    a_tilde = mat_mul(mat_mul(a_prime, work), a_prime)
    return QuasiInverse(a_prime, a_tilde, left, right, verified)


# ---------------------------------------------------------------------------
# Krasner determinants


def krasner_det_contains_zero(a: Matrix) -> bool:
    """Whether some choice of coset representatives makes the classical
    field determinant vanish.  Exhaustive over representative choices."""
    alg = a.alg
    if alg.krasner_field is None:
        raise PairError(f"{alg.id} is not a Krasner quotient instance")
    if not a.is_square:
        raise DimensionMismatch("krasner determinant of a non-square matrix")
    n = a.rows
    _check_n("krasner enumeration", n, KRASNER_CAP)
    p = alg.krasner_field
    cosets = alg.krasner_cosets
    reps = []
    for row in a.entries:
        rrow = []
        for e in row:
            idx = e.payload.bit_length() - 1
            if e.payload != 1 << idx:
                raise PairError("krasner determinant needs tangible-or-zero entries")
            rrow.append(sorted(cosets[idx]))
        reps.append(rrow)
    perms = tuple(_perms(n))  # at most KRASNER_CAP! entries, for this call only
    for choice in itertools.product(
        *[reps[i][j] for i in range(n) for j in range(n)]
    ):
        grid = [choice[i * n : (i + 1) * n] for i in range(n)]
        det = 0
        for perm, odd in perms:
            term = 1
            for c in range(n):
                term = (term * grid[perm[c]][c]) % p
            det = (det - term if odd else det + term) % p
        if det == 0:
            return True
    return False
