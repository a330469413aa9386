"""Dependence search, the three ranks, rank defect, and Conditions A1/A2/A2'.

The dependence existential of the theory is decided by exhaustive search over
a coefficient domain.  For finite pairs the domain is the full tangible set
and verdicts are definitive; for the supertropical pair the default domain is
the entry-ratio heuristic, and a missing witness yields Unknown rather than
an independence claim.

Every search runs on the pair's codes through one walk (`_walk`), built by
one builder (`_coded_walk`) for dependence and span searches over every
pair: the vectors and coefficients are encoded once, coefficient tuples are
walked lexicographically with one row of partial column sums per depth, and
only the witness is decoded.  One per-support search (`_support_search`)
serves every pair.  Over a finite pair every support walks its whole
product; its worst case, the sum over supports of k vectors of |heads| *
|D|^(k-1) tuples, is checked against SEARCH_WORK_CAP before any work, and a
larger search raises CapExceeded.

Over the supertropical pair the codes are ((v * S) << 1) | ghost, None for
zero, S a scale that every entry's and member's denominator divides, and
the search reads values and ghost bits from them.  The entry-ratio domain
holds its members as such codes in ascending value and builds its
`candidates`, the tangible elements, only on access; no search reads them.
The walk's scan costs |D|^(k-2) for a support of k vectors: the leading
coefficient is 1, and the last is tried only at 1 and at the values that
tie its row with some column's partial sum.  A null combination of tangible
vectors attains every column's maximum twice, so supports of size 3 and 4
are solved from patterns of ties, one per column, accepted by the walk's
own column tests: size 3 when the domain holds every tie value (v_p - v_q
in one column), size 4 when also no row has a ghost entry.  A support of 4
vectors of length 4 or more with a ghost entry and a nonsingular 4 x 4
minor has no witness in any domain, and is not scanned.  Every other
support of 3 or more vectors scans.  Over rows with a ghost entry the size-3
tie patterns can miss a witness the scan finds (a ghost can make a column
null alone); such a miss reports as no witness over the heuristic domain.

Supports are visited by one walk (`_walk_supports`), by size and then
lexicographically, with the per-support search built once per call
(`_dependence_search`); it counts the supports it searches and those that
scanned.  A rank, the size of the largest independent set of vectors, is
the walk over every support: since a subset of an independent set is
independent, a support is searched only when every support one vector
smaller inside it is witness-free, and the walk ends at the first size with
no witness-free support, one size past the rank.  `find_dependence` is the
same walk stopped at its first witness: before that witness no support has
one, so none is pruned, and the rows' rank walk reaches the same first
witness, which `rank_report` prints.  A1 and A2 are read off the two ranks
and the submatrix rank, which is taken first.

`preceq_spans`, the search for coefficients whose combination is surpassed
by a target, runs on the same coded walk over every pair, the supertropical
one included, and on the walk over supports stopped at its first span:
each column's sum is tested against the target's entry in place of
nullity, and its worst case, the sum over supports of k vectors of |D|^k
tuples, is bounded by the same cap before any work.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .core import CapExceeded, Codec, PairAlgebra, PairError, _CodeMemo, _code_memo, surpasses0
from .matrices import Matrix, _singular_minors, det_cap


class DomainEmpty(PairError):
    pass


class UndecidableSurpassing(PairError):
    pass


# The most coefficient tuples a non-max-plus dependence search may walk in
# its worst case (see `find_dependence`).  The coded search walks about 1.7
# million tuples a second on a 2-core VM, so a search at the cap takes about
# 1.2 s; a full-rank 6 x 6 krasner:17:1 rank (two searches of 1.51 million,
# of the rows and of the columns) is admitted, a 7 x 7 one (25.6 million)
# refused.
SEARCH_WORK_CAP = 2_000_000
# depth of the supertropical entry-ratio domain, whose sum set grows about
# cubically with it
HEURISTIC_DEPTH_CAP = 16

HOLDS = "HOLDS"
FAILS = "FAILS"
UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class DependenceWitness:
    support: tuple  # 0-based indices into the vector list
    coeffs: tuple  # tangible coefficients, aligned with support

    def kv(self, formatter=None):
        if formatter is None:
            formatter = lambda c: str(c.payload)
        sup = "[" + ",".join(str(i + 1) for i in self.support) + "]"
        return f"support={sup} coeffs=[{','.join(formatter(c) for c in self.coeffs)}]"


@dataclass(frozen=True)
class CoefficientDomain:
    candidates: tuple
    completeness: str  # "exact" | "heuristic"
    depth: Optional[int] = None

    @property
    def exact(self):
        return self.completeness == "exact"

    def __len__(self):
        return len(self.candidates)


@dataclass(frozen=True)
class EntryRatioDomain:
    """The supertropical entry-ratio domain as codes: `coding` is the codec
    of the vectors it was built from, and `members` holds each member's
    code in domain order, which is ascending value.  The search reads codes
    only; `candidates`, the tangible elements, is built on first access."""

    coding: Codec
    members: tuple
    depth: Optional[int] = None
    completeness = "heuristic"
    exact = False

    def __len__(self):
        return len(self.members)

    @cached_property
    def positions(self):
        """Each member code's position in domain order."""
        return {c: i for i, c in enumerate(self.members)}

    @cached_property
    def unit(self):
        """(1 / scale,), code 2: a codec bound to it has a scale the
        members' denominators divide."""
        return (self.coding.decode(2),)

    @cached_property
    def candidates(self):
        return tuple(map(self.coding.decode, self.members))


def exact_domain(alg: PairAlgebra) -> CoefficientDomain:
    if alg.tangibles is None:
        raise PairError(f"{alg.id} has no finite tangible enumeration")
    return CoefficientDomain(tuple(alg.tangibles), "exact")


def entry_ratio_domain(alg, vectors, depth: int = 2) -> EntryRatioDomain:
    """Supertropical heuristic domain: entries, pairwise entry ratios, and
    their products up to the given depth, plus 1.

    Dependence witnesses for singular tangible matrices come from entry
    ratios (proportional rows) and cofactor ratios (ratios of two-entry
    products), all of which live at depth 2.

    In the max-plus values a product is a sum and a ratio a difference, and
    so are they on the codes of tangibles, value * S shifted past the ghost
    bit, S the lcm of the entry denominators.  The sum set is built on the
    codes of the entries' values; it is in bijection with the set of
    rational sums, and `candidates` lists the latter in ascending order.  A
    depth above HEURISTIC_DEPTH_CAP raises CapExceeded before any work.
    """
    if depth > HEURISTIC_DEPTH_CAP:
        raise CapExceeded(f"heuristic depth {depth} exceeds the cap {HEURISTIC_DEPTH_CAP}")
    coding = alg.coding(itertools.chain(*vectors))
    # ~1 clears the ghost bit: the code of the entry's value as a tangible
    codes = {c & ~1 for vec in vectors for c in map(coding.encode, vec) if c is not None}
    gen = {0} | codes | {a - b for a in codes for b in codes}
    out = set(gen)
    current = gen
    for _ in range(depth - 1):
        current = {a + b for a in current for b in gen}
        out |= current
    return EntryRatioDomain(coding, tuple(sorted(out)), depth)


def heuristic_domain(alg: PairAlgebra, vectors, depth: int):
    """The entry-ratio domain of the given depth over a max-plus pair; the
    coefficient 1 alone over any other pair."""
    if alg.max_plus:
        return entry_ratio_domain(alg, vectors, depth)
    return CoefficientDomain((alg.one,), "heuristic", depth)


def default_domain(alg: PairAlgebra, vectors):
    if alg.tangibles is not None:
        return exact_domain(alg)
    return heuristic_domain(alg, vectors, 2)


class _Walk:
    """What one coded search walks (see `_walk`): the codec, the vectors'
    code rows, the head and member codes, one test per column, a hook
    `last` with the member codes' `positions`, and the zero row `zeros` the
    walk starts from."""

    __slots__ = (
        "coding", "add", "mul", "rows", "heads", "members", "tests", "last", "positions", "zeros",
    )

    def __init__(self, coding, rows, heads, members, tests, last=None, positions=None):
        self.coding, self.add, self.mul = coding, coding.add, coding.mul
        self.rows, self.heads, self.members = rows, heads, members
        self.tests, self.last, self.positions = tests, last, positions
        self.zeros = [coding.zero] * len(tests)


def _walk(w, support, depth, sums, picks):
    """Whether some coefficient tuple for the support's rows from `depth` on
    makes every column pass its test, `sums` being the partial column sums
    of the coefficients before `depth`; the first such tuple's codes are
    left in `picks`.

    Tuples are walked in the order of `itertools.product(heads, members,
    ...)`, keeping one row of partial column sums per depth, so a tuple
    costs one product and one sum per column at its last coefficient.  The
    sums are those of elements in the same order, ((0 + c0 v0) + c1 v1) +
    ..., so set-valued sums agree with an element loop's.  At the last depth
    the candidates are tried in order, each until its first column whose
    test fails: an element loop's order, so a test that raises does so at
    the same tuple and column.  Past depth 0, `w.last`, when set, picks the
    last depth's candidates.
    """
    add, mul = w.add, w.mul
    vec = w.rows[support[depth]]
    codes = w.members if depth else w.heads
    if depth == len(support) - 1:
        cols = list(zip(sums, vec, w.tests))
        for c in w.last(w, sums, vec) if depth and w.last else codes:
            for s, x, test in cols:
                if not test[add(s, mul(c, x))]:
                    break
            else:
                picks[depth] = c
                return True
        return False
    for c in codes:
        if _walk(w, support, depth + 1, [add(s, mul(c, x)) for s, x in zip(sums, vec)], picks):
            picks[depth] = c
            return True
    return False


def _coded_walk(alg, vectors, domain, tests=None) -> _Walk:
    """The walk of one search over the vectors: a dependence search, or a
    span search when `tests` is given.

    The codec is bound to the vectors and to the entry-ratio domain's
    `unit`, its member codes rescaled when its scale differs from the
    domain's, or to a listed domain's candidates, each encoded once.  A
    dependence search leads with the code of 1 when the tangibles have
    inverses; every other search leads with the member codes.  `tests`,
    when given, holds one test per column, a function of the element a
    column sum decodes to, memoized on codes for this walk; by default
    every column tests nullity on the codec's `null`.  Only a max-plus
    dependence walk has the hook `last` (`_tie_candidates`), with its
    members deduplicated, each value at its first position.
    """
    positions = None
    if isinstance(domain, EntryRatioDomain):
        unit = domain.unit
        coding = alg.coding(itertools.chain(unit, *vectors))
        step = coding.encode(unit[0]) >> 1  # the scale over the domain's
        if step == 1:
            members, positions = domain.members, domain.positions
        else:
            members = [c * step for c in domain.members]
    else:
        coding = alg.coding(itertools.chain(domain.candidates, *vectors))
        members = list(map(coding.encode, domain.candidates))
    rows = [list(map(coding.encode, vec)) for vec in vectors]
    if tests is not None:
        dec = coding.decode
        tests = [_CodeMemo(lambda c, test=test: test(dec(c))) for test in tests]
        return _Walk(coding, rows, members, members, tests)
    heads = [coding.one] if alg.tangible_inverse is not None else members
    tests = [coding.null] * len(rows[0])
    if not alg.max_plus:
        return _Walk(coding, rows, heads, members, tests)
    if positions is None:
        members = list(dict.fromkeys(members))
        positions = {c: i for i, c in enumerate(members)}
    return _Walk(coding, rows, heads, members, tests, _tie_candidates, positions)


def _tie_candidates(w, sums, vec):
    """The last coefficient's candidates over a max-plus pair, codes in
    domain order: the members equal to 1 (code 0) or to a value
    that ties the last row's entry x with some column's partial sum s.  A
    code with its ghost bit cleared is its value's tangible code, and
    tangible codes subtract as values do, so that value's code is
    (s & ~1) - (x & ~1)."""
    pos = w.positions
    ties = {(s & ~1) - (x & ~1) for s, x in zip(sums, vec) if s is not None and x is not None}
    ties.add(0)
    return sorted(filter(pos.__contains__, ties), key=pos.__getitem__)


def _column_ties(rows, support):
    """Per column, the ties (p, q, d) that two live entries of the support
    could make at the column's maximum: u_p + v_p = u_q + v_q, that is
    u_q - u_p = v_p - v_q, with d its code (see `_tie_candidates`), for
    support positions p < q.
    None when some column's only live entry is tangible, which no
    combination makes null."""
    out = []
    for col in zip(*(rows[i] for i in support)):
        live = [(p, c) for p, c in enumerate(col) if c is not None]
        if len(live) == 1 and not live[0][1] & 1:
            return None
        out.append([
            (p, q, (cp & ~1) - (cq & ~1))
            for (p, cp), (q, cq) in itertools.combinations(live, 2)
        ])
    return out


def _merge_tie(state, p, q, d):
    """`state` with the tie u_q - u_p = d merged in, or None when the two
    contradict.  A state gives each support position its (root, offset),
    u = u_root + offset, the root being the least position of its component;
    position 0 is always a root, and u_0 = 0."""
    rp, op = state[p]
    rq, oq = state[q]
    if rp == rq:
        return state if oq - op == d else None
    shift = op + d - oq  # u_rq - u_rp
    if rp < rq:
        keep, drop = rp, rq
    else:
        keep, drop, shift = rq, rp, -shift
    return tuple((keep, o + shift) if r == drop else (r, o) for r, o in state)


def _tie_states(ties, k):
    """The distinct states of every tie pattern (one tie per column with
    one) that is consistent, merged column by column."""
    states = {tuple((p, 0) for p in range(k))}
    for col in ties:
        if not col:
            continue
        nxt = set()
        for s in states:
            for p, q, d in col:
                t = _merge_tie(s, p, q, d)
                if t is not None:
                    nxt.add(t)
        states = nxt
    return states


def _support_search(alg, w):
    """The first-witness search over one support on the walk `w`: a
    function from a support to (its witness or None, whether it scanned).

    Without the hook `w.last` every support walks its whole product and
    counts as scanned.  The witness is the decoded head and member codes,
    elements equal to the domain's; the decoding is memoized on the codec,
    since it builds an element on some pairs.

    With the hook, over the supertropical pair, the entries and members are
    codes at one scale, and a tangible coefficient's code is even.  The
    leading coefficient is normalized to 1, code 0, the walk's one head.
    The reference is the walk's lexicographic scan: the middle coefficients
    run over the domain in domain order, and the last over the values that
    tie its row with some column's partial sum, the maximum of the others,
    and 1 (`_tie_candidates`); only the coefficients after the leading 1
    need be members; at size 2, with no middle coefficient, the scan is not
    counted as one.  Over tangible rows those last candidates suffice, and a
    size-4 point from the tie patterns need not be checked against them: at
    a null point whose last coefficient ties no column's maximum of the
    others, the last row stays below every maximum (alone above one it would
    leave that column tangible), so the other rows were already a witness on
    a smaller support, searched before this one.

    A null combination of tangible rows has, in every column with a live
    entry, its maximum attained at least twice, so each null point solves
    one tie pattern: one tie u_q - u_p = v_p - v_q per column, merged in a
    union-find with offsets.  A pattern whose ties join all of the support
    gives one point; for k = 4, one whose ties leave two components gives a
    line, walked by its free component's first coefficient in domain order.
    A pattern whose ties join only one pair is skipped: its points make a
    size-2 witness on that pair whose coefficient is that pair's tie value,
    found before this support whenever the domain holds the tie values.

    Sizes 3 and 4 take the tie patterns when the domain holds every tie
    value; size 4 also needs rows free of ghosts (a ghost can dominate a
    column alone, which no tie equation sees).  A ghost support of size 4
    whose rows have a nonsingular 4 x 4 minor has no witness
    (`_minor_certifies`).  Every other support scans.  Size 3 keeps its tie
    patterns over rows with ghosts, where the scan can find a witness the
    patterns miss; a miss still reports as no witness over the heuristic
    domain, never as independence.  The patterns' cost follows their
    distinct states, not their number; it exceeds the scan's only where the
    scan itself is short (a domain of a few members, or a witness among its
    first points), so no size bound picks the path.
    """
    zeros = w.zeros
    decode = _code_memo(w.coding, "decode", w.coding.decode).__getitem__
    ties = w.last is not None

    def search(support):
        k = len(support)
        if ties and 2 < k < 5:
            col_ties = _column_ties(w.rows, support)
            if col_ties is None:
                return None, False
            if _ties_decide(w, support, col_ties):
                codes = _tie_solve(w, support, col_ties)
                if codes is None:
                    return None, False
                return DependenceWitness(support, tuple(map(decode, codes))), False
            if k == 4 and _minor_certifies(alg, w, support):
                return None, False
        picks = [0] * k
        if not _walk(w, support, 0, zeros, picks):
            return None, not ties or k > 2
        return DependenceWitness(support, tuple(map(decode, picks))), not ties or k > 2

    return search


def _has_ghost(w, support):
    """Whether some row of the support has a ghost entry (an odd code)."""
    return any(c is not None and c & 1 for i in support for c in w.rows[i])


def _ties_decide(w, support, ties):
    """Whether the tie patterns decide a support of size 3 or 4 (see
    `_support_search`): the domain holds every tie value and, at size 4,
    the rows have no ghost entry."""
    if not all(d in w.positions for col in ties for _, _, d in col):
        return False
    return len(support) == 3 or not _has_ghost(w, support)


def _minor_certifies(alg, w, support):
    """Whether a support of 4 supertropical vectors of length n >= 4 with a
    ghost entry has a nonsingular 4 x 4 minor, so no witness in any domain.

    A witness's null combination of the rows is null on every column set
    too, so each 4 x 4 submatrix of the rows has dependent rows, and a
    square matrix whose rows have a null tangible combination is singular
    (Izhakian and Rowen, "Supertropical matrix algebra", Israel J. Math.
    182 (2011)).  The minors come from `_singular_minors` on the decoded
    rows, which stops at the first nonsingular column set; under a
    determinant cap below 4 no minor is taken and the support scans.
    """
    if len(w.zeros) < 4 or det_cap() < 4 or not _has_ghost(w, support):
        return False
    a = Matrix(alg, tuple(tuple(map(w.coding.decode, w.rows[i])) for i in support))
    return any(not all(singular.values()) for _, singular in _singular_minors(a, 4))


def _tie_solve(w, support, ties):
    """The scan's first witness on a support of size 3 or 4 (see
    `_support_search`), from the tie patterns: the codes of the accepted
    point lowest in domain order, or None.  A point is accepted when its
    coefficients after the leading 1 are members and the walk's column
    tests pass its combination."""
    k = len(support)
    pos, add, mul, zero = w.positions, w.add, w.mul, w.coding.zero
    cols = list(zip(zip(*(w.rows[i] for i in support)), w.tests))

    def accepted(codes):
        if not all(c in pos for c in codes[1:]):
            return False
        for col, test in cols:
            s = zero
            for c, x in zip(codes, col):
                s = add(s, mul(c, x))
            if not test[s]:
                return False
        return True

    points = []
    for state in _tie_states(ties, k):
        roots = {r for r, _ in state}
        if len(roots) == 1:
            codes = [o for _, o in state]
            if all(c in pos for c in codes[1:]):
                points.append(([pos[c] for c in codes[1:]], codes))
        elif len(roots) == 2 and k == 4:
            codes = _line_point(w, state, cols)
            if codes is not None:
                points.append(([pos[c] for c in codes[1:]], codes))
    points.sort()
    for _, codes in points:
        if accepted(codes):
            return codes
    return None


def _line_point(w, state, cols):
    """The codes of the first point of a two-component tie state (see
    `_tie_solve`) in domain order of its free coefficient t, which is their
    lexicographic order, whose coefficients after the leading 1 are members
    and whose combination passes the walk's column tests; None when there
    is none.

    The free component's coefficients are t + o, and (t + o) x = t (o x)
    for a tangible t, so each column folds its two components once, S0 and
    S1, and a point's column sum is S0 + t S1: exactly the sum of its terms,
    since the supertropical pair distributes and its sum is associative and
    commutative on codes."""
    add, mul, zero, pos = w.add, w.mul, w.coding.zero, w.positions
    if not all(o in pos for r, o in state[1:] if not r):
        return None
    free = [o for r, o in state if r]
    folds = []
    for col, test in cols:
        s0 = s1 = zero
        for (r, o), x in zip(state, col):
            if r:
                s1 = add(s1, mul(o, x))
            else:
                s0 = add(s0, mul(o, x))
        folds.append((s0, s1, test))
    for t in w.members:
        if all(t + o in pos for o in free) and all(
            test[add(s0, mul(t, s1))] for s0, s1, test in folds
        ):
            return [o if r == 0 else t + o for r, o in state]
    return None


def _search_work(m, heads, candidates):
    """Coefficient tuples in the worst case of a coded search over m
    vectors: each support of k vectors walks heads * candidates^(k-1)."""
    return sum(math.comb(m, k) * heads * candidates ** (k - 1) for k in range(1, m + 1))


def _check_work(what, m, heads, candidates):
    """Raise CapExceeded, before any work, when the worst case of a coded
    search over m vectors (see `_search_work`) passes SEARCH_WORK_CAP."""
    work = _search_work(m, heads, candidates)
    if work > SEARCH_WORK_CAP:
        raise CapExceeded(
            f"{what} cap exceeded: {m} vectors need up to {work} "
            f"coefficient tuples, more than {SEARCH_WORK_CAP}"
        )


def _dependence_search(vectors, domain, alg):
    """The per-support search of one call of `find_dependence` or a rank,
    built once for it: `_support_search` on `_coded_walk`'s walk, after
    `_check_work` over any pair but a max-plus one.  The vectors' lengths
    and owners and the domain are checked first."""
    if len(domain) == 0:
        raise DomainEmpty("empty coefficient domain")
    n = len(vectors[0])
    for vec in vectors:
        if len(vec) != n:
            raise PairError("vectors must have equal length")
        alg.check(*vec)
    if not alg.max_plus:
        heads = 1 if alg.tangible_inverse is not None else len(domain)
        _check_work("dependence search", len(vectors), heads, len(domain))
    return _support_search(alg, _coded_walk(alg, vectors, domain))


def _walk_supports(search, m, stats, stop):
    """The walk over the supports of m vectors (see the module docstring):
    (rank, first witness).

    Supports come by size, then lexicographically, and `search` runs on one
    only when every support one vector smaller inside it is witness-free;
    the walk ends at the first size with no witness-free support.  With
    `stop` it ends at the first witness instead and returns no rank.
    `stats`, when given, is increased by the supports searched
    ("supports_tried") and by those that scanned the domain
    ("supports_scanned").
    """
    level, first = [()], None
    tried = scanned = 0
    try:
        for size in range(1, m + 1):
            free, below = [], set(level)
            for base in level:
                for j in range(base[-1] + 1 if base else 0, m):
                    support = (*base, j)
                    if any(support[:i] + support[i + 1:] not in below for i in range(size - 1)):
                        continue
                    tried += 1
                    w, scan = search(support)
                    scanned += scan
                    if w is None:
                        free.append(support)
                    elif first is None:
                        first = w
                        if stop:
                            return None, w
            if not free:
                return size - 1, first
            level = free
        return m, first
    finally:
        if stats is not None:
            stats["supports_tried"] += tried
            stats["supports_scanned"] += scanned


def find_dependence(vectors, domain, alg, *, stats=None):
    """First dependence witness, or None (definitive only for exact domains).

    Supports are enumerated by size then lexicographically; coefficient
    tuples lexicographically in domain order, with the leading coefficient
    normalized to 1 whenever the tangibles form a group.  This is the walk
    over supports (`_walk_supports`) stopped at its first witness: before
    it no support holds a witnessed one, so none is pruned.

    Every support takes `_support_search` on the walk `_coded_walk` builds.
    Over any pair but a max-plus one the search's worst case, the sum over
    supports of k vectors of |heads| * |domain|^(k-1) tuples (|heads| is 1
    when the leading coefficient is 1, |domain| otherwise), is checked
    against SEARCH_WORK_CAP before any work, and CapExceeded raised above
    it.

    `stats`, when given, is a dict whose "supports_tried" and
    "supports_scanned" entries are increased by the supports searched and
    by those of them that scanned the coefficient domain (every support of
    a finite pair; supertropical supports of 3 or more vectors that the tie
    patterns do not decide).
    """
    if not vectors:
        return None
    return _walk_supports(_dependence_search(vectors, domain, alg), len(vectors), stats, True)[1]


def row_rank(a: Matrix, domain=None, stats=None) -> int:
    return _rank_of(a.alg, list(a.entries), domain, stats)[0]


def col_rank(a: Matrix, domain=None, stats=None) -> int:
    return _rank_of(a.alg, [a.col(j) for j in range(a.cols)], domain, stats)[0]


def _rank_of(alg, vectors, domain, stats=None):
    """(rank, first witness) of the vectors: the walk over their supports
    without `stop` (see `_walk_supports`)."""
    if domain is None:
        domain = default_domain(alg, vectors)
    return _walk_supports(_dependence_search(vectors, domain, alg), len(vectors), stats, False)


def submatrix_rank(a: Matrix) -> int:
    """Largest size of a nonsingular square submatrix.

    One minor layer per column set decides that set's minors against every
    row set at once (`matrices._singular_minors`).
    """
    for k in range(min(a.rows, a.cols), 0, -1):
        for _, singular in _singular_minors(a, k):
            if not all(singular.values()):
                return k
    return 0


@dataclass
class ConditionVerdict:
    verdict: str  # HOLDS | FAILS | UNKNOWN
    detail: str = ""
    witness: Optional[DependenceWitness] = None


def check_condition(a: Matrix, which: str, domain=None, stats=None) -> ConditionVerdict:
    """Verdict for Condition A1, A2, or A2'.

    Over heuristic domains only witness-backed verdicts are safe: A1 can only
    Fail, A2 can only Hold, A2' can only Hold; the unsafe directions report
    Unknown.  A1 and A2 are `rank_report`'s verdicts.  `stats` is passed to
    every dependence search (see `find_dependence`).
    """
    if which not in ("a1", "a2", "a2p"):
        raise PairError(f"unknown condition {which!r}")
    alg = a.alg
    rows = list(a.entries)
    if domain is None:
        domain = default_domain(alg, rows)
    if which == "a2p":
        w = find_dependence(rows, domain, alg, stats=stats) if a.rows > a.cols else None
        return _a2prime_verdict(a, w, domain)
    return getattr(rank_report(a, domain, stats), which)


def _a2prime_verdict(a: Matrix, w, domain) -> ConditionVerdict:
    """A2' from w, the dependence search over all the rows."""
    if a.rows <= a.cols:
        return ConditionVerdict(HOLDS, "m <= n: nothing to check")
    if w is not None:
        return ConditionVerdict(HOLDS, "rows dependent", w)
    if domain.exact:
        return ConditionVerdict(FAILS, f"{a.rows} rows of length {a.cols} independent")
    return ConditionVerdict(UNKNOWN, "no witness in heuristic domain")


def _rank_verdict(which, sr, rr, cr, domain) -> ConditionVerdict:
    """A1 or A2 from the submatrix, row and column ranks."""
    if which == "a1":
        ok = sr <= rr and sr <= cr
        if ok:
            if domain.exact:
                return ConditionVerdict(HOLDS, f"submatrix {sr} <= min({rr},{cr})")
            return ConditionVerdict(UNKNOWN, "ranks rest on heuristic independence")
        return ConditionVerdict(FAILS, f"submatrix {sr} > min({rr},{cr})")
    ok = sr >= rr and sr >= cr
    if ok:
        return ConditionVerdict(HOLDS, f"submatrix {sr} >= max({rr},{cr})")
    if domain.exact:
        return ConditionVerdict(FAILS, f"submatrix {sr} < max({rr},{cr})")
    return ConditionVerdict(UNKNOWN, "rank gap rests on heuristic independence")


@dataclass
class RankReport:
    row_rank: int
    col_rank: int
    submatrix_rank: int
    row_witnesses: list = field(default_factory=list)
    a1: Optional[ConditionVerdict] = None
    a2: Optional[ConditionVerdict] = None
    a2prime: Optional[ConditionVerdict] = None
    domain_completeness: str = "exact"
    formatter: Optional[object] = None

    def lines(self):
        out = [
            ("row_rank", str(self.row_rank)),
            ("col_rank", str(self.col_rank)),
            ("submatrix_rank", str(self.submatrix_rank)),
        ]
        for name, v in (("a1", self.a1), ("a2", self.a2), ("a2prime", self.a2prime)):
            if v is not None:
                out.append((name, v.verdict))
                if v.detail:
                    out.append((f"{name}_detail", v.detail))
        for w in self.row_witnesses:
            out.append(("witness", w.kv(self.formatter)))
        out.append(("domain", self.domain_completeness))
        return out


def rank_report(a: Matrix, domain=None, stats=None) -> RankReport:
    """Ranks, the first row witness and the three conditions; `stats` is
    passed to every dependence search (see `find_dependence`).

    The submatrix rank, which the determinant cap bounds, is taken before
    the two walks over supports; the first row witness is the row walk's."""
    rows = list(a.entries)
    if domain is None:
        domain = default_domain(a.alg, rows)
    sr = submatrix_rank(a)
    rr, w = _rank_of(a.alg, rows, domain, stats)
    cr = col_rank(a, domain, stats)
    return RankReport(
        row_rank=rr,
        col_rank=cr,
        submatrix_rank=sr,
        row_witnesses=[] if w is None else [w],
        a1=_rank_verdict("a1", sr, rr, cr, domain),
        a2=_rank_verdict("a2", sr, rr, cr, domain),
        a2prime=_a2prime_verdict(a, w, domain),
        domain_completeness=domain.completeness,
        formatter=a.alg.format_literal,
    )


def rank_defect(a: Matrix):
    """Maximal row sets whose shared zero columns force zero determinants.

    A set S of k rows is reported when its common zero columns number at
    least n+1-k; by the Frobenius count every full-size minor then has
    determinant zero over LZS metatangible pairs.
    """
    alg = a.alg
    m, n = a.rows, a.cols
    zero_cols = [
        frozenset(j for j in range(n) if a[i, j] == alg.zero) for i in range(m)
    ]
    hits = []
    for size in range(1, m + 1):
        for rows in itertools.combinations(range(m), size):
            common = frozenset.intersection(*(zero_cols[i] for i in rows))
            if len(common) >= n + 1 - size:
                maximal = all(
                    not common <= zero_cols[i] for i in range(m) if i not in rows
                )
                if maximal:
                    hits.append((rows, tuple(sorted(common))))
    return hits


def preceq_spans(vectors, target, domain=None, alg=None):
    """Tangible coefficients with sum_i a_i v_i <=_0 target, componentwise.

    Returns (coefficients aligned with vectors, induced_witness) where the
    induced witness exists when Property N holds: target + sum dagger(a_i) v_i
    lands in the null layer.  Returns None when no assignment is found.

    The first assignment in `find_dependence`'s order, none normalized, is
    found on the walk `_coded_walk` builds, each column's sum tested
    against the target's entry; an undecidable surpassing raises
    UndecidableSurpassing.  Owners and lengths are checked first, then the
    worst case, sum_k C(m, k) |domain|^k tuples, against SEARCH_WORK_CAP.
    """
    if alg is None:
        raise UndecidableSurpassing("algebra required")
    n = len(target)
    for vec in vectors:
        if len(vec) != n:
            raise PairError("vectors and target must have equal length")
        alg.check(*vec)
    alg.check(*target)
    if domain is None:
        domain = default_domain(alg, list(vectors) + [target])
    m = len(vectors)
    _check_work("span search", m, len(domain), len(domain))
    if not vectors:
        return None

    def surpassed_by(t):
        def test(e):
            try:
                return surpasses0(alg, e, t)
            except PairError as exc:
                raise UndecidableSurpassing(str(exc))

        return test

    walk = _coded_walk(alg, vectors, domain, [surpassed_by(t) for t in target])
    w = _walk_supports(_support_search(alg, walk), m, None, True)[1]
    if w is None:
        return None
    full = [alg.zero] * m
    for i, c in zip(w.support, w.coeffs):
        full[i] = c
    witness = None
    if alg.dagger is not None:
        vecs = [target, *(vectors[i] for i in w.support)]
        coeffs = (alg.one, *map(alg.dagger, w.coeffs))
        sums = (alg.sum(alg.mul(c, v[j]) for c, v in zip(coeffs, vecs)) for j in range(n))
        if all(map(alg.is_null, sums)):
            witness = DependenceWitness(tuple(range(len(vecs))), coeffs)
    return tuple(full), witness
