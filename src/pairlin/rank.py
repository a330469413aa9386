"""Dependence search, the three ranks, rank defect, and Conditions A1/A2/A2'.

The dependence existential of the theory is decided by exhaustive search over
a coefficient domain.  For finite pairs the domain is the full tangible set
and verdicts are definitive; for the supertropical pair the default domain is
the entry-ratio heuristic, and a missing witness yields Unknown rather than
an independence claim.

The supertropical search runs on integers: entry values and domain members
are multiplied by a common denominator, the entry-ratio domain is held as a
set of such integers, and `Fraction` coefficients are built only for the
witness returned.  A domain's `candidates` tuple of tangible elements, which
the other searches iterate, is built from the integers on first access.

Its reference is a lexicographic scan of the domain, which costs |D|^(k-2)
for a support of k vectors; at size 2, with no middle coefficient, it tries
1 and the two rows' tie values.  A null combination of tangible vectors
attains every column's maximum twice, so supports of size 3 and 4 are
solved from patterns of ties, one per column, when the patterns reach every
witness the scan accepts: size 3 when the domain holds every tie value
(v_p - v_q in one column), size 4 when also no row has a ghost entry.  Every
other support scans (see `_super_search`).  `find_dependence` counts the
supports it tries and those of 3 or more vectors that scanned.

Over every other pair the search runs on the pair's codes (`_coded_search`):
the vectors and coefficients are encoded once, coefficient tuples are walked
lexicographically with one row of partial column sums per depth, nullity is
tested on codes through a memo, and only the witness holds elements.  Its
worst case, the sum over supports of k vectors of |heads| * |D|^(k-1)
tuples, is checked against SEARCH_WORK_CAP before any work, and a larger
search raises CapExceeded.

`preceq_spans`, the search for coefficients whose combination is surpassed
by a target, runs on the same coded walk over every pair, the supertropical
one included: each column's sum is tested against the target's entry in
place of nullity, and its worst case, the sum over supports of k vectors of
|D|^k tuples, is bounded by the same cap before any work.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .core import PairAlgebra, PairError, surpasses0
from .instances import st_tan, st_value
from .matrices import (
    HEURISTIC_DEPTH_CAP,
    CapExceeded,
    Matrix,
    _check_n,
    _CodeMemo,
    _code_memo,
    _singular_minors,
)


class DomainEmpty(PairError):
    pass


class UndecidableSurpassing(PairError):
    pass


# The most coefficient tuples a non-max-plus dependence search may walk in
# its worst case (see `find_dependence`).  The coded search walks about 1.7
# million tuples a second on a 2-core VM, so a search at the cap takes about
# 1.2 s; a full-rank 6 x 6 krasner:17:1 rank (three searches of 1.51 million)
# is admitted, a 7 x 7 one (25.6 million) refused.
SEARCH_WORK_CAP = 2_000_000

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


def _times(v, scale):
    """The integer v * scale, for a Fraction v whose denominator divides it."""
    return v.numerator * (scale // v.denominator)


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
    """The supertropical entry-ratio domain as a set of integers.

    The integer x in `scaled` stands for the tangible coefficient of value
    x / scale.  The search reads only `scale` and `positions`; `candidates`,
    the tuple of tangible elements, is built on first access.
    """

    scale: int
    scaled: frozenset
    depth: Optional[int] = None
    completeness = "heuristic"
    exact = False

    def __len__(self):
        return len(self.scaled)

    def __contains__(self, v):
        """Whether the rational v is the value of a candidate."""
        v = Fraction(v)
        return self.scale % v.denominator == 0 and _times(v, self.scale) in self.scaled

    @cached_property
    def positions(self):
        """Each member's position in domain order, which is ascending value."""
        return {x: i for i, x in enumerate(sorted(self.scaled))}

    @cached_property
    def candidates(self):
        return tuple(st_tan(Fraction(x, self.scale)) for x in self.positions)


def _positions(domain):
    """(scale, positions): a supertropical domain's members as integers, x
    standing for value x / scale, each mapped to its position in domain
    order."""
    if isinstance(domain, EntryRatioDomain):
        return domain.scale, domain.positions
    vals = [st_value(c) for c in domain.candidates]
    scale = math.lcm(*(v.denominator for v in vals))
    positions = {}
    for v in vals:
        positions.setdefault(_times(v, scale), len(positions))
    return scale, positions


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

    In the max-plus values a product is a sum and a ratio a difference.
    Every entry value is multiplied by S, the lcm of the entry denominators,
    so the sum set is built over integers; it is in bijection with the set
    of rational sums, and `candidates` lists the latter in ascending order.
    A depth above HEURISTIC_DEPTH_CAP raises CapExceeded before any work.
    """
    if depth > HEURISTIC_DEPTH_CAP:
        raise CapExceeded(f"heuristic depth {depth} exceeds the cap {HEURISTIC_DEPTH_CAP}")
    vals = {st_value(e) for vec in vectors for e in vec if e.payload is not None}
    scale = math.lcm(*(v.denominator for v in vals))
    ints = {_times(v, scale) for v in vals}
    gen = {0} | ints | {a - b for a in ints for b in ints}
    out = set(gen)
    current = gen
    for _ in range(depth - 1):
        current = {a + b for a in current for b in gen}
        out |= current
    return EntryRatioDomain(scale, frozenset(out), depth)


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


def _super_raw(vectors, scale):
    """(L, grid): L is the lcm of `scale` and the entry denominators, and the
    grid holds (layer, value * L) for each entry, (None, None) for zero."""
    live = [e.payload for vec in vectors for e in vec if e.payload is not None]
    big = math.lcm(scale, *(v.denominator for _, v in live))

    def cell(p):
        return (None, None) if p is None else (p[0], _times(p[1], big))

    return big, [[cell(e.payload) for e in vec] for vec in vectors]


def _super_combo_null(raw, support, values):
    # values: coefficient values aligned with support; rows tangible or not
    n = len(raw[0])
    for j in range(n):
        best = None
        best_layer = None
        count = 0
        for i, cv in zip(support, values):
            layer, v = raw[i][j]
            if layer is None:
                continue
            t = cv + v
            if best is None or t > best:
                best, best_layer, count = t, layer, 1
            elif t == best:
                count += 1
                best_layer = "g"
        if best is None:
            continue
        if count == 1 and best_layer == "t":
            return False
    return True


def _column_ties(raw, support):
    """Per column, the ties (p, q, d) that two live entries of the support
    could make at the column's maximum: u_p + v_p = u_q + v_q, that is
    u_q - u_p = d = v_p - v_q, for support positions p < q.  None when some
    column's only live entry is tangible, which no combination makes null."""
    out = []
    for j in range(len(raw[0])):
        live = [(p, raw[i][j]) for p, i in enumerate(support) if raw[i][j][0] is not None]
        if len(live) == 1 and live[0][1][0] == "t":
            return None
        out.append([
            (p, q, vp - vq)
            for (p, (_, vp)), (q, (_, vq)) in itertools.combinations(live, 2)
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


def _super_search(raw, scale, dscale, positions, support):
    """Deterministic first-witness search over one support, supertropical:
    (witness or None, whether the domain scan ran).

    `raw` holds the entries as integers, value * scale (see `_super_raw`),
    and `positions` maps each domain member, an integer x standing for value
    x / dscale, to its position in domain order; `scale` is a multiple of
    `dscale`.  The search works on these integers throughout and builds the
    tangible coefficients only for the witness it returns.

    The leading coefficient is normalized to 1.  The reference is the
    lexicographic domain scan: the middle coefficients run over the domain
    in domain order, and the last over the values that tie it with the
    maximum of the others in some column (and 1); only the coefficients
    after the leading 1 need be members; at size 2, with no middle
    coefficient, the scan is not counted as one.  A null combination of
    tangible rows has, in every column with a live entry, its maximum
    attained at least twice, so each null point solves one tie pattern: one
    tie u_q - u_p = v_p - v_q per column, merged in a union-find with
    offsets.  A pattern whose ties join all of the support gives one point;
    for k = 4, one whose ties leave two components gives a line, walked by
    its free component's first coefficient in domain order.  A pattern
    whose ties join only one pair is skipped: its points make a size-2
    witness on that pair whose coefficient is that pair's tie value, found
    before this support whenever the domain holds the tie values.

    Sizes 3 and 4 take the tie patterns when the domain holds every tie
    value; size 4 also needs rows free of ghosts (a ghost can dominate a
    column alone, which no tie equation sees).  Every other support scans.
    Size 3 keeps its tie patterns over rows with ghosts, where a miss still
    reports as no witness over the heuristic domain, never as independence.
    The patterns' cost follows their distinct states, not their number; it
    exceeds the scan's only where the scan itself is short (a domain of a
    few members, or a witness among its first points), so no size bound
    picks the path.

    A size-4 point need not be checked against the scan's last candidates:
    over such rows, reached only when no smaller support has a witness, a
    null point whose last coefficient ties no column's maximum of the others
    keeps its last row below every maximum, so the other three rows were
    already a size-3 witness.
    """
    step = scale // dscale

    def in_domain(y):
        return y % step == 0 and y // step in positions

    def key(y):
        return positions[y // step]

    def witness(vals):
        return DependenceWitness(
            support, tuple(st_tan(Fraction(v, scale)) for v in vals)
        )

    k = len(support)
    n = len(raw[0])
    if k == 1:
        if _super_combo_null(raw, support, [0]):
            return witness([0]), False
        return None, False

    def candidates_for_last(prefix_vals):
        last = support[-1]
        cands = set()
        for j in range(n):
            layer, v = raw[last][j]
            if layer is None:
                continue
            best = None
            for i, cv in zip(support[:-1], prefix_vals):
                li, vi = raw[i][j]
                if li is None:
                    continue
                t = cv + vi
                if best is None or t > best:
                    best = t
            if best is not None:
                cands.add(best - v)
        cands.add(0)
        return sorted(filter(in_domain, cands), key=key)

    # size 2 has no middle coefficient, so its scan is not counted as one
    scanned = k > 2
    members = [x * step for x in positions] if scanned else ()
    if k in (3, 4):
        ties = _column_ties(raw, support)
        if ties is None:
            return None, False
        if _ties_decide(raw, support, ties, in_domain):
            vals = _tie_solve(raw, support, ties, members, in_domain, key)
            return (None if vals is None else witness(vals)), False

    for mid in itertools.product(members, repeat=k - 2):
        prefix = [0, *mid]
        for last in candidates_for_last(prefix):
            vals = prefix + [last]
            if _super_combo_null(raw, support, vals):
                return witness(vals), scanned
    return None, scanned


def _ties_decide(raw, support, ties, in_domain):
    """Whether the tie patterns decide a support of size 3 or 4 (see
    `_super_search`): the domain holds every tie value and, at size 4, the
    rows have no ghost entry."""
    if not all(in_domain(d) for col in ties for _, _, d in col):
        return False
    return len(support) == 3 or all(
        layer != "g" for i in support for layer, _ in raw[i]
    )


def _tie_solve(raw, support, ties, members, in_domain, key):
    """The scan's first witness on a support of size 3 or 4 (see
    `_super_search`), from the tie patterns: the accepted point lowest in
    domain-key order, or None.  A point is accepted when its coefficients
    after the leading 1 are domain members and its combination is null."""
    k = len(support)

    def accepted(vals):
        return all(map(in_domain, vals[1:])) and _super_combo_null(raw, support, vals)

    points = []
    for state in _tie_states(ties, k):
        roots = {r for r, _ in state}
        if len(roots) == 1:
            vals = [o for _, o in state]
            if all(map(in_domain, vals[1:])):
                points.append((tuple(map(key, vals[1:])), vals))
        elif len(roots) == 2 and k == 4:
            # the line's points in domain-key order of its first free
            # coefficient, which is their lexicographic order
            for t in members:
                vals = [o if r == 0 else t + o for r, o in state]
                if accepted(vals):
                    points.append((tuple(map(key, vals[1:])), vals))
                    break
    points.sort()
    for _, vals in points:
        if accepted(vals):
            return vals
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


def _coded_search(alg, vectors, heads, candidates, tests=None):
    """The first-witness search over one support, run on the pair's codes:
    a function from a support to its witness or None.

    The codec is bound to the entries and the coefficients, and each is
    encoded once.  Coefficient tuples are walked in the order of
    `itertools.product(heads, candidates, ...)`, keeping one row of partial
    column sums per depth, so a tuple costs one product and one sum per
    column at its last coefficient.  The sums are those of elements in the
    same order, ((0 + c0 v0) + c1 v1) + ..., so set-valued sums agree with
    an element loop's.  At the last depth the candidates are tried in
    order, each until its first column whose test fails: an element loop's
    order, so a test that raises does so at the same tuple and column.  The
    witness's coefficients are the given elements, never decoded.

    `tests`, when given, holds one test per column, a function of the
    element a column sum decodes to, memoized on codes for this search; by
    default every column tests nullity through the pair's memo.
    """
    coding = alg.coding(itertools.chain(heads, candidates, *vectors))
    enc, add, mul, dec = coding.encode, coding.add, coding.mul, coding.decode
    rows = [[enc(e) for e in vec] for vec in vectors]
    head_codes = [enc(c) for c in heads]
    cand_codes = [enc(c) for c in candidates]
    n = len(rows[0])
    if tests is None:
        is_null = alg._is_null
        # code -> whether the element it decodes to is null
        tests = [_code_memo(alg, coding, "null_codes", lambda c: is_null(dec(c)))] * n
    else:
        tests = [_CodeMemo(lambda c, test=test: test(dec(c))) for test in tests]
    zero_row = [coding.zero] * n

    def search(support):
        last = len(support) - 1
        picks = [0] * len(support)

        def walk(depth, sums):
            vec = rows[support[depth]]
            codes = cand_codes if depth else head_codes
            if depth == last:
                cols = list(zip(sums, vec, tests))
                for i, c in enumerate(codes):
                    for s, x, test in cols:
                        if not test[add(s, mul(c, x))]:
                            break
                    else:
                        picks[depth] = i
                        return True
                return False
            for i, c in enumerate(codes):
                if walk(depth + 1, [add(s, mul(c, x)) for s, x in zip(sums, vec)]):
                    picks[depth] = i
                    return True
            return False

        if not walk(0, zero_row):
            return None
        return DependenceWitness(
            support, (heads[picks[0]], *(candidates[i] for i in picks[1:]))
        )

    return search


def find_dependence(vectors, domain, alg, *, stats=None):
    """First dependence witness, or None (definitive only for exact domains).

    Supports are enumerated by size then lexicographically; coefficient
    tuples lexicographically in domain order, with the leading coefficient
    normalized to 1 whenever the tangibles form a group.

    Over a max-plus pair each support takes `_super_search`.  Over any other
    pair every support walks its coefficient tuples on the pair's codes
    (`_coded_search`).  That search's worst case, the sum over supports of
    k vectors of |heads| * |domain|^(k-1) tuples (|heads| is 1 when the
    leading coefficient is 1, |domain| otherwise), is checked against
    SEARCH_WORK_CAP before any work, and CapExceeded raised above it.

    `stats`, when given, is a dict whose "supports_tried" and
    "supports_scanned" entries are increased by the supports searched and
    by those of them that scanned the coefficient domain (every support of
    a finite pair; supertropical supports of 3 or more vectors that the tie
    patterns do not decide).
    """
    if not vectors:
        return None
    if len(domain) == 0:
        raise DomainEmpty("empty coefficient domain")
    m = len(vectors)
    n = len(vectors[0])
    for vec in vectors:
        if len(vec) != n:
            raise PairError("vectors must have equal length")
        for e in vec:
            alg.check(e)
    supertrop = alg.max_plus
    if supertrop:
        dscale, positions = _positions(domain)
        scale, raw = _super_raw(vectors, dscale)
    else:
        heads = (alg.one,) if alg.tangible_inverse is not None else domain.candidates
        _check_work("dependence search", m, len(heads), len(domain))
        search = _coded_search(alg, vectors, heads, domain.candidates)
    tried = scanned = 0
    try:
        for size in range(1, m + 1):
            for support in itertools.combinations(range(m), size):
                tried += 1
                if supertrop:
                    w, scan = _super_search(raw, scale, dscale, positions, support)
                    scanned += scan
                    if w is not None:
                        return w
                    continue
                scanned += 1
                w = search(support)
                if w is not None:
                    return w
        return None
    finally:
        if stats is not None:
            stats["supports_tried"] += tried
            stats["supports_scanned"] += scanned


def row_rank(a: Matrix, domain=None, stats=None) -> int:
    return _rank_of(a.alg, list(a.entries), domain, stats)


def col_rank(a: Matrix, domain=None, stats=None) -> int:
    return _rank_of(a.alg, [a.col(j) for j in range(a.cols)], domain, stats)


def _rank_of(alg, vectors, domain, stats=None):
    if domain is None:
        domain = default_domain(alg, vectors)
    m = len(vectors)
    for k in range(m, 0, -1):
        for subset in itertools.combinations(range(m), k):
            if find_dependence([vectors[i] for i in subset], domain, alg, stats=stats) is None:
                return k
    return 0


def submatrix_rank(a: Matrix) -> int:
    """Largest size of a nonsingular square submatrix.

    One minor layer per column set decides that set's minors against every
    row set at once (`matrices._singular_minors`).
    """
    for k in range(min(a.rows, a.cols), 0, -1):
        _check_n("determinant", k)
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
    Unknown.  `stats` is passed to every dependence search (see
    `find_dependence`).
    """
    alg = a.alg
    rows = list(a.entries)
    if domain is None:
        domain = default_domain(alg, rows)
    if which == "a2p":
        w = find_dependence(rows, domain, alg, stats=stats) if a.rows > a.cols else None
        return _a2prime_verdict(a, w, domain)
    if which not in ("a1", "a2"):
        raise PairError(f"unknown condition {which!r}")
    return _rank_verdict(
        which, submatrix_rank(a), row_rank(a, domain, stats), col_rank(a, domain, stats),
        domain,
    )


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
    passed to every dependence search (see `find_dependence`)."""
    rows = list(a.entries)
    if domain is None:
        domain = default_domain(a.alg, rows)
    rr, cr, sr = row_rank(a, domain, stats), col_rank(a, domain, stats), submatrix_rank(a)
    rep = RankReport(
        row_rank=rr,
        col_rank=cr,
        submatrix_rank=sr,
        domain_completeness=domain.completeness,
        formatter=a.alg.format_literal,
    )
    w = find_dependence(rows, domain, a.alg, stats=stats)
    if w is not None:
        rep.row_witnesses.append(w)
    rep.a1 = _rank_verdict("a1", sr, rr, cr, domain)
    rep.a2 = _rank_verdict("a2", sr, rr, cr, domain)
    rep.a2prime = _a2prime_verdict(a, w, domain)
    return rep


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
    found on the pair's codes (`_coded_search`), each column's sum tested
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

    cands = domain.candidates
    search = _coded_search(alg, vectors, cands, cands, [surpassed_by(t) for t in target])
    supports = (s for k in range(1, m + 1) for s in itertools.combinations(range(m), k))
    w = next((w for w in map(search, supports) if w is not None), None)
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
