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
tie its row with some column's partial sum.  Under the default domain
(`default_domain`) a support of 3 or more vectors is decided by its minors
instead (`_minor_search`): a nonsingular k x k minor rules out a witness in
any domain, and otherwise the cofactors on k - 1 columns give one, which
the walk's own column tests accept.  A support the minors leave undecided
scans once its |D|^(k-2) passes SEARCH_WORK_CAP's check; under any other
domain every support scans, and the worst case, the sum over supports of k
>= 3 vectors of |D|^(k-2) tuples, is checked against the cap before any
work.

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
from .matrices import Matrix, _permanent_minors, _singular_minors, det_cap


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


class _DefaultDomain(EntryRatioDomain):
    """The depth-2 entry-ratio domain as `default_domain` builds it: the one
    domain whose supertropical supports of 3 or more vectors its minors
    decide (see `_support_search`), with any tangible coefficients."""


def default_domain(alg: PairAlgebra, vectors):
    if alg.tangibles is not None:
        return exact_domain(alg)
    d = heuristic_domain(alg, vectors, 2)
    return _DefaultDomain(d.coding, d.members, d.depth) if alg.max_plus else d


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


def _support_search(alg, w, minors=False):
    """The first-witness search over one support on the walk `w`: a
    function from a support to (its witness or None, whether it scanned).

    Without the hook `w.last` every support walks its whole product and
    counts as scanned.  The witness is the decoded head and member codes,
    elements equal to the domain's; the decoding is memoized on the codec,
    since it builds an element on some pairs.

    With the hook (the supertropical pair) the walk leads with 1, code 0,
    runs the middle coefficients over the domain in domain order and the
    last over `_tie_candidates`; a support of 2 vectors, with no middle
    coefficient, does not count as a scan.  With `minors` (the default
    domain) a support of 3 or more vectors is decided by `_minor_search`
    where it can be, and otherwise scans once its |D|^(k-2) tuples pass
    `_check_work`.
    """
    zeros = w.zeros
    decode = _code_memo(w.coding, "decode", w.coding.decode).__getitem__
    ties = w.last is not None

    def witness(support, codes):
        return None if codes is None else DependenceWitness(support, tuple(map(decode, codes)))

    def search(support):
        k = len(support)
        if minors and k > 2:
            decided, codes = _minor_search(alg, w, support)
            if decided:
                return witness(support, codes), False
            _check_work("dependence search", k, len(w.members) ** (k - 2))
        picks = [0] * k
        found = _walk(w, support, 0, zeros, picks)
        return witness(support, picks if found else None), not ties or k > 2

    return search


def _minor_search(alg, w, support):
    """A support of k >= 3 supertropical vectors decided by the minors of
    its rows on the walk's codes: (True, None) when it has no witness,
    (True, codes) with a witness's coefficient codes, and (False, None)
    when the minors leave it undecided.  Only minors of at most det_cap()
    rows are taken.

    Independence.  A witness's null combination of the rows is null on any
    k columns, and a square matrix whose rows have a null tangible
    combination is singular (Izhakian and Rowen, "Supertropical matrix
    algebra", Israel J. Math. 182 (2011)): one nonsingular k x k minor
    rules out a witness in any domain.

    Dependence.  Otherwise, for k - 1 columns J, let c_i be the permanent
    of the rows but i on J.  By Laplace's expansion along the last column,
    sum_i c_i a_ij is the permanent of the rows on J and j: for j in J, of
    a matrix with two equal columns, whose tracks pair off at equal values,
    so null; for j outside J, of a singular k x k minor, so null.  A
    coefficient must be tangible, so each c_i is lifted to its tangible
    value and scaled by c_0^-1, to lead with 1 as the walk's witnesses do.
    The lift keeps every column sum's value but can leave its maximum to
    one term that a ghost c_i made null: the point is a witness only when
    the walk's own column tests pass it, and J runs over the column sets in
    order until one does.  A zero c_i gives no point.
    """
    k, cap, coding = len(support), det_cap(), w.coding
    rows, full = [w.rows[i] for i in support], (1 << k) - 1
    if k <= cap:
        for _, per in _permanent_minors(alg, rows, k, coding):
            if not coding.null[per[full]]:
                return True, None
    if k - 1 <= cap:
        for _, per in _permanent_minors(alg, rows, k - 1, coding):
            c = [per[full ^ 1 << i] for i in range(k)]
            if None in c:
                continue
            codes = [(x & ~1) - (c[0] & ~1) for x in c]
            sums = w.zeros
            for u, row in zip(codes, rows):
                sums = [w.add(s, w.mul(u, x)) for s, x in zip(sums, row)]
            if all(test[s] for s, test in zip(sums, w.tests)):
                return True, codes
    return False, None


def _search_work(m, heads, candidates):
    """Coefficient tuples in the worst case of a coded search over m
    vectors: each support of k vectors walks heads * candidates^(k-1)."""
    return sum(math.comb(m, k) * heads * candidates ** (k - 1) for k in range(1, m + 1))


def _scan_work(m, members):
    """Coefficient tuples in the worst case of a supertropical scan over m
    vectors: members^(k-2) per support of k >= 3 (see `_support_search`)."""
    return sum(math.comb(m, k) * members ** (k - 2) for k in range(3, m + 1))


def _check_work(what, m, work):
    """Raise CapExceeded, before any work, when `work`, the worst case of a
    coded search over m vectors, passes SEARCH_WORK_CAP."""
    if work > SEARCH_WORK_CAP:
        raise CapExceeded(
            f"{what} cap exceeded: {m} vectors need up to {work} "
            f"coefficient tuples, more than {SEARCH_WORK_CAP}"
        )


def _dependence_search(vectors, domain, alg):
    """The per-support search of one call of `find_dependence` or a rank,
    built once for it: `_support_search` on `_coded_walk`'s walk, with
    minors under the default domain, after `_check_work` on every other
    domain.  The vectors' lengths and owners and the domain are checked
    first."""
    if len(domain) == 0:
        raise DomainEmpty("empty coefficient domain")
    n = len(vectors[0])
    for vec in vectors:
        if len(vec) != n:
            raise PairError("vectors must have equal length")
        alg.check(*vec)
    m, d = len(vectors), len(domain)
    minors = isinstance(domain, _DefaultDomain)
    if not alg.max_plus:
        heads = 1 if alg.tangible_inverse is not None else d
        _check_work("dependence search", m, _search_work(m, heads, d))
    elif not minors:
        _check_work("dependence search", m, _scan_work(m, d))
    return _support_search(alg, _coded_walk(alg, vectors, domain), minors)


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
    it; over the supertropical pair under any domain but the default, so
    is the sum over supports of k >= 3 vectors of |domain|^(k-2).

    `stats`, when given, is a dict whose "supports_tried" and
    "supports_scanned" entries are increased by the supports searched and
    by those of them that scanned the coefficient domain: every support of
    a finite pair; over the supertropical pair, every support of 3 or more
    vectors under an explicit domain, and under the default domain only
    those that its minors leave undecided (see `_support_search`).
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
    _check_work("span search", m, _search_work(m, len(domain), len(domain)))
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
