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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .core import PairAlgebra, PairError, balances, surpasses0
from .instances import st_tan, st_value
from .matrices import HEURISTIC_DEPTH_CAP, CapExceeded, Matrix, _coded, _column_layers, det_cap


class DomainEmpty(PairError):
    pass


class UndecidableSurpassing(PairError):
    pass


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
    x / scale.  The search reads only `scale`, `scaled`, `ordered` and `key`;
    `candidates`, the tuple of tangible elements, is built on first access.
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

    @staticmethod
    def key(x):
        """Position of a member in domain order, which is ascending value."""
        return x

    @cached_property
    def ordered(self):
        return sorted(self.scaled)

    @cached_property
    def candidates(self):
        return tuple(st_tan(Fraction(x, self.scale)) for x in self.ordered)


class _ListedView:
    """Integer view of a supertropical domain given as a candidate tuple:
    the same members as an `EntryRatioDomain`, in tuple order."""

    def __init__(self, candidates):
        vals = [st_value(c) for c in candidates]
        self.scale = math.lcm(*(v.denominator for v in vals))
        self.scaled = {}
        for v in vals:
            self.scaled.setdefault(_times(v, self.scale), len(self.scaled))
        self.ordered = list(self.scaled)

    def key(self, x):
        return self.scaled[x]


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


def _combo_null(alg, vectors, support, coeffs) -> bool:
    n = len(vectors[0])
    for j in range(n):
        acc = alg.zero
        for i, c in zip(support, coeffs):
            acc = alg.add(acc, alg.mul(c, vectors[i][j]))
        if not alg.is_null(acc):
            return False
    return True


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


def _super_search(raw, scale, view, support):
    """Deterministic first-witness search over one support, supertropical.

    `raw` holds the entries as integers, value * scale (see `_super_raw`),
    and `view` is the domain as integers, member x standing for value
    x / view.scale; `scale` is a multiple of `view.scale`.  The search works
    on these integers throughout and builds the tangible coefficients only
    for the witness it returns.

    The leading coefficient is normalized to 1.  A null combination of
    tangible rows must, in every column, have its maximum attained at least
    twice, so the feasible coefficient vectors are cut out by per-column tie
    equations.  Supports of size <= 3 are solved by enumerating tie patterns
    and keeping the solutions that are domain members; over tangible rows
    this visits exactly the feasible set of the lexicographic domain scan, in
    the same order, without the scan.  Rows with ghost entries can also be
    killed by a ghost dominating a column outright, which tie equations do
    not see; supertropical domains are heuristic, so a miss there still
    reports as no-witness, never as independence.  Larger supports scan the
    middle coefficients over the domain in domain order and solve for the
    last one.
    """
    step = scale // view.scale

    def in_domain(y):
        return y % step == 0 and y // step in view.scaled

    def key(y):
        return view.key(y // step)

    def witness(vals):
        return DependenceWitness(
            support, tuple(st_tan(Fraction(v, scale)) for v in vals)
        )

    k = len(support)
    n = len(raw[0])
    if k == 1:
        if _super_combo_null(raw, support, [0]):
            return witness([0])
        return None

    if k == 2:
        i1, i2 = support
        cands = {0}
        for j in range(n):
            l1, v1 = raw[i1][j]
            l2, v2 = raw[i2][j]
            if l1 is not None and l2 is not None:
                cands.add(v1 - v2)
        for a2 in sorted(filter(in_domain, cands), key=key):
            if _super_combo_null(raw, support, [0, a2]):
                return witness([0, a2])
        return None

    if k == 3:
        pairs = ((0, 1), (0, 2), (1, 2))
        options = []
        for j in range(n):
            col = []
            for p, q in pairs:
                lp, vp = raw[support[p]][j]
                lq, vq = raw[support[q]][j]
                if lp is None or lq is None:
                    continue
                col.append((p, q, vp - vq))
            if not col:
                col.append(None)  # column with <2 live rows: no tie possible
            options.append(col)
        found = set()
        for pattern in itertools.product(*options):
            u2 = u3 = None
            link = None  # value of u2 - u3 when only the (1,2) tie appears
            ok = True
            for c in pattern:
                if c is None:
                    continue
                p, q, d = c
                if (p, q) == (0, 1):
                    # 0 + vp = u2 + vq  =>  u2 = vp - vq = d
                    if u2 is None:
                        u2 = d
                    elif u2 != d:
                        ok = False
                        break
                elif (p, q) == (0, 2):
                    if u3 is None:
                        u3 = d
                    elif u3 != d:
                        ok = False
                        break
                else:  # u2 + vp = u3 + vq  =>  u2 - u3 = vq - vp = -d
                    if link is None:
                        link = -d
                    elif link != -d:
                        ok = False
                        break
            if not ok:
                continue
            if link is not None:
                if u2 is None and u3 is not None:
                    u2 = u3 + link
                elif u3 is None and u2 is not None:
                    u3 = u2 - link
                elif u2 is not None and u2 - u3 != link:
                    continue
            if u2 is None or u3 is None:
                # underdetermined: any such dependence restricts to a smaller
                # support, which was searched first
                continue
            found.add((u2, u3))
        feas = [(u2, u3) for (u2, u3) in found if in_domain(u2) and in_domain(u3)]
        feas.sort(key=lambda t: (key(t[0]), key(t[1])))
        for u2, u3 in feas:
            if _super_combo_null(raw, support, [0, u2, u3]):
                return witness([0, u2, u3])
        return None

    # general fallback: scan middles over the domain, complete the last
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

    members = [x * step for x in view.ordered]
    for mid in itertools.product(members, repeat=k - 2):
        prefix = [0, *mid]
        for last in candidates_for_last(prefix):
            vals = prefix + [last]
            if _super_combo_null(raw, support, vals):
                return witness(vals)
    return None


def find_dependence(vectors, domain, alg):
    """First dependence witness, or None (definitive only for exact domains).

    Supports are enumerated by size then lexicographically; coefficient
    tuples lexicographically in domain order, with the leading coefficient
    normalized to 1 whenever the tangibles form a group.
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
        view = domain
        if not isinstance(domain, EntryRatioDomain):
            view = _ListedView(domain.candidates)
        scale, raw = _super_raw(vectors, view.scale)
    normalizable = alg.tangible_inverse is not None or supertrop
    for size in range(1, m + 1):
        for support in itertools.combinations(range(m), size):
            if supertrop:
                w = _super_search(raw, scale, view, support)
                if w is not None:
                    return w
                continue
            if normalizable:
                head = (alg.one,)
                rest = itertools.product(domain.candidates, repeat=size - 1)
                for tail in rest:
                    coeffs = head + tail
                    if _combo_null(alg, vectors, support, coeffs):
                        return DependenceWitness(support, coeffs)
            else:
                for coeffs in itertools.product(domain.candidates, repeat=size):
                    if _combo_null(alg, vectors, support, coeffs):
                        return DependenceWitness(support, coeffs)
    return None


def row_rank(a: Matrix, domain=None) -> int:
    return _rank_of(a.alg, list(a.entries), domain)


def col_rank(a: Matrix, domain=None) -> int:
    return _rank_of(a.alg, [a.col(j) for j in range(a.cols)], domain)


def _rank_of(alg, vectors, domain):
    if domain is None:
        domain = default_domain(alg, vectors)
    m = len(vectors)
    for k in range(m, 0, -1):
        for subset in itertools.combinations(range(m), k):
            if find_dependence([vectors[i] for i in subset], domain, alg) is None:
                return k
    return 0


def submatrix_rank(a: Matrix) -> int:
    """Largest size of a nonsingular square submatrix.

    One minor layer per column set gives that set's doubled determinants
    against every row set at once.
    """
    alg = a.alg
    coding, codes = _coded(a)
    for k in range(min(a.rows, a.cols), 0, -1):
        if k > det_cap():
            raise CapExceeded(f"determinant cap exceeded at n = {k}")
        for _, layer in _column_layers(a, coding, codes, k):
            if not all(balances(alg, p, q) for p, q in layer.values()):
                return k
    return 0


@dataclass
class ConditionVerdict:
    verdict: str  # HOLDS | FAILS | UNKNOWN
    detail: str = ""
    witness: Optional[DependenceWitness] = None


def check_condition(a: Matrix, which: str, domain=None) -> ConditionVerdict:
    """Verdict for Condition A1, A2, or A2'.

    Over heuristic domains only witness-backed verdicts are safe: A1 can only
    Fail, A2 can only Hold, A2' can only Hold; the unsafe directions report
    Unknown.
    """
    alg = a.alg
    rows = list(a.entries)
    if domain is None:
        domain = default_domain(alg, rows)
    which = which.lower()
    if which in ("a2p", "a2'", "a2prime"):
        w = find_dependence(rows, domain, alg) if a.rows > a.cols else None
        return _a2prime_verdict(a, w, domain)
    if which not in ("a1", "a2"):
        raise PairError(f"unknown condition {which!r}")
    return _rank_verdict(
        which, submatrix_rank(a), row_rank(a, domain), col_rank(a, domain), domain
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


def rank_report(a: Matrix, domain=None) -> RankReport:
    rows = list(a.entries)
    if domain is None:
        domain = default_domain(a.alg, rows)
    rr, cr, sr = row_rank(a, domain), col_rank(a, domain), submatrix_rank(a)
    rep = RankReport(
        row_rank=rr,
        col_rank=cr,
        submatrix_rank=sr,
        domain_completeness=domain.completeness,
        formatter=a.alg.format_literal,
    )
    w = find_dependence(rows, domain, a.alg)
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
    """
    if alg is None:
        raise UndecidableSurpassing("algebra required")
    if domain is None:
        domain = default_domain(alg, list(vectors) + [target])
    n = len(target)
    m = len(vectors)
    for size in range(1, m + 1):
        for support in itertools.combinations(range(m), size):
            for coeffs in itertools.product(domain.candidates, repeat=size):
                ok = True
                for j in range(n):
                    acc = alg.zero
                    for i, c in zip(support, coeffs):
                        acc = alg.add(acc, alg.mul(c, vectors[i][j]))
                    try:
                        if not surpasses0(alg, acc, target[j]):
                            ok = False
                            break
                    except PairError as exc:
                        raise UndecidableSurpassing(str(exc))
                if ok:
                    full = [alg.zero] * m
                    for i, c in zip(support, coeffs):
                        full[i] = c
                    witness = None
                    if alg.dagger is not None:
                        wit_vecs = [target] + [vectors[i] for i in support]
                        wit_coeffs = (alg.one,) + tuple(
                            alg.dagger(c) for c in coeffs
                        )
                        if _combo_null(
                            alg, wit_vecs, tuple(range(len(wit_vecs))), wit_coeffs
                        ):
                            witness = DependenceWitness(
                                tuple(range(len(wit_vecs))), wit_coeffs
                            )
                    return tuple(full), witness
    return None
