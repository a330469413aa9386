"""Core pair-algebra interface: elements, derived relations, structural diagnostics.

A "pair" is a carrier with a distinguished tangible set T and a null layer A0
standing in for {0}.  All arithmetic on elements is mediated by the owning
algebra descriptor; elements themselves are opaque tagged payloads.  A
descriptor is immutable and carries its own capabilities (negation, decision
rules for surpassing and height, its base pair when doubled, its codec), so
nothing is looked up by id.

The matrix kernels do not run on elements.  A pair's codec maps the elements
one kernel call sees to plain Python values (codes) and back, and adds and
multiplies codes with no owner check and no element construction; see Codec.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional


class PairError(Exception):
    """Base class for all pairlin errors."""


class NonTangibleInput(PairError):
    pass


class Undecidable(PairError):
    pass


class Unreachable(PairError):
    pass


class NotMetatangible(PairError):
    pass


class NoPresentation(PairError):
    pass


class AlgebraMismatch(PairError):
    pass


class CapExceeded(PairError):
    pass


CHARACTERISTIC_CAP = 10 ** 6
# largest finite carrier axiom_audit enumerates: the audit walks every triple
# of elements, so 32 elements are 32,768 triples.  On interned tables that is
# about 25-40 ms for counting:31 (32 elements) and 15-25 ms for the
# 25-element doubled:krasner:7:2 (2-core VM, Python 3.11; on elements they
# took 0.5 s and 1.4 s).  Every registered pair has at most 25 elements.
AUDIT_CARRIER_CAP = 32

FIRST = "first"
SECOND = "second"
UNKNOWN = "unknown"


@dataclass(frozen=True, slots=True)
class El:
    """An element of a pair algebra: opaque payload tagged with its owner."""

    alg_id: str
    payload: object

    def __repr__(self):
        return f"El({self.alg_id}:{self.payload!r})"


@dataclass(frozen=True, slots=True)
class ModulusValue:
    """Value of a modulus map; ``None`` is the bottom element mu(zero)."""

    value: Optional[Fraction]

    @property
    def is_bottom(self):
        return self.value is None

    def __lt__(self, other):
        if self.value is None:
            return other.value is not None
        if other.value is None:
            return False
        return self.value < other.value

    def __le__(self, other):
        return self == other or self < other

    def mul(self, other: "ModulusValue") -> "ModulusValue":
        if self.value is None or other.value is None:
            return ModulusValue(None)
        return ModulusValue(self.value + other.value)

    def inv(self) -> "ModulusValue":
        if self.value is None:
            raise PairError("bottom modulus value has no inverse")
        return ModulusValue(-self.value)


class Codec:
    """Codes for the elements of one kernel call.

    `encode` and `decode` map elements to codes and back, `add` and `mul`
    are the pair's operations on codes, and `zero` and `one` are codes.
    `null` maps a code to whether the element it decodes to is null,
    looked up as `null[code]`: a rule on the codes where the pair has one
    (supertropical: zero or a ghost), else a memo of the pair's own test
    (`_null_memo`), which the searches' column tests and every balance and
    doubled-nullity decision read instead of decoding.  `memos` keeps the
    other code memos of this codec by name (see `_code_memo`).  A codec
    whose codes depend on the call's elements (the supertropical scale)
    has `rebind`, which builds the codec for a given iterable of elements;
    every other codec serves any call as it is.

    A plain class: a dataclass would cost about a millisecond at import.
    """

    __slots__ = ("zero", "one", "add", "mul", "encode", "decode", "null", "rebind", "memos")

    def __init__(self, zero, one, add, mul, encode, decode, null=None, rebind=None):
        self.zero, self.one = zero, one
        self.add, self.mul = add, mul
        self.encode, self.decode = encode, decode
        self.null, self.rebind = null, rebind
        self.memos = {}

    def bind(self, elements) -> "Codec":
        return self if self.rebind is None else self.rebind(elements)


def _same(x):
    return x


def el_codec(alg: "PairAlgebra") -> Codec:
    """Elements as their own codes, with the descriptor's raw operations:
    the codec of a pair that declares none, and the reference the tests run
    every coded kernel against."""
    return Codec(alg.zero, alg.one, alg._add, alg._mul, _same, _same, _null_memo(alg, _same))


class _CodeMemo(dict):
    """key -> test(key), filled on first lookup."""

    __slots__ = ("test",)

    def __init__(self, test):
        super().__init__()
        self.test = test

    def __missing__(self, key):
        value = self[key] = self.test(key)
        return value


def _null_memo(alg, decode) -> _CodeMemo:
    """code -> whether alg's element it decodes to is null: the nullity
    mapping of a codec with no rule of its own, one per codec."""
    is_null = alg._is_null
    return _CodeMemo(lambda c: is_null(decode(c)))


def _code_memo(coding, name, test):
    """A memo of test over keys made of `coding`'s codes: kept on the codec
    under name, so it serves only the codec whose codes it reads, or one
    per call for a rebinding codec, whose codes depend on the call's scale.
    A codec's keys are its codes or pairs of them, so its memo holds at
    most the square of their number."""
    if coding.rebind is not None:
        return _CodeMemo(test)
    memos = coding.memos
    if name not in memos:
        memos[name] = _CodeMemo(test)
    return memos[name]


def _balance_codes(alg, coding):
    """(plus, minus) codes -> whether the elements they decode to balance:
    a determinant's singularity.  On a first-kind pair that is "both null,
    or the sum null", read on the codec's nullity; any other pair decides
    on the decoded elements."""
    if alg.kind() == FIRST:
        null, add = coding.null, coding.add

        def test(pq):
            return (null[pq[0]] and null[pq[1]]) or null[add(*pq)]
    else:
        dec = coding.decode

        def test(pq):
            return balances(alg, dec(pq[0]), dec(pq[1]))

    return _code_memo(coding, "balance", test)


def _doubled_null(base, coding):
    """(p, q) codes of base's codec -> whether the doubled element (p, q)
    is null, decided as the doubled pair's is_null decides it: p == q, or
    p + q null, or p and q balance, where a PairError reads false.  The
    doubled codec's nullity, and Cayley-Hamilton's and Cramer's on base
    coordinates."""
    null, add = coding.null, coding.add
    balanced = _balance_codes(base, coding)

    def test(pq):
        if pq[0] == pq[1] or null[add(*pq)]:
            return True
        try:
            return balanced[pq]
        except PairError:
            return False

    return _code_memo(coding, "doubled_null", test)


class PairAlgebra:
    """Descriptor of a pair: carrier arithmetic, tangible/null predicates and
    every capability the layers above consult.

    Each field is given to the constructor and none can be assigned
    afterwards, so descriptors are freely shareable.  The kind detection and
    the axiom audit are computed on first use and memoised.
    """

    # Fixed slots: CPython keeps at most 29 attributes of an instance dict in
    # its inline storage, and a 30th moves them all to a plain dict, which
    # nearly doubles the cost of every attribute read and so of every element
    # operation.
    __slots__ = (
        "id", "zero", "one", "_add", "_mul", "_is_tangible", "_is_null",
        "dagger", "negation", "negation_unique", "distributive", "tangibles",
        "carrier", "modulus", "declared_kind", "tangible_inverse",
        "tangible_lift", "sample", "parse_literal", "format_literal",
        "spec_string", "base", "krasner_field", "krasner_cosets",
        "surpass_rule", "height_rule", "max_plus", "_codec", "_memo",
    )

    def __init__(
        self,
        id: str,
        zero: El,
        one: El,
        add: Callable[[El, El], El],
        mul: Callable[[El, El], El],
        is_tangible: Callable[[El], bool],
        is_null: Callable[[El], bool],
        dagger: Optional[Callable[[El], El]] = None,
        negation: Optional[Callable[[El], El]] = None,
        negation_unique: bool = False,
        distributive: bool = False,
        tangibles: Optional[tuple] = None,
        carrier: Optional[tuple] = None,
        modulus: Optional[Callable[[El], ModulusValue]] = None,
        declared_kind: str = UNKNOWN,
        tangible_inverse: Optional[Callable[[El], El]] = None,
        tangible_lift: Optional[Callable[[El], El]] = None,
        sample: Optional[tuple] = None,
        parse_literal: Optional[Callable[[str], El]] = None,
        format_literal: Optional[Callable[[El], str]] = None,
        spec_string: str = "",
        base: Optional["PairAlgebra"] = None,
        krasner_field: Optional[int] = None,
        krasner_cosets: Optional[list] = None,
        surpass_rule: Optional[Callable[[El, El], bool]] = None,
        height_rule: Optional[Callable[[El], int]] = None,
        max_plus: bool = False,
        codec: Optional[Callable[["PairAlgebra"], Codec]] = None,
    ):
        fields = dict(
            id=id,
            zero=zero,
            one=one,
            _add=add,
            _mul=mul,
            _is_tangible=is_tangible,
            _is_null=is_null,
            dagger=dagger,
            negation=negation,
            negation_unique=negation_unique,
            # multiplication distributes over addition on both sides;
            # declared by the constructor, never scanned (a carrier scan is
            # cubic)
            distributive=distributive,
            tangibles=tangibles,
            carrier=carrier,
            modulus=modulus,
            declared_kind=declared_kind,
            tangible_inverse=tangible_inverse,
            tangible_lift=tangible_lift,
            sample=sample,
            parse_literal=parse_literal,
            format_literal=format_literal,
            spec_string=spec_string or id,
            # the base pair of a doubled pair
            base=base,
            # F_p and the coset of each atom, for a Krasner quotient
            krasner_field=krasner_field,
            krasner_cosets=krasner_cosets,
            # decide b1 <=_0 b2 and the height of c where no finite null
            # layer or tangible set can
            surpass_rule=surpass_rule,
            height_rule=height_rule,
            # values are rationals under max and +: dependence searches run
            # on the entry-ratio domain in integers
            max_plus=max_plus,
            # builds the pair's Codec from the descriptor; called on first
            # kernel use, so construction builds no code tables
            _codec=codec or el_codec,
            # kind detection, audit report and codec, filled on first use
            _memo={},
        )
        for name, value in fields.items():
            # past this class's own __setattr__, which refuses assignment
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{self!r} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{self!r} is immutable: cannot delete {name!r}")

    # -- element plumbing ---------------------------------------------------

    def el(self, payload) -> El:
        return El(self.id, payload)

    def check(self, *els: El):
        for e in els:
            if e.alg_id != self.id:
                raise AlgebraMismatch(f"element of {e.alg_id!r} used in {self.id!r}")

    def add(self, a: El, b: El) -> El:
        self.check(a, b)
        return self._add(a, b)

    def mul(self, a: El, b: El) -> El:
        self.check(a, b)
        return self._mul(a, b)

    def coding(self, elements=()) -> Codec:
        """The pair's codec, bound to the elements one kernel call will
        encode."""
        memo = self._memo
        if "codec" not in memo:
            memo["codec"] = self._codec(self)
        return memo["codec"].bind(elements)

    def is_tangible(self, a: El) -> bool:
        self.check(a)
        return self._is_tangible(a)

    def is_null(self, a: El) -> bool:
        self.check(a)
        return self._is_null(a)

    def sum(self, els: Iterable[El]) -> El:
        acc = self.zero
        for e in els:
            acc = self.add(acc, e)
        return acc

    def product(self, els: Iterable[El]) -> El:
        acc = self.one
        for e in els:
            acc = self.mul(acc, e)
        return acc

    def scale_int(self, k: int, a: El) -> El:
        if k < 0:
            raise PairError("nonnegative multiples only")
        acc = self.zero
        for _ in range(k):
            acc = self.add(acc, a)
        return acc

    def tangible_sample(self) -> tuple:
        """Tangibles to use for exhaustive or sampled checks."""
        if self.tangibles is not None:
            return self.tangibles
        if self.sample is not None:
            return tuple(a for a in self.sample if self.is_tangible(a))
        return (self.one,)

    def carrier_sample(self) -> tuple:
        if self.carrier is not None:
            return self.carrier
        if self.sample is not None:
            return self.sample
        return (self.zero, self.one)

    def kind(self) -> str:
        """First/second kind, detected from 1+1 and an a+a scan.

        The declared kind overrides detection, but a mismatch is recorded and
        surfaces as an audit warning.
        """
        memo = self._memo
        if "kind" not in memo:
            memo["kind"] = _detect_kind(
                self.declared_kind, self.add, self.is_null, self.one, self.tangible_sample()
            )
        return memo["kind"][0]

    def __repr__(self):
        return f"PairAlgebra({self.id!r})"


def _detect_kind(declared, add, is_null, one, tangibles):
    """(kind, warning or None), from 1 + 1 and a + a over `tangibles`; the
    operations are the descriptor's on elements, or the audit's on
    interned indices."""
    if is_null(add(one, one)):
        detected = FIRST
    elif all(not is_null(add(a, a)) for a in tangibles):
        detected = SECOND
    else:
        detected = UNKNOWN
    if declared != UNKNOWN and declared != detected:
        return declared, f"declared kind {declared!r} but detected {detected!r}"
    return detected, None


# -- derived operations -----------------------------------------------------


def circ(alg: PairAlgebra, a: El) -> El:
    """Quasi-zero a + dagger(a) of a tangible element."""
    if not alg.is_tangible(a):
        raise NonTangibleInput(f"{a!r} is not tangible in {alg.id}")
    if alg.dagger is None:
        raise PairError(f"{alg.id} has no Property-N witness")
    return alg.add(a, alg.dagger(a))


def e_elements(alg: PairAlgebra):
    """The pair (e, e') with e = 1 + dagger(1) and e' = e + 1."""
    e = circ(alg, alg.one)
    return e, alg.add(e, alg.one)


def balances(alg: PairAlgebra, b1: El, b2: El) -> bool:
    """The balancing relation: equality-up-to-null-layer.

    First kind: both null, or the sum is null.  Second kind: a common tangible
    annihilator exists; decided exhaustively over a finite tangible set, or by
    the shortcut b1 (-) b2 null when a unique negation map is declared.
    """
    alg.check(b1, b2)
    kind = alg.kind()
    if kind == FIRST:
        if alg.is_null(b1) and alg.is_null(b2):
            return True
        return alg.is_null(alg.add(b1, b2))
    if alg.is_null(b1) and alg.is_null(b2):
        return True
    if alg.tangibles is not None:
        for a in (alg.zero,) + alg.tangibles:
            if alg.is_null(alg.add(b1, a)) and alg.is_null(alg.add(b2, a)):
                return True
        return False
    if alg.negation is not None and alg.negation_unique:
        return alg.is_null(alg.add(b1, alg.negation(b2)))
    raise Undecidable(
        f"balancing over {alg.id}: infinite tangible set and no unique negation"
    )


def surpasses0(alg: PairAlgebra, b1: El, b2: El) -> bool:
    """b1 <=_0 b2: some null c has b1 + c = b2."""
    alg.check(b1, b2)
    if b1 == b2:
        return True
    if alg.surpass_rule is not None:
        return alg.surpass_rule(b1, b2)
    if alg.carrier is not None:
        for c in alg.carrier:
            if alg.is_null(c) and alg.add(b1, c) == b2:
                return True
        return False
    raise Undecidable(f"surpassing over {alg.id}: no null-layer enumeration or rule")


def height(alg: PairAlgebra, c: El) -> int:
    """Minimal number of tangibles summing to c; zero has height 0."""
    alg.check(c)
    if c == alg.zero:
        return 0
    if alg.tangibles is None:
        if alg.height_rule is not None:
            return alg.height_rule(c)
        raise Undecidable(f"height over {alg.id}: no tangible enumeration")
    seen = set()
    level = set(alg.tangibles)
    t = 1
    while True:
        if c in level:
            return t
        seen |= level
        nxt = {alg.add(s, a) for s in level for a in alg.tangibles}
        if nxt <= seen and c not in nxt:
            raise Unreachable(f"{c!r} is not T-generated in {alg.id}")
        level = nxt
        t += 1


@dataclass(frozen=True)
class CharacteristicProfile:
    kind: str  # "zero" | "finite"
    p: Optional[int] = None
    q: Optional[int] = None
    period: Optional[int] = None
    capped: bool = False


def characteristic(alg: PairAlgebra, cap: int = CHARACTERISTIC_CAP) -> CharacteristicProfile:
    """Characteristic (p, q) of the sub-semigroup generated by 1.

    Iterates k*1 until the frying-pan repeat appears; p+q is the first index
    that revisits an earlier value, q the index revisited.  The period is the
    least multiple of p that is >= q and >= 1.
    """
    seen = {alg.zero: 0}
    current = alg.zero
    for k in range(1, cap + 1):
        current = alg.add(current, alg.one)
        if current in seen:
            q = seen[current]
            p = k - q
            m = p
            while m < max(q, 1):
                m += p
            return CharacteristicProfile("finite", p, q, m)
        seen[current] = k
    return CharacteristicProfile("zero", capped=True)


@dataclass(frozen=True)
class UniformPresentation:
    base: El
    multiplicity: int
    form: str  # "tangible" | "quasizero" | "multiple"


def uniform_presentation(alg: PairAlgebra, c: El) -> UniformPresentation:
    """Uniform presentation of a nonzero element of a metatangible pair."""
    alg.check(c)
    if c == alg.zero:
        raise PairError("zero has no uniform presentation")
    report = axiom_audit(alg)
    if not report.flags.get("metatangible"):
        raise NotMetatangible(f"{alg.id} fails the metatangibility audit")
    if alg.is_tangible(c):
        return UniformPresentation(c, 1, "tangible")
    candidates = list(alg.tangible_sample())
    if alg.tangible_lift is not None:
        lifted = alg.tangible_lift(c)
        if alg.is_tangible(lifted) and lifted not in candidates:
            candidates.insert(0, lifted)
    if alg.kind() == SECOND:
        for a in candidates:
            if circ(alg, a) == c:
                return UniformPresentation(a, 2, "quasizero")
        raise NoPresentation(f"{c!r} is not a quasi-zero in second-kind {alg.id}")
    m = height(alg, c)
    for a in candidates:
        if alg.scale_int(m, a) == c:
            return UniformPresentation(a, m, "multiple")
    raise NoPresentation(f"no tangible base found for {c!r} in {alg.id}")


# -- axiom audit -------------------------------------------------------------


@dataclass
class AuditReport:
    algebra_id: str
    flags: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)
    sample_only: bool = False
    # elements the audit interned: the carrier or sample, and every result
    # off it; reported by `pairlin audit`, not among lines()
    elements: int = 0

    def lines(self):
        out = []
        for k in sorted(self.flags):
            out.append((k, str(self.flags[k]).lower()))
        for k in sorted(self.witnesses):
            out.append((f"witness_{k}", self.witnesses[k]))
        for i, w in enumerate(self.warnings):
            out.append((f"warning_{i}", w))
        out.append(("sample_only", str(self.sample_only).lower()))
        return out


def _pairs(xs):
    return itertools.product(xs, repeat=2)


def _triples(xs):
    return itertools.product(xs, repeat=3)


def axiom_audit(alg: PairAlgebra) -> AuditReport:
    """Exhaustive (finite carrier) or sampled audit of the pair axioms.

    Verdicts cover admissibility, Property N, metatangibility and its
    refinements, kind, balancing-related properties, and the hypotheses the
    matrix theory consumes (tangible summand, LZS, unique negation).
    Computed once per descriptor.  A finite carrier of more than
    AUDIT_CARRIER_CAP elements raises CapExceeded before any work.
    """
    memo = alg._memo
    if "audit" not in memo:
        if alg.carrier is not None and len(alg.carrier) > AUDIT_CARRIER_CAP:
            raise CapExceeded(
                f"audit cap exceeded: {alg.id} has {len(alg.carrier)} elements,"
                f" more than {AUDIT_CARRIER_CAP}"
            )
        memo["audit"] = _audit(alg)
    return memo["audit"]


def _audit(alg: PairAlgebra) -> AuditReport:
    """The audit's loops on interned element indices.

    Every element the audit meets is interned to an index into `els`, with
    its null and tangible verdicts.  Addition and multiplication are
    nested-list tables over the indices, filled on first use, so each ordered
    pair of elements reaches the descriptor at most once, carrier results
    and off-carrier results alike; dagger and negation are memoised per
    index.  Loop orders and breaks are those of the element audit the tests
    keep as the reference, so every flag and first witness is its own, and
    witness notes print the decoded elements.
    """
    rep = AuditReport(alg.id)
    rep.sample_only = alg.carrier is None
    flags = rep.flags
    wit = rep.witnesses

    def fail(flag, note):
        flags[flag] = False
        wit.setdefault(flag, note)

    els, index, null, tangible = [], {}, [], []
    add_rows, mul_rows = [], []  # rows[i][j]: index of els[i] op els[j], or None

    def intern(e):
        i = index.get(e)
        if i is None:
            i = index[e] = len(els)
            els.append(e)
            null.append(alg.is_null(e))
            tangible.append(alg.is_tangible(e))
            for rows in (add_rows, mul_rows):
                for row in rows:
                    row.append(None)
                rows.append([None] * (i + 1))
        return i

    def table(rows, op):
        def at(i, j):
            k = rows[i][j]
            if k is None:
                k = rows[i][j] = intern(op(els[i], els[j]))
            return k

        return at

    def memoised(op):
        memo = {}

        def at(i):
            k = memo.get(i)
            if k is None:
                k = memo[i] = intern(op(els[i]))
            return k

        return at

    add, mul = table(add_rows, alg.add), table(mul_rows, alg.mul)
    elems = [intern(e) for e in alg.carrier_sample()]
    tang = [intern(a) for a in alg.tangible_sample()]
    zero, one = intern(alg.zero), intern(alg.one)

    # admissibility: zero/one placement, T.A0 action, basic semiring laws
    flags["admissible"] = True
    if tangible[zero] or not null[zero]:
        fail("admissible", "zero misplaced")
    if not tangible[one]:
        fail("admissible", "one not tangible")
    for a in elems:
        if tangible[a] and null[a]:
            fail("admissible", f"{els[a]!r} tangible and null")
        if add(a, zero) != a:
            fail("admissible", f"zero not neutral at {els[a]!r}")
        if mul(a, zero) != zero or mul(zero, a) != zero:
            fail("admissible", f"zero not absorbing at {els[a]!r}")
        if mul(a, one) != a or mul(one, a) != a:
            fail("admissible", f"one not neutral at {els[a]!r}")
    for a, b in _pairs(elems):
        if add(a, b) != add(b, a):
            fail("admissible", f"addition not commutative at {els[a]!r},{els[b]!r}")
    for a in elems:
        for b in elems:
            ab, mab = add(a, b), mul(a, b)
            for c in elems:
                if add(ab, c) != add(a, add(b, c)):
                    fail("admissible", "addition not associative at"
                         f" {els[a]!r},{els[b]!r},{els[c]!r}")
                if mul(mab, c) != mul(a, mul(b, c)):
                    fail("admissible", "multiplication not associative at"
                         f" {els[a]!r},{els[b]!r},{els[c]!r}")
    for a in tang:
        for b in elems:
            if null[b]:
                if not null[mul(a, b)] or not null[mul(b, a)]:
                    fail("admissible", f"T action leaves null layer at {els[a]!r},{els[b]!r}")
    flags["distributive"] = True
    for a, b, c in _triples(elems):
        if mul(a, add(b, c)) != add(mul(a, b), mul(a, c)):
            fail("distributive", f"{els[a]!r}*({els[b]!r}+{els[c]!r})")
            break
    if alg.carrier is not None and alg.tangibles is not None:
        spanned = {zero}
        frontier = {zero}
        while frontier:
            nxt = {add(s, a) for s in frontier for a in tang} - spanned
            spanned |= nxt
            frontier = nxt
        if set(elems) - spanned:
            fail("admissible", "carrier not T-spanned")

    # Property N, with the registered canonical dagger
    dagger = memoised(alg.dagger) if alg.dagger is not None else None

    def circ(a):  # core.circ on indices
        if not tangible[a]:
            raise NonTangibleInput(f"{els[a]!r} is not tangible in {alg.id}")
        return add(a, dagger(a))

    if dagger is None:
        flags["property_n"] = False
        wit["property_n"] = "no dagger registered"
    else:
        flags["property_n"] = True
        for a in tang:
            d = dagger(a)
            if not tangible[d] or not null[add(a, d)]:
                fail("property_n", f"dagger fails at {els[a]!r}")
        if flags["property_n"]:
            e = circ(one)
            for a, b in _pairs(tang):
                s = add(a, b)
                if null[s] and s != mul(a, e) and s != mul(b, e):
                    fail("property_n", f"null sum {els[a]!r}+{els[b]!r} is not a quasi-zero")
    if alg.tangibles is not None:
        partners = [b for b in tang if null[add(one, b)]]
        wit["dagger_multiplicity"] = str(len(partners))

    # metatangibility ladder
    flags["weakly_metatangible"] = True
    for a, b in _pairs(tang):
        s = add(a, b)
        if not (tangible[s] or null[s]):
            fail("weakly_metatangible", f"{els[a]!r}+{els[b]!r} escapes T u A0")
            break
    flags["metatangible"] = flags["weakly_metatangible"] and flags["property_n"]
    flags["a0_bipotent"] = flags["metatangible"]
    if flags["metatangible"]:
        for a, b in _pairs(tang):
            s = add(a, b)
            if s != a and s != b and not null[s]:
                fail("a0_bipotent", f"{els[a]!r}+{els[b]!r} not bipotent")
                break

    memo = alg._memo
    if "kind" not in memo:
        memo["kind"] = _detect_kind(alg.declared_kind, add, null.__getitem__, one, tang)
    kind, warning = memo["kind"]
    flags["first_kind"] = kind == FIRST
    flags["second_kind"] = kind == SECOND
    if warning:
        rep.warnings.append(warning)

    # second-kind refinements and balancing hygiene
    flags["strict_second_kind"] = kind == SECOND
    if kind == SECOND and alg.tangibles is not None:
        annihilators = [zero] + tang

        def balanced(b1, b2):  # core.balances over a finite second-kind T
            if null[b1] and null[b2]:
                return True
            return any(null[add(b1, a)] and null[add(b2, a)] for a in annihilators)

        for a, b in _pairs(tang):
            if balanced(a, b) and null[add(a, b)]:
                fail("strict_second_kind", f"{els[a]!r} nabla {els[b]!r} with null sum")
                break

    if dagger is not None and flags["property_n"]:
        e = circ(one)
        e_prime = add(e, one)
        flags["e_idempotent"] = add(e, e) == e
        flags["two_final"] = e_prime == e
        flags["circ_reversible"] = True
        for a, b in _pairs(tang):
            if circ(a) == circ(b):
                if a != b and add(a, b) != circ(a):
                    fail("circ_reversible", f"{els[a]!r},{els[b]!r}")
                    break
        flags["tropical_type"] = (
            flags["a0_bipotent"] and flags["two_final"] and flags["circ_reversible"]
        )
        flags["almost_regular"] = True
        for a1, a2, a3 in _triples(tang):
            # alg.sum: zero + a1 + a2 + a3, left to right
            if null[add(add(add(zero, a1), a2), a3)] and null[
                add(add(add(zero, dagger(a1)), a2), a3)
            ]:
                if not null[add(a2, a3)]:
                    fail("almost_regular", f"{els[a1]!r},{els[a2]!r},{els[a3]!r}")
                    break
    else:
        for k in ("e_idempotent", "two_final", "circ_reversible", "tropical_type",
                  "almost_regular"):
            flags[k] = False
            wit.setdefault(k, "needs Property N")

    flags["n_transitive"] = True
    limit = 7  # quadruple scan is |T|^4; registered tangible sets are tiny
    tq = tang[:limit]
    for a1, a2, a3, a4 in itertools.product(tq, repeat=4):
        if (
            null[add(a1, a2)]
            and null[add(a2, a3)]
            and null[add(a3, a4)]
            and not null[add(a1, a4)]
        ):
            fail("n_transitive", f"{els[a1]!r},{els[a2]!r},{els[a3]!r},{els[a4]!r}")
            break

    negation = memoised(alg.negation) if alg.negation is not None else None
    flags["uniquely_negated"] = True
    for a in tang:
        partners = [b for b in tang if null[add(a, b)]]
        if len(partners) != 1:
            fail("uniquely_negated", f"{els[a]!r} has {len(partners)} negation partners")
            break
        if negation is not None and partners[0] != negation(a):
            fail("uniquely_negated", f"partner of {els[a]!r} differs from declared negation")
            break

    if negation is not None:
        flags["negation_involutive"] = all(negation(negation(a)) == a for a in elems)

    flags["tangible_summand"] = True
    for a, b in _pairs(elems):
        if tangible[add(a, b)] and not (tangible[a] or tangible[b]):
            fail("tangible_summand", f"{els[a]!r}+{els[b]!r}")
            break

    flags["lzs"] = True
    for a, b in _pairs(tang):
        if add(a, b) == zero:
            fail("lzs", f"{els[a]!r}+{els[b]!r} = zero")
            break

    flags["idempotent_addition"] = all(add(a, a) == a for a in elems)

    if flags["metatangible"] and alg.carrier is not None:
        # T + A0 must cover a metatangible carrier
        nulls = [b for b in elems if null[b]]
        cover = {add(a, b) for a in tang for b in nulls}
        cover |= set(tang) | set(nulls)
        if set(elems) - cover:
            rep.warnings.append("T + A0 does not cover the carrier")

    rep.elements = len(els)
    return rep
