"""Concrete pair constructions and the algebra-specifier parser.

Every constructor returns a finished PairAlgebra descriptor, passing each
capability of its pair (negation, tangible inverses, surpassing and height
rules, Krasner data, a doubled pair's base) to the descriptor's constructor.
Finite instances are table-driven or, for hyperpairs, atomwise over subsets
of atoms, and hold at most CARRIER_CAP elements; the supertropical pair
works over exact rationals with a ghost layer and never touches floating
point.

Each constructor also passes its pair's codec (see core.Codec): table pairs
and the symmetric-difference pair code an element by its index into the
carrier, hyperpairs by its atom mask, the supertropical pair by a scaled
integer with a ghost bit, and a doubled pair by a pair of base codes.
"""

from __future__ import annotations

import functools
import math
import sys
from fractions import Fraction

from .core import (
    CapExceeded,
    Codec,
    El,
    FIRST,
    ModulusValue,
    PairAlgebra,
    PairError,
    SECOND,
    _doubled_null,
    _null_memo,
    balances,
)


class BadSpecifier(PairError):
    pass


class NotASubgroup(PairError):
    pass


# The most elements a finite pair's carrier may hold.  Table pairs check it
# before building their (size)^2 tables (about 300 elements take a third of a
# second); hyperpairs check it while their carrier closure grows, which has
# no other bound (krasner:61:60 runs for minutes).  Every registered pair has
# at most 25 elements.
CARRIER_CAP = 256


# The most elements make_doubled builds: it builds the doubled carrier and
# its tangibles eagerly, |base|^2 elements.  Adjoints, Cramer's rule and the
# characteristic polynomial double their matrix's pair, which may itself be
# doubled: doubling doubled:krasner:13:3 (194,481 elements) takes about 0.6 s
# and 22 MB, doubling doubled:krasner:61:1 (13.8 million) runs out of memory.
DOUBLED_CARRIER_CAP = 1 << 18


def _check_size(spec, size):
    if size > CARRIER_CAP:
        raise BadSpecifier(f"{spec}: more than {CARRIER_CAP} elements")


# ---------------------------------------------------------------------------
# table pairs


def _carrier_codec(alg) -> Codec:
    """Codes are indices into a carrier closed under + and *, and the
    operations are nested-list tables of the pair's own."""
    carrier = alg.carrier
    index = {e.payload: i for i, e in enumerate(carrier)}

    def table(op):
        return [[index[op(x, y).payload] for y in carrier] for x in carrier]

    add_t, mul_t = table(alg._add), table(alg._mul)
    return Codec(
        zero=index[alg.zero.payload],
        one=index[alg.one.payload],
        add=lambda x, y: add_t[x][y],
        mul=lambda x, y: mul_t[x][y],
        encode=lambda e: index[e.payload],
        decode=carrier.__getitem__,
        null=_null_memo(alg, carrier.__getitem__),
    )


def _table_pair(
    id,
    atoms,
    add_table,
    mul_table,
    tangible,
    null,
    zero,
    one,
    dagger_table=None,
    negation_table=None,
    negation_unique=False,
    distributive=False,
    modulus_table=None,
    declared_kind="unknown",
    spec_string="",
):
    """Build a PairAlgebra from finite operation tables keyed by atom name."""
    atoms = tuple(atoms)
    aset = set(atoms)
    for t in (add_table, mul_table):
        for (x, y), z in t.items():
            if x not in aset or y not in aset or z not in aset:
                raise BadSpecifier(f"{id}: table not closed at ({x},{y})->{z}")

    def add(a, b):
        return El(id, add_table[(a.payload, b.payload)])

    def mul(a, b):
        return El(id, mul_table[(a.payload, b.payload)])

    def is_tangible(a):
        return a.payload in tangible

    def is_null(a):
        return a.payload in null

    dagger = None
    if dagger_table:
        dagger = lambda a: El(id, dagger_table[a.payload])
    negation = None
    if negation_table:
        negation = lambda a: El(id, negation_table[a.payload])
    modulus = None
    if modulus_table:
        modulus = lambda a: ModulusValue(modulus_table[a.payload])

    def tangible_inverse(a):
        for b in atoms:
            if b in tangible and mul_table[(a.payload, b)] == one:
                return El(id, b)
        raise PairError(f"{id}: {a.payload} has no tangible inverse")

    def parse_literal(s):
        if s in aset:
            return El(id, s)
        raise BadSpecifier(f"{id}: unknown element literal {s!r}")

    return PairAlgebra(
        id=id,
        zero=El(id, zero),
        one=El(id, one),
        add=add,
        mul=mul,
        is_tangible=is_tangible,
        is_null=is_null,
        dagger=dagger,
        negation=negation,
        negation_unique=negation_unique,
        distributive=distributive,
        tangibles=tuple(El(id, a) for a in atoms if a in tangible),
        carrier=tuple(El(id, a) for a in atoms),
        modulus=modulus,
        declared_kind=declared_kind,
        tangible_inverse=tangible_inverse,
        parse_literal=parse_literal,
        format_literal=lambda a: str(a.payload),
        spec_string=spec_string or id,
        codec=_carrier_codec,
    )


def make_sign_pair() -> PairAlgebra:
    """Sign semiring {0, 1, -1, inf}: 1 + (-1) = inf, inf absorbing."""
    atoms = ("0", "1", "-1", "inf")
    sign = {"0": 0, "1": 1, "-1": -1}

    def addv(x, y):
        if x == "0":
            return y
        if y == "0":
            return x
        if x == "inf" or y == "inf" or x != y:
            return "inf"
        return x

    def mulv(x, y):
        if x == "0" or y == "0":
            return "0"
        if x == "inf" or y == "inf":
            return "inf"
        return str(sign[x] * sign[y])

    add_table = {(x, y): addv(x, y) for x in atoms for y in atoms}
    mul_table = {(x, y): mulv(x, y) for x in atoms for y in atoms}
    return _table_pair(
        "sign",
        atoms,
        add_table,
        mul_table,
        tangible={"1", "-1"},
        null={"0", "inf"},
        zero="0",
        one="1",
        dagger_table={"1": "-1", "-1": "1"},
        negation_table={"0": "0", "1": "-1", "-1": "1", "inf": "inf"},
        negation_unique=True,
        distributive=True,
        modulus_table={"0": None, "1": Fraction(0), "-1": Fraction(0), "inf": Fraction(0)},
        declared_kind=SECOND,
    )


# ---------------------------------------------------------------------------
# supertropical pair over exact rationals

_ST = "supertropical"
# payload: None for zero, ('t', Fraction) tangible, ('g', Fraction) ghost


def st_tan(v) -> El:
    return El(_ST, ("t", Fraction(v)))


def st_ghost(v) -> El:
    return El(_ST, ("g", Fraction(v)))


ST_ZERO = El(_ST, None)


def st_value(a: El):
    """Rational value of a supertropical element, None for zero."""
    return None if a.payload is None else a.payload[1]


def _st_add(a, b):
    if a.payload is None:
        return b
    if b.payload is None:
        return a
    la, va = a.payload
    lb, vb = b.payload
    if va > vb:
        return a
    if vb > va:
        return b
    return El(_ST, ("g", va))


def _st_mul(a, b):
    if a.payload is None or b.payload is None:
        return ST_ZERO
    la, va = a.payload
    lb, vb = b.payload
    layer = "t" if (la == "t" and lb == "t") else "g"
    return El(_ST, (layer, va + vb))


def _st_parse(s):
    if s == "-inf":
        return ST_ZERO
    ghost = s.endswith("g")
    body = s[:-1] if ghost else s
    _, e, exp = body.lower().partition("e")
    limit = sys.get_int_max_str_digits()
    try:
        # the value must print: neither its numerator nor its denominator
        # has more digits than the literal's length plus its exponent, which
        # is checked first, since Fraction("1e9999999") alone takes seconds
        if limit and len(body) + (abs(int(exp)) if e else 0) > limit:
            raise BadSpecifier(f"{_ST}: literal {s!r} exceeds the {limit}-digit limit")
        v = Fraction(body)
    except (ValueError, ZeroDivisionError) as exc:
        raise BadSpecifier(f"{_ST}: bad element literal {s!r}") from exc
    return st_ghost(v) if ghost else st_tan(v)


def _st_format(a):
    if a.payload is None:
        return "-inf"
    layer, v = a.payload
    try:
        # values add along a track and denominators multiply, so a value of
        # printable literals can still pass the int-to-str digit limit
        text = str(v)
    except ValueError as exc:
        raise CapExceeded(f"{_ST}: value exceeds the int-to-str digit limit") from exc
    return text + ("g" if layer == "g" else "")


@functools.lru_cache(maxsize=64)
def _st_codec(scale) -> Codec:
    """Supertropical codes: ((v * scale) << 1) | ghost for value v, and
    None for zero.  A call's codec takes for scale the lcm of the
    denominators of its elements, so every code is an integer: a product
    adds codes and ors the ghost bits, a sum keeps the larger value, and
    equal values sum to their ghost.

    The codecs of the last 64 scales are kept, one object per scale, so a
    matrix's codes serve its later calls at the same scale (see
    matrices._coded)."""

    def encode(e):
        if e.payload is None:
            return None
        layer, v = e.payload
        step, rest = divmod(scale, v.denominator)
        if rest:
            raise PairError(f"{_ST}: {v} is not a multiple of 1/{scale}")
        return (v.numerator * step) << 1 | (layer == "g")

    def decode(c):
        if c is None:
            return ST_ZERO
        return El(_ST, ("g" if c & 1 else "t", Fraction(c >> 1, scale)))

    def rebind(elements):
        return _st_codec(
            math.lcm(*{e.payload[1].denominator for e in elements if e.payload is not None})
        )

    return Codec(
        zero=None, one=0, add=_st_add_codes, mul=_st_mul_codes,
        encode=encode, decode=decode, null=_ST_NULL, rebind=rebind,
    )


class _StNull:
    """Supertropical nullity on codes: zero (None) or a ghost (odd)."""

    __getitem__ = staticmethod(lambda c: c is None or c & 1 == 1)


_ST_NULL = _StNull()


def _st_add_codes(x, y):
    if x is None:
        return y
    if y is None:
        return x
    if x >> 1 == y >> 1:
        return x | 1
    return x if x > y else y


def _st_mul_codes(x, y):
    if x is None or y is None:
        return None
    return x + y - (x & y & 1)


def make_supertropical() -> PairAlgebra:
    """Max-plus supertropical pair: tangible rationals plus a ghost copy."""
    sample = (
        ST_ZERO,
        st_tan(0),
        st_tan(1),
        st_tan(2),
        st_tan(Fraction(1, 2)),
        st_tan(-1),
        st_ghost(0),
        st_ghost(1),
        st_ghost(-2),
    )
    return PairAlgebra(
        id=_ST,
        zero=ST_ZERO,
        one=st_tan(0),
        add=_st_add,
        mul=_st_mul,
        is_tangible=lambda a: a.payload is not None and a.payload[0] == "t",
        is_null=lambda a: a.payload is None or a.payload[0] == "g",
        dagger=lambda a: a,  # first kind
        negation=lambda a: a,
        negation_unique=True,
        distributive=True,
        tangibles=None,
        carrier=None,
        modulus=lambda a: ModulusValue(st_value(a)),
        declared_kind=FIRST,
        tangible_inverse=lambda a: st_tan(-st_value(a)),
        tangible_lift=lambda a: a if a.payload is None else st_tan(st_value(a)),
        sample=sample,
        parse_literal=_st_parse,
        format_literal=_st_format,
        surpass_rule=_st_surpass,
        height_rule=_st_height,
        max_plus=True,
        codec=lambda alg: _st_codec(1),
    )


def _st_surpass(b1, b2):
    # b1 + c = b2 with c ghost-or-zero: b2 ghost no smaller than b1, or equal
    if b1 == b2:
        return True
    if b1.payload is None:
        return True if b2.payload is None or b2.payload[0] == "g" else False
    if b2.payload is None:
        return False
    return b2.payload[0] == "g" and b1.payload[1] <= b2.payload[1]


def _st_height(c):
    return 1 if c.payload[0] == "t" else 2


# ---------------------------------------------------------------------------
# doubling


@functools.cache
def make_doubled(base: PairAlgebra) -> PairAlgebra:
    """Doubled pair: ordered pairs with twist multiplication and switch negation.

    Nullity joins the sum-in-A0 rule with the diagonal, so the switch is a
    negation map even over second-kind bases; for first-kind bases this is
    exactly the b1+b2-null rule.  Built once per base descriptor.  A base
    whose doubled carrier would hold more than DOUBLED_CARRIER_CAP elements
    raises CapExceeded before any is built.
    """
    did = f"doubled:{base.id}"
    if base.carrier is not None and len(base.carrier) ** 2 > DOUBLED_CARRIER_CAP:
        raise CapExceeded(
            f"doubling cap exceeded: {did} has {len(base.carrier) ** 2} elements, "
            f"more than {DOUBLED_CARRIER_CAP}"
        )

    def pack(p, n):
        return El(did, (p, n))

    zero = pack(base.zero, base.zero)
    one = pack(base.one, base.zero)

    def add(a, b):
        (p1, n1), (p2, n2) = a.payload, b.payload
        return pack(base.add(p1, p2), base.add(n1, n2))

    def mul(a, b):
        (p1, n1), (p2, n2) = a.payload, b.payload
        return pack(
            base.add(base.mul(p1, p2), base.mul(n1, n2)),
            base.add(base.mul(p1, n2), base.mul(n1, p2)),
        )

    def is_tangible(a):
        p, n = a.payload
        return (base.is_tangible(p) and n == base.zero) or (
            base.is_tangible(n) and p == base.zero
        )

    def is_null(a):
        p, n = a.payload
        if p == n:
            return True
        if base.is_null(base.add(p, n)):
            return True
        try:
            return balances(base, p, n)
        except PairError:
            return False

    def switch(a):
        p, n = a.payload
        return pack(n, p)

    tangibles = None
    carrier = None
    if base.carrier is not None:
        carrier = tuple(
            pack(p, n) for p in base.carrier for n in base.carrier
        )
        tangibles = tuple(a for a in carrier if is_tangible(a))

    modulus = None
    if base.modulus is not None:
        def modulus(a):
            p, n = a.payload
            return max(base.modulus(p), base.modulus(n))

    def tangible_inverse(a):
        p, n = a.payload
        if n == base.zero:
            return pack(base.tangible_inverse(p), base.zero)
        return pack(base.zero, base.tangible_inverse(n))

    def parse_literal(s):
        lp, _, ln = s.partition("|")
        if not _:
            raise BadSpecifier(f"{did}: literal needs two components, got {s!r}")
        return pack(base.parse_literal(lp), base.parse_literal(ln))

    sample = None
    if base.sample is not None:
        picks = base.sample[:4]
        sample = tuple(pack(p, n) for p in picks for n in picks)

    def codec(base_codec):
        badd, bmul = base_codec.add, base_codec.mul
        benc, bdec = base_codec.encode, base_codec.decode

        def mul(x, y):
            (p1, n1), (p2, n2) = x, y
            return badd(bmul(p1, p2), bmul(n1, n2)), badd(bmul(p1, n2), bmul(n1, p2))

        return Codec(
            zero=(base_codec.zero, base_codec.zero),
            one=(base_codec.one, base_codec.zero),
            add=lambda x, y: (badd(x[0], y[0]), badd(x[1], y[1])),
            mul=mul,
            encode=lambda e: (benc(e.payload[0]), benc(e.payload[1])),
            decode=lambda c: pack(bdec(c[0]), bdec(c[1])),
            null=_doubled_null(base, base_codec),
            rebind=base_codec.rebind and (
                lambda elements: codec(base.coding(x for e in elements for x in e.payload))
            ),
        )

    return PairAlgebra(
        id=did,
        zero=zero,
        one=one,
        add=add,
        mul=mul,
        is_tangible=is_tangible,
        is_null=is_null,
        dagger=switch,
        negation=switch,
        negation_unique=True,
        distributive=base.distributive,
        tangibles=tangibles,
        carrier=carrier,
        modulus=modulus,
        declared_kind=SECOND,
        tangible_inverse=tangible_inverse if base.tangible_inverse else None,
        sample=sample,
        parse_literal=parse_literal if base.parse_literal else None,
        format_literal=(
            lambda a: f"{base.format_literal(a.payload[0])}|{base.format_literal(a.payload[1])}"
        )
        if base.format_literal
        else None,
        spec_string=f"doubled:{base.spec_string}",
        base=base,
        codec=lambda dalg: codec(base.coding()),
    )


def embed_doubled(dalg: PairAlgebra, a: El) -> El:
    """b -> (b, 0), the positive embedding into a doubled pair."""
    return El(dalg.id, (a, dalg.base.zero))


def project_doubled(dalg: PairAlgebra, a: El) -> El:
    """(p, n) -> p (-) n in the base; needs a declared base negation map."""
    base = dalg.base
    if base.negation is None:
        raise PairError(f"{base.id} has no negation map to project onto")
    p, n = a.payload
    return base.add(p, base.negation(n))


# ---------------------------------------------------------------------------
# named finite specials


def make_boolean() -> PairAlgebra:
    atoms = ("0", "1")
    add = {("0", "0"): "0", ("0", "1"): "1", ("1", "0"): "1", ("1", "1"): "1"}
    mul = {("0", "0"): "0", ("0", "1"): "0", ("1", "0"): "0", ("1", "1"): "1"}
    return _table_pair(
        "boolean", atoms, add, mul,
        tangible={"1"}, null={"0"}, zero="0", one="1",
        distributive=True,
    )


def make_super_boolean() -> PairAlgebra:
    atoms = ("0", "1", "e")

    def addv(x, y):
        if x == "0":
            return y
        if y == "0":
            return x
        if x == "e" or y == "e":
            return "e"
        return "e"  # 1 + 1 = e

    def mulv(x, y):
        if x == "0" or y == "0":
            return "0"
        if x == "e" or y == "e":
            return "e"
        return "1"

    add = {(x, y): addv(x, y) for x in atoms for y in atoms}
    mul = {(x, y): mulv(x, y) for x in atoms for y in atoms}
    return _table_pair(
        "superboolean", atoms, add, mul,
        tangible={"1"}, null={"0", "e"}, zero="0", one="1",
        dagger_table={"1": "1"},
        negation_table={"0": "0", "1": "1", "e": "e"},
        negation_unique=True,
        distributive=True,
        modulus_table={"0": None, "1": Fraction(0), "e": Fraction(0)},
        declared_kind=FIRST,
    )


def make_counting(q: int) -> PairAlgebra:
    """Clipped counting pair on {0..q}: add/mul truncate at q, T = {1}, A0 = {0,q}."""
    if q < 2:
        raise BadSpecifier("counting pair needs q >= 2")
    _check_size(f"counting:{q}", q + 1)
    atoms = tuple(str(i) for i in range(q + 1))
    add = {(x, y): str(min(int(x) + int(y), q)) for x in atoms for y in atoms}
    mul = {(x, y): str(min(int(x) * int(y), q)) for x in atoms for y in atoms}
    return _table_pair(
        f"counting:{q}", atoms, add, mul,
        tangible={"1"}, null={"0", str(q)}, zero="0", one="1",
        distributive=True,
    )


def make_npq(p: int, q: int) -> PairAlgebra:
    """N_{p,q}: {0..p+q-1} with wraparound p+q-1 + 1 = q; A0 = {0}, T = {1}."""
    if p < 1 or q < 0 or p + q < 2:
        raise BadSpecifier("npq needs p >= 1, q >= 0, p+q >= 2")
    _check_size(f"npq:{p}:{q}", p + q)
    top = p + q - 1

    def red(n):
        return n if n <= top else q + (n - q) % p

    atoms = tuple(str(i) for i in range(p + q))
    add = {(x, y): str(red(int(x) + int(y))) for x in atoms for y in atoms}
    mul = {(x, y): str(red(int(x) * int(y))) for x in atoms for y in atoms}
    return _table_pair(
        f"npq:{p}:{q}", atoms, add, mul,
        tangible={"1"}, null={"0"}, zero="0", one="1",
        distributive=True,
    )


def make_minimal(kind: str, n: int) -> PairAlgebra:
    """Minimal A0-bipotent pair over a cyclic tangible group of order n.

    a+a is inf (first kind) or a (second kind); distinct tangibles sum to inf.
    """
    if kind not in (FIRST, SECOND):
        raise BadSpecifier(f"minimal pair kind must be first|second, got {kind!r}")
    if n < 1 or (kind == SECOND and n < 2):
        raise BadSpecifier("minimal second-kind pair needs n >= 2")
    _check_size(f"minimal:{kind}:{n}", n + 2)
    ts = tuple(f"t{i}" for i in range(n))
    atoms = ("0",) + ts + ("inf",)

    def addv(x, y):
        if x == "0":
            return y
        if y == "0":
            return x
        if x == "inf" or y == "inf" or x != y:
            return "inf"
        return "inf" if kind == FIRST else x

    def mulv(x, y):
        if x == "0" or y == "0":
            return "0"
        if x == "inf" or y == "inf":
            return "inf"
        return f"t{(int(x[1:]) + int(y[1:])) % n}"

    add = {(x, y): addv(x, y) for x in atoms for y in atoms}
    mul = {(x, y): mulv(x, y) for x in atoms for y in atoms}
    if kind == FIRST:
        dag = {t: t for t in ts}
    else:
        dag = {f"t{i}": f"t{(i + 1) % n}" for i in range(n)}
    neg = None
    unique = n == 1 and kind == FIRST
    if kind == SECOND and n % 2 == 0:
        half = n // 2
        neg = {**{f"t{i}": f"t{(i + half) % n}" for i in range(n)},
               "0": "0", "inf": "inf"}
    elif kind == FIRST:
        neg = {a: a for a in atoms}
    return _table_pair(
        f"minimal:{kind}:{n}", atoms, add, mul,
        tangible=set(ts), null={"0", "inf"}, zero="0", one="t0",
        dagger_table=dag,
        negation_table=neg,
        negation_unique=unique,
        distributive=True,
        modulus_table={a: (None if a == "0" else Fraction(0)) for a in atoms},
        declared_kind=kind,
    )


# ---------------------------------------------------------------------------
# hyperpairs (bitmask subsets over a finite hypergroup)


def _closure_pair(
    id,
    atom_names,
    hyperadd,  # (i, j) -> frozenset of atom indices
    atom_mul,  # (i, j) -> atom index
    one,  # atom index of the unit
    negation,  # atom i -> atom negation[i]
    negation_unique=False,
    inverse=None,  # tangible atom -> atom of its inverse, or None
    spec_string="",
    **fields,  # further descriptor fields: the Krasner data
):
    """Build a pair whose elements are subsets of atoms, closed under + and *.

    Atom 0 is the hyperzero.  Hypernegation (-)S = {-s} is also the
    canonical dagger.
    """
    k = len(atom_names)
    _check_size(spec_string or id, k)  # the carrier holds every atom

    # atom-by-atom tables, k^2 entries each: sets combine atomwise through
    # them, and a product or sum of two atoms is one lookup.  The closure
    # below fills the rows of sums it reaches, the rest once the carrier is
    # accepted, so a carrier over the cap is refused after a few rows of
    # large sets (hyper:hex2-c255 fills two of its 256 rows of 256 sums)
    add_atoms = [None] * k
    mul_atoms = [[1 << atom_mul(i, j) for j in range(k)] for i in range(k)]

    def fill_sums(atoms):
        for i in atoms:
            if add_atoms[i] is None:
                add_atoms[i] = [sum(1 << x for x in hyperadd(i, j)) for j in range(k)]

    neg_atoms = [1 << j for j in negation]
    atom_of = {1 << i: i for i in range(k)}

    def bits(mask):
        out = []
        while mask:
            low = mask & -mask
            out.append(atom_of[low])
            mask ^= low
        return out

    def combine(table, m1, m2):
        js = bits(m2)
        out = 0
        for i in bits(m1):
            row = table[i]
            for j in js:
                out |= row[j]
        return out

    def mask_op(table):
        def op(m1, m2):
            if m1 & (m1 - 1) or m2 & (m2 - 1):
                return combine(table, m1, m2)
            return table[m1.bit_length() - 1][m2.bit_length() - 1]

        return op

    def element_op(table):
        atom_els = [[El(id, m) for m in row] for row in table]

        def op(a, b):
            i, j = atom_of.get(a.payload), atom_of.get(b.payload)
            if i is not None and j is not None:
                return atom_els[i][j]
            return El(id, combine(table, a.payload, b.payload))

        return op

    def negate(a):
        out = 0
        for i in bits(a.payload):
            out |= neg_atoms[i]
        return El(id, out)

    tangible_inverse = None
    if inverse is not None:
        def tangible_inverse(a):
            return El(id, 1 << inverse(a.payload.bit_length() - 1))

    singles = [1 << i for i in range(k)]
    # the carrier is the submodule ⊞-spanned by the tangibles: closed under
    # hyperaddition and the tangible action, but not under arbitrary products
    # (the power set need not be doubly distributive)
    seen = set(singles)
    frontier = list(singles)
    while frontier:
        nxt = []
        for m1 in frontier:
            fill_sums(bits(m1))
            for m2 in sorted(seen):
                cand = [combine(add_atoms, m1, m2)]
                if m2 in singles:
                    cand.append(combine(mul_atoms, m2, m1))
                for m in cand:
                    if m not in seen:
                        seen.add(m)
                        nxt.append(m)
            _check_size(spec_string or id, len(seen))
        frontier = nxt
    fill_sums(range(k))
    carrier_masks = sorted(seen)

    def name_of(mask):
        names = [atom_names[i] for i in bits(mask)]
        if len(names) == 1:
            return names[0]
        return "{" + ",".join(names) + "}"

    def parse_literal(s):
        if s.startswith("{"):
            if not s.endswith("}"):
                raise BadSpecifier(f"{id}: bad set literal {s!r}")
            body = s[1:-1]
            mask = 0
            for part in body.split(","):
                part = part.strip()
                if not part:
                    continue
                if part.isdecimal() and part not in atom_names:
                    idx = int(part)
                    if not 0 <= idx < k:
                        raise BadSpecifier(f"{id}: atom index {part} out of range")
                else:
                    try:
                        idx = atom_names.index(part)
                    except ValueError:
                        raise BadSpecifier(f"{id}: unknown atom {part!r}")
                mask |= 1 << idx
            if mask == 0:
                raise BadSpecifier(f"{id}: empty set literal")
            return El(id, mask)
        try:
            return El(id, 1 << atom_names.index(s))
        except ValueError:
            raise BadSpecifier(f"{id}: unknown atom {s!r}")

    return PairAlgebra(
        id=id,
        zero=El(id, 1),
        one=El(id, 1 << one),
        add=element_op(add_atoms),
        mul=element_op(mul_atoms),
        is_tangible=lambda a: a.payload in singles and a.payload != 1,
        is_null=lambda a: bool(a.payload & 1),
        dagger=negate,
        negation=negate,
        negation_unique=negation_unique,
        # a set times a sum is not the union of the products in general
        # (hyper:hex1-c3: {g0,g1}*(g1+g2)), so determinants take the track
        # walk; conservative for the few that do distribute, e.g. krasner:3:1
        distributive=False,
        tangibles=tuple(El(id, m) for m in singles[1:]),
        carrier=tuple(El(id, m) for m in carrier_masks),
        tangible_inverse=tangible_inverse,
        parse_literal=parse_literal,
        format_literal=lambda a: name_of(a.payload),
        spec_string=spec_string or id,
        surpass_rule=_subset_surpass,
        # codes are atom masks: a product of sets that are not atoms can
        # leave the carrier, so carrier indices would not do
        codec=lambda alg: Codec(
            zero=1,
            one=1 << one,
            add=mask_op(add_atoms),
            mul=mask_op(mul_atoms),
            encode=lambda e: e.payload,
            decode=alg.el,
            null=_null_memo(alg, alg.el),
        ),
        **fields,
    )


def _subset_surpass(b1, b2):
    # hyperpair surpassing is subset inclusion
    return b1.payload & ~b2.payload == 0


def make_krasner(p: int, generators) -> PairAlgebra:
    """Quotient hyperpair F_p / G for a multiplicative subgroup G = <generators>."""
    if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
        raise BadSpecifier(f"krasner field order {p} is not prime")
    if p > 61:
        raise BadSpecifier("krasner quotients are limited to primes <= 61")
    gens = sorted(set(int(g) % p for g in generators))
    if not gens or 0 in gens:
        raise NotASubgroup("generators must be nonzero residues")
    G = {1}
    frontier = [1]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = (x * g) % p
                if y not in G:
                    G.add(y)
                    nxt.append(y)
        frontier = nxt
    # multiplicative closure of a finite subset of a group is a subgroup
    cosets = []
    assigned = {}
    for r in range(1, p):
        if r not in assigned:
            coset = frozenset((r * g) % p for g in G)
            idx = len(cosets) + 1
            cosets.append(coset)
            for x in coset:
                assigned[x] = idx
    atom_names = ["0"] + [f"c{min(c)}" for c in cosets]
    atom_sets = [frozenset({0})] + cosets

    def hyperadd(i, j):
        out = set()
        for a in atom_sets[i]:
            for b in atom_sets[j]:
                s = (a + b) % p
                out.add(0 if s == 0 else assigned[s])
        return frozenset(out)

    def atom_mul(i, j):
        if i == 0 or j == 0:
            return 0
        a = min(atom_sets[i])
        b = min(atom_sets[j])
        return assigned[(a * b) % p]

    return _closure_pair(
        f"krasner:{p}:{','.join(str(g) for g in sorted(G))}",
        atom_names,
        hyperadd,
        atom_mul,
        one=assigned[1],
        negation=[0] + [assigned[p - min(c)] for c in cosets],
        negation_unique=True,
        inverse=lambda i: assigned[pow(min(atom_sets[i]), p - 2, p)],
        spec_string=f"krasner:{p}:{'-'.join(str(g) for g in gens)}",
        krasner_field=p,
        krasner_cosets=atom_sets,
    )


def make_hex(variant: int, n: int) -> PairAlgebra:
    """The two hyperfields over a cyclic group C_n from the A2' discussion."""
    if variant == 1:
        if n < 2:
            raise BadSpecifier("hex1 needs |G| >= 2")
    elif variant == 2:
        # complement-style sums only associate once H is thick enough
        if n < 4:
            raise BadSpecifier("hex2 needs |G| >= 4")
    else:
        raise BadSpecifier("hex variant must be 1 or 2")
    atom_names = ["0"] + [f"g{i}" for i in range(n)]
    full = frozenset(range(n + 1))

    def hyperadd(i, j):
        if i == 0:
            return frozenset({j})
        if j == 0:
            return frozenset({i})
        if variant == 1:
            if i == j:
                return full - {i}
            return frozenset({i, j})
        if i == j:
            return frozenset({0, i})
        return full - {0, i, j}

    def atom_mul(i, j):
        if i == 0 or j == 0:
            return 0
        return 1 + ((i - 1) + (j - 1)) % n

    return _closure_pair(
        f"hyper:hex{variant}:{n}",
        atom_names,
        hyperadd,
        atom_mul,
        one=1,
        negation=range(n + 1),
        inverse=lambda i: 1 + (-(i - 1)) % n,
        spec_string=f"hyper:hex{variant}-c{n}",
    )


def make_weak_sign(n: int) -> PairAlgebra:
    """Signed hyperfield (C_n x {+,-}) u {0} with two-sided spreads."""
    if n < 1:
        raise BadSpecifier("weaksign needs |G| >= 1")
    atom_names = ["0"] + [f"g{i}{s}" for i in range(n) for s in ("+", "-")]

    def decode(i):
        return divmod(i - 1, 2)  # (group index, 0 for +, 1 for -)

    full = frozenset(range(2 * n + 1))

    def hyperadd(i, j):
        # x + x = H \ {x, 0} rather than H \ {x, -x, 0}: the latter breaks
        # associativity; this is the unique associative completion of the
        # different-base and opposite-sign rules
        if i == 0:
            return frozenset({j})
        if j == 0:
            return frozenset({i})
        gi, si = decode(i)
        gj, sj = decode(j)
        if gi != gj:
            return frozenset({1 + 2 * gi, 2 + 2 * gi, 1 + 2 * gj, 2 + 2 * gj})
        if si == sj:
            return full - {i, 0}
        return full - {i, j}

    def atom_mul(i, j):
        if i == 0 or j == 0:
            return 0
        gi, si = decode(i)
        gj, sj = decode(j)
        return 1 + 2 * ((gi + gj) % n) + (si ^ sj)

    return _closure_pair(
        f"hyper:weaksign:{n}", atom_names, hyperadd, atom_mul,
        one=1,
        # (g, +) <-> (g, -): atoms 2g+1 and 2g+2 trade places
        negation=[0] + [i + 1 if i % 2 else i - 1 for i in range(1, 2 * n + 1)],
        spec_string=f"hyper:weaksign-c{n}",
    )


def make_powerset_symdiff(n: int) -> PairAlgebra:
    """Power set of C_n under symmetric difference: the group algebra over F2.

    A plain pair, not a hyperpair: A0 = {empty set}; first kind.
    """
    if n < 1 or n > 4:
        raise BadSpecifier("powerset-symdiff supports group orders 1..4")
    id = f"powerset-symdiff:{n}"
    atom_names = [f"g{i}" for i in range(n)]

    def mulm(m1, m2):
        out = 0
        for i in range(n):
            if m1 >> i & 1:
                for j in range(n):
                    if m2 >> j & 1:
                        out ^= 1 << ((i + j) % n)
        return out

    singles = [1 << i for i in range(n)]

    def atom(name):
        if name not in atom_names:
            raise BadSpecifier(f"{id}: unknown atom {name!r}")
        return 1 << atom_names.index(name)

    def parse_literal(s):
        if not s.startswith("{"):
            return El(id, atom(s))
        if not s.endswith("}"):
            raise BadSpecifier(f"{id}: bad set literal {s!r}")
        mask = 0
        for part in s[1:-1].split(","):
            part = part.strip()
            if part:
                mask |= atom(part)
        return El(id, mask)

    def fmt(a):
        if a.payload == 0:
            return "{}"
        names = [atom_names[i] for i in range(n) if a.payload >> i & 1]
        if len(names) == 1:
            return names[0]
        return "{" + ",".join(names) + "}"

    alg = PairAlgebra(
        id=id,
        zero=El(id, 0),
        one=El(id, 1),
        add=lambda a, b: El(id, a.payload ^ b.payload),
        mul=lambda a, b: El(id, mulm(a.payload, b.payload)),
        is_tangible=lambda a: a.payload in singles,
        is_null=lambda a: a.payload == 0,
        dagger=lambda a: a,
        negation=lambda a: a,
        negation_unique=True,
        distributive=True,
        tangibles=tuple(El(id, m) for m in singles),
        carrier=tuple(El(id, m) for m in range(1 << n)),
        declared_kind=FIRST,
        tangible_inverse=lambda a: El(id, 1 << ((-(a.payload.bit_length() - 1)) % n)),
        parse_literal=parse_literal,
        format_literal=fmt,
        codec=_carrier_codec,
    )
    return alg


# ---------------------------------------------------------------------------
# specifier registry


_ALGEBRA_CACHE = {}

SPECIFIER_HELP = [
    ("sign", "sign semiring pair {0,1,-1,inf}"),
    ("boolean", "Boolean semifield pair"),
    ("superboolean", "super-Boolean pair {0,1,e}"),
    ("supertropical", "max-plus supertropical pair over exact rationals"),
    ("counting:<q>", "clipped counting pair on {0..q}, T = {1}"),
    ("npq:<p>:<q>", "N_{p,q} wraparound pair"),
    ("minimal:<first|second>:<n>", "minimal A0-bipotent pair, cyclic T of order n"),
    ("doubled:<base-spec>", "doubled pair with switch negation"),
    ("krasner:<p>:<g1[,g2..]>", "quotient hyperpair F_p/<generators>"),
    ("hyper:<hex1|hex2|weaksign>-c<n>", "named finite hyperfield pairs"),
    ("powerset-symdiff:<n>", "power set of C_n under symmetric difference"),
]


def make_algebra(spec: str) -> PairAlgebra:
    """Parse an algebra specifier string and return the (cached) descriptor."""
    if spec in _ALGEBRA_CACHE:
        return _ALGEBRA_CACHE[spec]
    parts = spec.split(":")
    head = parts[0]
    try:
        if spec == "sign":
            alg = make_sign_pair()
        elif spec == "boolean":
            alg = make_boolean()
        elif spec == "superboolean":
            alg = make_super_boolean()
        elif spec == "supertropical":
            alg = make_supertropical()
        elif head == "counting" and len(parts) == 2:
            alg = make_counting(int(parts[1]))
        elif head == "npq" and len(parts) == 3:
            alg = make_npq(int(parts[1]), int(parts[2]))
        elif head == "minimal" and len(parts) == 3:
            alg = make_minimal(parts[1], int(parts[2]))
        elif head == "doubled":
            base = make_algebra(spec.split(":", 1)[1])
            if base.carrier is not None:
                # the doubled carrier holds |base|^2 elements
                _check_size(base.spec_string, len(base.carrier))
            alg = make_doubled(base)
        elif head == "krasner" and len(parts) == 3:
            alg = make_krasner(int(parts[1]), parts[2].replace("-", ",").split(","))
        elif head == "hyper" and len(parts) == 2:
            name, _, order = parts[1].partition("-c")
            if not order:
                raise BadSpecifier(f"hyper table name needs -c<n>: {spec!r}")
            if name == "hex1":
                alg = make_hex(1, int(order))
            elif name == "hex2":
                alg = make_hex(2, int(order))
            elif name == "weaksign":
                alg = make_weak_sign(int(order))
            else:
                raise BadSpecifier(f"unknown hyper table {name!r}")
        elif head == "powerset-symdiff" and len(parts) == 2:
            alg = make_powerset_symdiff(int(parts[1]))
        else:
            raise BadSpecifier(f"unknown algebra specifier {spec!r}")
    except ValueError as exc:
        raise BadSpecifier(f"bad specifier {spec!r}: {exc}") from exc
    _ALGEBRA_CACHE[spec] = alg
    return alg


def registered_instances():
    """The finite catalogue exercised by the structure suite."""
    return [
        make_algebra(s)
        for s in (
            "sign",
            "boolean",
            "superboolean",
            "counting:5",
            "npq:2:3",
            "minimal:first:2",
            "minimal:second:2",
            "minimal:second:3",
            "doubled:boolean",
            "krasner:5:4",
            "krasner:7:2",
            "hyper:hex1-c2",
            "hyper:hex1-c3",
            "hyper:hex2-c4",
            "hyper:weaksign-c2",
            "powerset-symdiff:2",
        )
    ]
