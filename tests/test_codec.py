"""Each pair's codec against the descriptor's own arithmetic, and the coded
kernels under each pair's codec against the generic El codec and det_tracks.

The El codec (core.el_codec) codes every element as itself and adds and
multiplies with the descriptor's raw operations; swapping it in for every
pair runs the same kernels without the pair's own codes.
"""

import itertools
import random
from fractions import Fraction

import pytest

from pairlin import (
    adjoint,
    cayley_hamilton_check,
    cramer_solve,
    det_doubled,
    laplace_expand,
    make_algebra,
    mat_mul,
    matrix,
    st_ghost,
    st_tan,
)
from pairlin.core import Codec, El, PairAlgebra, PairError, el_codec
from pairlin.instances import (
    make_counting,
    make_doubled,
    make_supertropical,
    registered_instances,
)
from pairlin.matrices import char_poly_doubled, det_tracks
from pairlin.solve import _adj_vec

st = make_algebra("supertropical")
PAIRS = list(registered_instances()) + [
    st,
    make_algebra("doubled:sign"),
    make_algebra("doubled:krasner:5:4"),
]

# mixed denominators 1/2/3, large coprime denominators, negative values,
# ghosts and zero
ST_ELEMENTS = st.sample + (
    st_tan(Fraction(-7, 3)),
    st_ghost(Fraction(5, 2)),
    st_tan(Fraction(1, 3)),
    st_ghost(Fraction(-1, 2)),
    st_tan(Fraction(2, 1_000_003)),
    st_ghost(Fraction(-5, 999_983)),
    st_tan(Fraction(1_000_003, 999_983)),
    st_tan(-12),
    st_ghost(12),
)


def is_hyperpair(alg):
    return alg.id.startswith(("hyper:", "krasner:"))


def elements(alg):
    """Every carrier element, and for hyperpairs every atom set outside the
    carrier; the supertropical pair's sample plus ST_ELEMENTS."""
    if alg is st:
        return ST_ELEMENTS
    out = tuple(alg.carrier)
    if is_hyperpair(alg):
        atoms = len(alg.tangibles) + 1
        carrier = {e.payload for e in alg.carrier}
        out += tuple(El(alg.id, m) for m in range(1, 1 << atoms) if m not in carrier)
    return out


def without_codec(monkeypatch, fn):
    """fn() with every pair on the El codec."""
    with monkeypatch.context() as m:
        m.setattr(PairAlgebra, "coding", lambda self, elements=(): el_codec(self))
        return fn()


@pytest.mark.parametrize("alg", PAIRS, ids=lambda alg: alg.id)
def test_decode_inverts_encode(alg):
    els = elements(alg)
    coding = alg.coding(els)
    assert coding.decode(coding.zero) == alg.zero
    assert coding.decode(coding.one) == alg.one
    for x in els:
        assert coding.decode(coding.encode(x)) == x, (alg.id, x)


@pytest.mark.parametrize("alg", PAIRS, ids=lambda alg: alg.id)
def test_code_arithmetic_is_the_descriptors(alg):
    els = elements(alg)
    coding = alg.coding(els)
    enc, dec = coding.encode, coding.decode
    for x, y in itertools.product(els, repeat=2):
        assert dec(coding.add(enc(x), enc(y))) == alg.add(x, y), (alg.id, x, y)
        assert dec(coding.mul(enc(x), enc(y))) == alg.mul(x, y), (alg.id, x, y)


def test_supertropical_codes_are_scaled_integers_with_a_ghost_bit():
    coding = st.coding(ST_ELEMENTS)
    scale = 6 * 1_000_003 * 999_983
    assert coding.encode(st_tan(Fraction(1, 3))) == (scale // 3) << 1
    assert coding.encode(st_ghost(Fraction(-1, 2))) == (-scale // 2) << 1 | 1
    assert coding.encode(st.zero) is None and coding.zero is None
    # a call's codes cover only the denominators it was bound to
    with pytest.raises(PairError):
        st.coding([st_tan(1)]).encode(st_tan(Fraction(1, 3)))


def test_codecs_are_built_on_first_use():
    for alg in (make_counting(7), make_supertropical(), make_doubled(make_counting(7))):
        assert "codec" not in alg._memo
        assert isinstance(alg.coding(), Codec)
        assert "codec" in alg._memo


def draw(rng, alg):
    if alg is st:
        return rng.choice(ST_ELEMENTS)
    return rng.choice(alg.carrier)


def kernel_outcomes(a, v, rows):
    """Every coded kernel's value on a, or what it raised."""
    out = {}
    for name, fn in (
        ("det", lambda: det_doubled(a)),
        ("adjoint", lambda: adjoint(a)),
        ("laplace", lambda: laplace_expand(a, rows)),
        ("char_poly", lambda: char_poly_doubled(a)),
        ("cayley_hamilton", lambda: cayley_hamilton_check(a)),
        ("cramer", lambda: cramer_solve(a, v)),
        ("mat_mul", lambda: mat_mul(a, a)),
    ):
        try:
            out[name] = ("value", fn())
        except PairError as exc:
            out[name] = ("raised", type(exc), str(exc))
    return out


@pytest.mark.parametrize("alg", PAIRS, ids=lambda alg: alg.id)
def test_kernels_agree_with_and_without_codec(alg, monkeypatch):
    rng = random.Random(f"codec:{alg.id}")
    for n in range(1, 7):
        a = matrix(alg, [[draw(rng, alg) for _ in range(n)] for _ in range(n)])
        v = tuple(draw(rng, alg) for _ in range(n))
        rows = tuple(sorted(rng.sample(range(n), rng.randint(1, n - 1)))) if n > 1 else (0,)
        coded = kernel_outcomes(a, v, rows)
        plain = without_codec(monkeypatch, lambda: kernel_outcomes(a, v, rows))
        assert coded == plain, (alg.id, n, a.entries)
        ref = det_tracks(a)
        assert coded["det"] == ("value", ref), (alg.id, n)
        if n > 1:
            assert coded["laplace"] == ("value", ref), (alg.id, n, rows)
        if n <= 5:
            assert coded["cayley_hamilton"] == ("value", True), (alg.id, n)


@pytest.mark.parametrize("alg", PAIRS, ids=lambda alg: alg.id)
def test_cramer_determinant_equals_det_doubled(alg):
    # DP pairs extend the adjoint's last layer by the last column; walk
    # pairs take a layer of their own
    rng = random.Random(f"cramer-det:{alg.id}")
    for n in range(1, 7):
        a = matrix(alg, [[draw(rng, alg) for _ in range(n)] for _ in range(n)])
        v = tuple(draw(rng, alg) for _ in range(n))
        coding, _, _, _, (p, q) = _adj_vec(a, v)
        d = det_doubled(a)
        assert (coding.decode(p), coding.decode(q)) == (d.det_plus, d.det_minus), (alg.id, n)


@pytest.mark.parametrize("spec", ["sign", "supertropical", "hyper:hex1-c3", "doubled:boolean"])
def test_cayley_hamilton_codes_a_once(spec, monkeypatch):
    alg = make_algebra(spec)
    rng = random.Random(spec)
    inner = PairAlgebra.coding
    calls = []

    def coding(self, elements=()):
        calls.append(self)
        return inner(self, elements)

    monkeypatch.setattr(PairAlgebra, "coding", coding)
    for n in range(1, 5):
        a = matrix(alg, [[draw(rng, alg) for _ in range(n)] for _ in range(n)])
        calls.clear()
        assert cayley_hamilton_check(a)
        assert calls == [alg], (spec, n)


class Counting:
    """A codec wrapper that counts its mul calls."""

    def __init__(self, coding):
        self.calls = 0
        inner = coding.mul

        def mul(x, y):
            self.calls += 1
            return inner(x, y)

        self.coding = Codec(
            coding.zero, coding.one, coding.add, mul, coding.encode, coding.decode
        )


@pytest.mark.parametrize("spec", ["sign", "supertropical", "hyper:hex1-c3", "doubled:boolean"])
def test_det_products_count_the_code_products(spec, monkeypatch):
    alg = make_algebra(spec)
    rng = random.Random(spec)
    inner = PairAlgebra.coding
    seen = []

    def coding(self, elements=()):
        seen.append(Counting(inner(self, elements)))
        return seen[-1].coding

    monkeypatch.setattr(PairAlgebra, "coding", coding)
    for n in range(1, 7):
        pool = ST_ELEMENTS if alg is st else alg.carrier
        a = matrix(alg, [[rng.choice(pool) for _ in range(n)] for _ in range(n)])
        seen.clear()
        d = det_doubled(a)
        assert d.products == seen[0].calls > 0, (spec, n)
