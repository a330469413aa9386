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
    Matrix,
    adjoint,
    cayley_hamilton_check,
    cramer_solve,
    det_doubled,
    is_singular,
    laplace_expand,
    make_algebra,
    mat_mul,
    matrix,
    st_ghost,
    st_tan,
    submatrix_rank,
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
import pairlin.matrices as matrices_mod

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


# ---------------------------------------------------------------------------
# singularity on codes, and the codes a matrix keeps

dst = make_doubled(st)
# every registered pair, the supertropical pair and the doubled pairs above,
# and the doubled supertropical pair, whose codec rebinds per call
SINGULAR_PAIRS = PAIRS + [dst]


def draw_any(rng, alg):
    """A carrier element, for hyperpairs also an atom set off the carrier,
    a supertropical element of ST_ELEMENTS, or a pair of those."""
    if alg is dst:
        return alg.el((rng.choice(ST_ELEMENTS), rng.choice(ST_ELEMENTS)))
    return rng.choice(elements(alg))


@pytest.mark.parametrize("alg", SINGULAR_PAIRS, ids=lambda alg: alg.id)
def test_coded_singularity_is_the_balance_of_the_element_tracks(alg):
    rng = random.Random(f"singular:{alg.id}")
    for n in range(1, 5):
        for _ in range(40):
            a = matrix(alg, [[draw_any(rng, alg) for _ in range(n)] for _ in range(n)])
            assert is_singular(a) == det_tracks(a).balanced(), (alg.id, a.entries)
    for n in (2, 3):  # the identity, its null-row variant and all zeros
        one, zero = alg.one, alg.zero
        eye = [[one if i == j else zero for j in range(n)] for i in range(n)]
        for rows in (eye, eye[:-1] + [[zero] * n], [[zero] * n] * n):
            a = matrix(alg, rows)
            assert is_singular(a) == det_tracks(a).balanced(), (alg.id, rows)


def test_the_sign_pair_s_singular_3x3s_are_decided_as_on_elements():
    sign = make_algebra("sign")
    t0 = (sign.zero,) + sign.tangibles
    for bits in itertools.product(t0, repeat=9):
        a = matrix(sign, [bits[0:3], bits[3:6], bits[6:9]])
        assert is_singular(a) == det_doubled(a).balanced(), bits


def code_count(alg):
    """How many codes alg's codec can make: carrier indices for table pairs,
    atom masks for hyperpairs (sets off the carrier too), pairs of base
    codes for a doubled pair."""
    if alg.base is not None:
        return code_count(alg.base) ** 2
    if is_hyperpair(alg):
        return 2 ** (len(alg.tangibles) + 1)
    return len(alg.carrier)


@pytest.mark.parametrize("alg", SINGULAR_PAIRS, ids=lambda alg: alg.id)
def test_the_balance_memo_is_bounded_by_the_codes(alg):
    rng = random.Random(f"memo:{alg.id}")
    for n in range(1, 5):
        for _ in range(30):
            is_singular(matrix(alg, [[draw_any(rng, alg) for _ in range(n)] for _ in range(n)]))
    coding = alg.coding()
    if coding.rebind is not None:  # codes depend on each call's scale
        assert "balance" not in coding.memos
        return
    memo = coding.memos["balance"]
    assert 0 < len(memo) <= code_count(alg) ** 2
    if not is_hyperpair(alg) and alg.base is None:
        assert len(memo) <= len(alg.carrier) ** 2


def outcomes(a, v, rows):
    """kernel_outcomes with singularity and the submatrix rank."""
    out = kernel_outcomes(a, v, rows)
    out["singular"] = is_singular(a)
    out["submatrix_rank"] = submatrix_rank(a)
    return out


@pytest.mark.parametrize("alg", SINGULAR_PAIRS, ids=lambda alg: alg.id)
def test_kernels_on_one_matrix_twice_agree_with_a_fresh_matrix(alg):
    rng = random.Random(f"twice:{alg.id}")
    for n in range(2, 5):
        a = matrix(alg, [[draw_any(rng, alg) for _ in range(n)] for _ in range(n)])
        v = tuple(draw_any(rng, alg) for _ in range(n))
        rows = tuple(sorted(rng.sample(range(n), rng.randint(1, n - 1))))
        first = outcomes(a, v, rows)
        assert a._codes is not None
        again = outcomes(a, v, rows)
        fresh = outcomes(Matrix(alg, a.entries), v, rows)
        assert first == again == fresh, (alg.id, n, a.entries)


@pytest.mark.parametrize("spec", ["sign", "supertropical", "hyper:hex1-c3"])
def test_laplace_expansions_of_one_matrix_encode_it_once(spec, monkeypatch):
    alg = make_algebra(spec)
    rng = random.Random(spec)
    a = matrix(alg, [[draw(rng, alg) for _ in range(4)] for _ in range(4)])
    encoded = []
    inner = matrices_mod._encode
    monkeypatch.setattr(matrices_mod, "_encode", lambda c, rows: encoded.append(rows) or inner(c, rows))
    ref = det_tracks(a)
    for size in (1, 2):
        for rows in itertools.combinations(range(4), size):
            assert laplace_expand(a, rows) == ref, (spec, rows)
    assert is_singular(a) == ref.balanced()
    assert encoded == [a.entries]


def test_cramer_after_a_cached_determinant_binds_the_new_denominator():
    # a's codes are kept at scale 1; v's 1/7 needs scale 7, so Cramer's rule
    # must encode a again under the codec of a and v
    a = matrix(st, [[st_tan(2), st_ghost(0), st.zero],
                    [st_tan(1), st_tan(3), st_tan(-1)],
                    [st_tan(0), st_tan(5), st_ghost(4)]])
    v = (st_tan(Fraction(1, 7)), st_tan(Fraction(-2, 7)), st_ghost(Fraction(3, 7)))
    d = det_doubled(a)
    kept = a._codes
    assert d == det_tracks(a)
    out = cramer_solve(a, v)
    assert a._codes[0] is not kept[0]
    assert out == cramer_solve(Matrix(st, a.entries), v)
    # w = adj(A) v, folded on elements
    adj = adjoint(Matrix(st, a.entries))
    for i in range(3):
        p = st.sum(st.mul(adj[i, j].payload[0], v[j]) for j in range(3))
        q = st.sum(st.mul(adj[i, j].payload[1], v[j]) for j in range(3))
        assert out.w[i] == dst.el((p, q)), i
    # a later call without v encodes a at its own scale again
    assert det_doubled(a) == d and a._codes[0].encode(st_tan(2)) == 2 << 1
