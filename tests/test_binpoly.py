import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import eval_binom, frac_poly_add, frac_poly_mul, frac_poly_pow, frac_poly_scale
from uniformity.binpoly import (
    IntPoly,
    PolyMap,
    binom_int,
    binom_power,
    binom_powers,
    binom_table_mod,
    compose,
    cs_system,
    grid_values,
    parse_poly,
    parse_polymap,
)
from uniformity.errors import ValidationError


def test_binom_int_matches_falling_factorial():
    for n in range(-6, 10):
        for k in range(0, 7):
            assert binom_int(n, k) == eval_binom(n, k)


def test_parse_and_eval_against_plain_python():
    cases = [
        ("x + y^2", lambda x, y: x + y * y),
        ("x*y - 3*y + 2", lambda x, y: x * y - 3 * y + 2),
        ("C(x, 2) + C(y, 3)", lambda x, y: eval_binom(x, 2) + eval_binom(y, 3)),
        ("(x + 2*y)^3", lambda x, y: (x + 2 * y) ** 3),
        ("x^2/2 - x/2", lambda x, y: (x * x - x) // 2),
    ]
    for text, fn in cases:
        poly = parse_poly(text, variables=("x", "y"))
        for x in range(-3, 4):
            for y in range(-3, 4):
                assert poly(x, y) == fn(x, y), text


def test_parse_polymap_shape_and_variable_order():
    P = parse_polymap("x, x+y, x+y^2, x+y+y^2")
    assert P.t == 4
    assert P.variables == ("x", "y")
    assert P.degree == 2
    assert P.has_zero_constants
    assert P(3, 2) == (3, 5, 7, 9)


_NAMES = ["x", "y", "z"] + [f"h{i}" for i in range(1, 13)]


@st.composite
def _polymap_texts(draw):
    """Comma-separated sums of products of names and decimal or hex literals, with ^ and C(..., k)."""
    leaf = st.one_of(
        st.sampled_from(_NAMES),
        st.integers(0, 40).map(str),
        st.integers(0, 255).map(lambda n: f"0x{n:X}"),
    )
    factor = st.one_of(
        leaf,
        st.tuples(leaf, st.integers(0, 3)).map(lambda t: f"{t[0]}^{t[1]}"),
        st.tuples(st.lists(leaf, min_size=1, max_size=2), st.integers(0, 2)).map(lambda t: f"C({' + '.join(t[0])}, {t[1]})"),
    )
    term = st.lists(factor, min_size=1, max_size=2).map("*".join)
    component = st.lists(term, min_size=1, max_size=3).map(lambda ts: " - ".join(ts))
    return ", ".join(draw(st.lists(component, min_size=1, max_size=3)))


@settings(max_examples=150, deadline=None)
@given(_polymap_texts())
def test_parsed_variables_are_the_names_of_the_text_in_canonical_order(text):
    import ast

    def key(name):
        if name in ("x", "y"):
            return ("xy".index(name), 0, name)
        if name.startswith("h"):
            return (2, int(name[1:]), name)
        return (3, 0, name)

    tree = ast.parse(text.replace("^", "**"), mode="eval")
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and node.id != "C"}
    assert parse_polymap(text).variables == (tuple(sorted(names, key=key)) or ("x",))


@pytest.mark.parametrize("text", ["await x", "(yield x)", "x, (yield x)"])
def test_text_the_compiler_rejects_is_a_validation_error(text):
    with pytest.raises(ValidationError):
        parse_polymap(text)
    with pytest.raises(ValidationError):
        parse_poly(text)


def test_product_rule_matches_monomial_multiplication():
    # multiply in the standard power basis as an oracle
    a = parse_poly("C(x, 2) + x*y", variables=("x", "y"))
    b = parse_poly("C(y, 3) - 2*x + 1", variables=("x", "y"))
    prod = a * b
    for x in range(-4, 5):
        for y in range(-4, 5):
            assert prod(x, y) == a(x, y) * b(x, y)


def test_binom_power_matches_comb_of_values():
    P = parse_poly("x + y^2", variables=("x", "y"))
    for l in (1, 2, 3):
        Pl = binom_power(P, l)
        for x in range(-3, 4):
            for y in range(-3, 4):
                assert Pl(x, y) == eval_binom(int(P(x, y)), l)


def test_binom_powers_match_binom_power_and_values():
    P = parse_poly("x^2 - 3*x*y + C(y, 2)", variables=("x", "y"))
    powers = binom_powers(P, 5)
    assert len(powers) == 6
    for l, Pl in enumerate(powers):
        assert Pl == binom_power(P, l)
        for x in range(-3, 4):
            for y in range(-3, 4):
                assert Pl(x, y) == eval_binom(int(P(x, y)), l)
    M = parse_polymap("x, x+y^2, 2*x - y")
    for l, Ml in enumerate(binom_powers(M, 3)):
        assert Ml == binom_power(M, l)
        assert Ml(2, -3) == tuple(eval_binom(v, l) for v in (2, 11, 7))
    assert binom_powers(P, 0) == [IntPoly.constant(("x", "y"), 1)]
    with pytest.raises(ValidationError):
        binom_powers(P, -1)
    with pytest.raises(ValidationError):
        binom_power(M, -1)


def test_compose_matches_pointwise():
    Q = parse_poly("2*C(y, 2) - y", variables=("y",))
    P = parse_poly("x + 3*y", variables=("x", "y"))
    comp = compose(Q, P)
    for x in range(-3, 4):
        for y in range(-3, 4):
            assert comp(x, y) == Q(int(P(x, y)))
    Q = parse_poly("y^2/2 - y/3", variables=("y",))
    comp = compose(Q, P)
    for x in range(-3, 4):
        for y in range(-3, 4):
            assert comp(x, y) == Q(int(P(x, y))) == Fraction((x + 3 * y) ** 2, 2) - Fraction(x + 3 * y, 3)


def test_integer_valuedness():
    assert parse_poly("C(x, 3)", variables=("x",)).is_integer_valued
    assert parse_poly("x^2/2 + x/2", variables=("x",)).is_integer_valued
    assert not parse_poly("x/2", variables=("x",)).is_integer_valued


def test_degree_and_zero_conventions():
    z = IntPoly.zero(("x",))
    assert z.is_zero and z.degree == 0
    assert IntPoly.constant(("x",), 5).degree == 0
    assert parse_poly("x^3 + x", variables=("x",)).degree == 3


def test_eval_mod_table_matches_big_integer_evaluation():
    p = 13
    poly = parse_poly("C(x, 4) + 7*x^2", variables=("x",))
    table = poly.eval_mod_table(p)
    for x in range(p):
        assert table[x] == int(poly(x)) % p


def test_eval_mod_table_rejects_high_degree():
    poly = parse_poly("x^7", variables=("x",))
    with pytest.raises(ValidationError):
        poly.eval_mod_table(7)


def test_binom_table_mod_matches_comb():
    p = 11
    tab = binom_table_mod(p, 5)
    for k in range(6):
        for x in range(p):
            assert tab[k, x] == math.comb(x, k) % p


def test_grid_values_match_big_integer_evaluation():
    p = 7
    poly = parse_poly("3*x^3*z - C(y, 2)*x + 5*y*z^2 - 11", variables=("x", "y", "z"))
    want = np.array(
        [[int(poly(x, y, z)) % p for y in range(p) for z in range(p)] for x in range(p)],
        dtype=np.int64,
    )
    assert np.array_equal(grid_values(poly, p), want)
    for lo, hi in ((0, 1), (2, 5), (6, 7), (4, 100)):  # hi is clipped to p
        assert np.array_equal(grid_values(poly, p, lo, hi), want[lo:hi])
    assert grid_values(IntPoly.constant((), 9), p).tolist() == [[2]]
    with pytest.raises(ValidationError):
        grid_values(parse_poly("x/2"), p)


def test_split_outer_reassembles():
    poly = parse_poly("C(x, 2)*y + x*C(y, 2) + y^2", variables=("x", "y"))
    groups = poly.split_outer(1)
    # reassemble pointwise: sum over outer-index groups of C(x, a) * inner(y)
    for x in range(-3, 4):
        for y in range(-3, 4):
            tot = sum(eval_binom(x, o[0]) * inner(y) for o, inner in groups.items())
            assert tot == poly(x, y)


def test_monomial_roundtrip():
    poly = parse_poly("C(x, 3) - 2*C(x, 1) + 5", variables=("x",))
    mono = poly.monomial_coeffs()
    back = IntPoly.from_monomials(("x",), mono)
    assert back == poly


def test_json_roundtrip():
    P = parse_polymap("x, x+y, x+2*y, x+y^2")
    assert PolyMap.from_json_dict(P.to_json_dict()) == P


def test_cs_system_components_evaluate_correctly():
    # component for w is x + (y + sum w_i h_i)^d - sum (i-1) w_i h_i,
    # ordered with the last bit of w varying fastest
    P = cs_system(2, 2)
    assert P.t == 4
    assert P.variables == ("x", "y", "h1", "h2")
    x, y, h1, h2 = 3, 2, 5, 7
    vals = P(x, y, h1, h2)
    expect = [
        x + y**2,
        x + (y + h2) ** 2 - h2,
        x + (y + h1) ** 2,
        x + (y + h1 + h2) ** 2 - h2,
    ]
    assert list(vals) == expect


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=0, max_size=4),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=0, max_size=4),
    st.integers(-3, 3),
    st.integers(-3, 3),
)
def test_ring_axioms_at_random_points(idx_a, idx_b, x, y):
    va = ("x", "y")
    a = IntPoly(va, {i: Fraction(1) for i in idx_a})
    b = IntPoly(va, {i: Fraction(1) for i in idx_b})
    assert (a + b)(x, y) == a(x, y) + b(x, y)
    assert (a * b)(x, y) == a(x, y) * b(x, y)
    assert a * b == b * a
    assert (a - b) + b == a


@settings(max_examples=40, deadline=None)
@given(st.integers(-8, 8), st.integers(0, 6), st.integers(0, 6))
def test_vandermonde_product_identity(n, a, b):
    # C(n,a) C(n,b) expands exactly in the binomial basis
    pa = IntPoly(("x",), {(a,): Fraction(1)})
    pb = IntPoly(("x",), {(b,): Fraction(1)})
    assert (pa * pb)(n) == math.comb(n, a) * math.comb(n, b) if n >= 0 else True
    assert (pa * pb)(n) == eval_binom(n, a) * eval_binom(n, b)


def _assert_normal_form(poly):
    assert poly.denominator > 0
    assert all(type(c) is int and c for c in poly.numerators.values())
    assert math.gcd(poly.denominator, *poly.numerators.values()) == 1
    assert all(type(c) is Fraction for c in poly.terms.values())


_FRACTIONS = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 6, 9]))


def _frac_dicts(nvars):
    idx = st.tuples(*[st.integers(0, 2)] * nvars)
    return st.dictionaries(idx, _FRACTIONS.filter(bool), max_size=3)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_arithmetic_matches_fraction_oracle(data):
    nvars = data.draw(st.integers(1, 3))
    fd = data.draw(_frac_dicts(nvars))
    # g is sometimes a multiple of f, so that sums and differences cancel
    gd = data.draw(
        st.one_of(_frac_dicts(nvars), _FRACTIONS.map(lambda c: frac_poly_scale(fd, c)))
    )
    c = data.draw(_FRACTIONS.filter(bool))
    n = data.draw(st.integers(-5, 5))
    e = data.draw(st.integers(0, 3))
    variables = ("x", "y", "z")[:nvars]
    f, g = IntPoly(variables, fd), IntPoly(variables, gd)
    one = (0,) * nvars
    cases = [
        (f + g, frac_poly_add(fd, gd)),
        (f - g, frac_poly_add(fd, gd, -1)),
        (-f, frac_poly_scale(fd, -1)),
        (f * g, frac_poly_mul(fd, gd)),
        (f * c, frac_poly_scale(fd, c)),
        (n * f, frac_poly_scale(fd, n)),
        (f / c, frac_poly_scale(fd, 1 / c)),
        (f ** e, frac_poly_pow(fd, e, nvars)),
        (f + c, frac_poly_add(fd, {one: c})),
        (n - f, frac_poly_add({one: Fraction(n)} if n else {}, fd, -1)),
    ]
    point = data.draw(st.tuples(*[st.integers(-4, 4)] * nvars))
    for got, want in cases:
        assert got.terms == want
        _assert_normal_form(got)
        assert got(point) == sum(
            (c * math.prod(eval_binom(x, i) for x, i in zip(point, idx)) for idx, c in want.items()), Fraction(0)
        )
        same = IntPoly(variables, want)
        assert got == same and hash(got) == hash(same)
    assert (f - f).is_zero and (f - f).denominator == 1


def test_normal_form_makes_equal_polynomials_equal():
    x = IntPoly.variable(("x",), "x")
    assert (x / 2) * 2 == x
    assert x / 6 + x / 3 == x / 2
    assert hash(x / 6 + x / 3) == hash(x / 2)
    assert hash((x / 2) * 2) == hash(x)
    half = x / 6 + x / 3
    assert half.numerators == {(1,): 1} and half.denominator == 2
    assert half.terms == {(1,): Fraction(1, 2)}
    assert all(type(c) is Fraction for c in half.terms.values())
    assert (x / -4).numerators == {(1,): -1} and (x / -4).denominator == 4
    assert (x / 2 - x / 2) == IntPoly.zero(("x",))
    assert (x / 2 - x / 2).denominator == 1
    tri = parse_poly("x^2/2 + x/2", variables=("x",))
    assert tri.denominator == 1 and tri.is_integer_valued
    assert parse_poly("x^2/2", variables=("x",)).denominator == 2
    assert IntPoly(("x",), {(1,): "2/4", (0,): 0}) == x / 2
    _assert_normal_form(half)


def test_coefficient_vectors_are_ints_exactly_for_integer_maps():
    P = parse_polymap("x + C(y, 2), 3*y - x*y")
    vecs = P.coefficient_vectors()
    assert vecs == {(1, 0): (1, 0), (0, 1): (0, 3), (0, 2): (1, 0), (1, 1): (0, -1)}
    assert all(type(v) is int for vec in vecs.values() for v in vec)
    Q = parse_polymap("x/2 + y, x")
    vecs = Q.coefficient_vectors()
    assert vecs == {(1, 0): (Fraction(1, 2), 1), (0, 1): (1, 0)}
    assert all(type(v) is Fraction for vec in vecs.values() for v in vec)
    assert list(vecs) == [(1, 0), (0, 1)]


def _plain_powers(P, lmax):
    """C(P, 0..lmax) by the recurrence C(P, r) = C(P, r-1) * (P - r + 1) / r in IntPoly arithmetic."""
    out = [IntPoly.constant(P.variables, 1)]
    for r in range(1, lmax + 1):
        out.append(out[-1] * (P - (r - 1)) / r)
    return out


def _binom_of_value(v, l):
    """C(v, l) for a rational value v: eval_binom at integers, the falling factorial otherwise."""
    if v.denominator == 1:
        return eval_binom(int(v), l)
    return math.prod((v - r for r in range(l)), start=Fraction(1)) / math.factorial(l)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_binom_powers_match_plain_recurrence_and_values(data):
    # each variable belongs to one of up to three blocks, and each term uses
    # the variables of one block, so P has up to three variable-disjoint parts
    variables = ("x", "y", "z", "w")
    block = data.draw(st.tuples(*[st.integers(0, 2)] * 4))
    terms = {}
    for _ in range(data.draw(st.integers(0, 5))):
        b = data.draw(st.integers(0, 2))
        idx = tuple(data.draw(st.integers(0, 2)) if block[k] == b else 0 for k in range(4))
        terms[idx] = terms.get(idx, 0) + data.draw(_FRACTIONS)
    terms[(0, 0, 0, 0)] = data.draw(st.one_of(st.just(Fraction(0)), _FRACTIONS))
    P = IntPoly(variables, terms)
    lmax = data.draw(st.integers(0, 7))
    powers = binom_powers(P, lmax)
    assert powers == _plain_powers(P, lmax)
    for Pl in powers:
        _assert_normal_form(Pl)
    for point in [(0, 0, 0, 0), (2, -1, 3, 1), (-3, 4, -2, 5)]:
        v = P(point)
        assert [Pl(point) for Pl in powers] == [_binom_of_value(v, l) for l in range(lmax + 1)]


def test_binom_powers_of_constants_and_single_parts():
    xy = ("x", "y")
    for c in (0, 3, -2, Fraction(5, 2)):
        P = IntPoly.constant(xy, c)
        assert binom_powers(P, 6) == _plain_powers(P, 6)
        assert [Pl.constant_term for Pl in binom_powers(P, 6)] == [_binom_of_value(Fraction(c), l) for l in range(7)]
    for text in ("x", "y^3", "3 + x*y", "x/3 + 2*y/3", "x + y + 6*C(y,2) + 6*C(y,3)"):
        P = parse_poly(text, variables=("x", "y", "z"))
        assert binom_powers(P, 9) == _plain_powers(P, 9)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_cs_system_powers_equal_the_per_component_powers(m, d):
    M = cs_system(m, d)
    for lmax in (2, 4):
        per_comp = [binom_powers(c, lmax) for c in M.components]
        assert [list(Ml.components) for Ml in binom_powers(M, lmax)] == [list(col) for col in zip(*per_comp)]


def test_components_that_are_not_restrictions_get_their_own_powers():
    # the first three share a support and differ in coefficients; the last is
    # the second at z = 0, and differs from the first at z = 0 in one coefficient
    M = parse_polymap("x + y^2 + z, x + 2*y^2 + z, x + y^2 + x*z, x + 2*y^2")
    for lmax in (3, 5):
        got = binom_powers(M, lmax)
        for k, c in enumerate(M.components):
            assert [Ml.components[k] for Ml in got] == _plain_powers(c, lmax)
    # a restriction, and a repeated component, take the powers they restrict
    R = parse_polymap("x + y + y*z, x + y, x + y + y*z, x")
    for k, c in enumerate(R.components):
        assert [Rl.components[k] for Rl in binom_powers(R, 5)] == _plain_powers(c, 5)


def test_counts_must_be_ints():
    P = parse_poly("x + y^2", variables=("x", "y"))
    M = parse_polymap("x, x+y")
    for bad in (True, False, 2.0, "2", None):
        for call in (
            lambda: binom_powers(P, bad),
            lambda: binom_powers(M, bad),
            lambda: binom_power(P, bad),
            lambda: P ** bad,
        ):
            with pytest.raises(ValidationError):
                call()


def test_coefficient_vectors_keep_graded_order_and_entries():
    M = parse_polymap("x + C(y, 3) + x*y, 2*C(x, 2) - y, x/2 + C(y, 2)")
    vecs = M.coefficient_vectors()
    keys = {m for c in M.components for m in c.numerators}
    assert list(vecs) == sorted(keys, key=lambda m: (sum(m), tuple(-e for e in m)))
    assert vecs == {m: tuple(c.coeff(m) for c in M.components) for m in keys}
    assert all(type(v) is Fraction for vec in vecs.values() for v in vec)


def test_unary_plus_is_its_operand_and_other_unary_operators_are_rejected():
    assert parse_poly("+x") == parse_poly("x")
    with pytest.raises(ValidationError, match="unsupported unary operator"):
        parse_poly("~x")
