import math
from fractions import Fraction

import pytest

from uniformity.binpoly import binom_power, cs_system, parse_polymap
from uniformity.errors import CostError, ValidationError
from uniformity.leibman import (
    RatSubspace,
    SpaceLadder,
    filtration_condition,
    flag_condition,
    linear_psi_spaces,
    p_space,
    q_space,
)


def span(t, vs):
    return RatSubspace(t, [list(map(Fraction, v)) for v in vs])


class TestRatSubspace:
    def test_canonical_equality(self):
        a = span(3, [(1, 1, 1), (0, 1, 2)])
        b = span(3, [(1, 2, 3), (2, 3, 4)])  # same plane, different generators
        assert a == b
        assert hash(a) == hash(b)

    def test_contains(self):
        s = span(3, [(1, 0, 1), (0, 1, 1)])
        assert s.contains((1, 1, 2))
        assert not s.contains((1, 0, 0))
        assert s.contains((0, 0, 0))

    def test_add_and_product(self):
        a = span(2, [(1, 0)])
        b = span(2, [(0, 1)])
        assert a.add(b).is_full
        prod = span(2, [(1, 1)]).product(span(2, [(1, 2)]))
        assert prod == span(2, [(1, 2)])

    def test_zero_and_full(self):
        assert RatSubspace.zero(4).is_zero
        assert RatSubspace.full(4).is_full
        assert RatSubspace.full(4).contains_space(span(4, [(1, 2, 3, 4)]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            span(2, [(1, 0)]).add(span(3, [(1, 0, 0)]))
        with pytest.raises(ValidationError):
            span(2, [(1, 0)]).contains((1, 0, 0))


def test_four_term_ladder_table():
    # (x, x+y, x+y^2, x+y+y^2): full below the diagonal, then two thin bands
    P = parse_polymap("x, x+y, x+y^2, x+y+y^2")
    L = SpaceLadder(P, imax=4, jmax=8)
    v3, v4 = (0, 0, 1, 1), (0, 0, 0, 1)
    assert L.p(1, 1) == span(4, [(1, 1, 1, 1), (0, 1, 1, 2), v3])
    assert L.p(1, 2) == span(4, [v3])
    assert L.p(1, 3).is_zero
    for i in range(2, 5):
        for j in range(1, 9):
            if j <= i:
                expect = RatSubspace.full(4)
            elif j <= 2 * i - 1:
                expect = span(4, [v3, v4])
            elif j == 2 * i:
                expect = span(4, [v3])
            else:
                expect = RatSubspace.zero(4)
            assert L.p(i, j) == expect, (i, j)


def _ladder_oracle(P, i, j):
    """P_{i,j} by its definition: every coefficient vector of C(P, l), l <= i, of total degree >= j."""
    vecs = [
        vec
        for l in range(1, i + 1)
        for m, vec in binom_power(P, l).coefficient_vectors().items()
        if sum(m) >= j
    ]
    return RatSubspace(P.t, vecs)


@pytest.mark.parametrize(
    "P, zero_cells, full_cells",
    [(cs_system(3, 2), 12, 18), (parse_polymap("x, x+y, x+2*y, x+y^2"), None, None)],
    ids=["cs_system(3,2)", "x,x+y,x+2y,x+y^2"],
)
def test_ladder_cells_match_their_definition(P, zero_cells, full_cells):
    L = SpaceLadder(P)
    cells = {(i, j): L.p(i, j) for i in range(1, L.imax + 1) for j in range(1, L.jmax + 1)}
    for (i, j), space in cells.items():
        assert space == _ladder_oracle(P, i, j), (i, j)
    if zero_cells is not None:
        assert sum(s.is_zero for s in cells.values()) == zero_cells
        assert sum(s.is_full for s in cells.values()) == full_cells
    # below a full cell, or a zero one, the ladder reuses the space of the cell above
    for (i, j), space in cells.items():
        if j < L.jmax and (cells[i, j + 1].is_full or space.is_zero):
            assert space is cells[i, j + 1], (i, j)


def test_top_coefficient_of_binomial_powers():
    P = parse_polymap("x, x+y, x+y^2, x+y+y^2")
    for i in (1, 2, 3):
        Ci = binom_power(P, i)
        vec = tuple(c.coeff((0, 2 * i)) for c in Ci.components)
        w = math.factorial(2 * i) // math.factorial(i)
        assert vec == (0, 0, w, w)


def test_five_term_counterexample_cells_and_witness():
    P = parse_polymap("x, x+y+y^2+y^3, x+y^2+2*y^3, x+y^2+3*y^3, x+y^2+4*y^3")
    L = SpaceLadder(P, imax=2, jmax=6)
    assert L.p(1, 1) == span(
        5, [(1, 1, 1, 1, 1), (0, 1, 0, 0, 0), (0, 1, 1, 1, 1), (0, 1, 2, 3, 4)]
    )
    assert L.p(1, 2) == span(5, [(0, 1, 1, 1, 1), (0, 1, 2, 3, 4)])
    assert L.p(1, 3) == span(5, [(0, 1, 2, 3, 4)])
    assert L.p(1, 4).is_zero
    assert L.p(2, 4) == span(5, [(0, 1, 4, 9, 16), (0, 1, 2, 3, 4), (0, 3, 1, 1, 1)])
    rep = filtration_condition(P, imax=2, jmax=6)
    assert not rep.passed
    w = rep.witness
    assert (w.i1, w.j1, w.i2, w.j2) == (1, 1, 1, 3)
    assert w.v == (0, 1, 0, 0, 0)
    assert w.w == (0, 1, 2, 3, 4)
    assert w.vw == (0, 1, 0, 0, 0)


def test_three_term_ladders_and_closure():
    AP = parse_polymap("x, x+y, x+2*y")
    L = SpaceLadder(AP, imax=2, jmax=3)
    base = span(3, [(1, 1, 1), (0, 1, 2)])
    assert L.p(1, 1) == base
    assert L.q(1, 1) == base
    assert L.q(2, 1).is_full and L.q(2, 2).is_full
    assert L.q(1, 2).is_zero and L.q(2, 3).is_zero
    assert filtration_condition(AP, 3, 3).passed


def test_ladder_monotone_inclusions():
    for text in ("x, x+y, x+y^2, x+y+y^2", "x, x+y, x+2*y, x+y^2"):
        P = parse_polymap(text)
        L = SpaceLadder(P, imax=3, jmax=6)
        for i in range(1, 4):
            for j in range(1, 7):
                if i < 3:
                    assert L.p(i + 1, j).contains_space(L.p(i, j))
                if j < 6:
                    assert L.p(i, j).contains_space(L.p(i, j + 1))
                assert L.q(i, j).contains_space(L.p(i, j))


def test_p_equals_q_on_passing_progressions():
    for text in ("x, x+y, x+y^2, x+y+y^2", "x, x+y, x+2*y, x+y^2"):
        P = parse_polymap(text)
        assert filtration_condition(P).passed
        L = SpaceLadder(P)
        for i in range(1, L.imax + 1):
            for j in range(1, L.jmax + 1):
                assert L.p(i, j) == L.q(i, j), (text, i, j)


def test_linear_psi_spaces_and_flag():
    AP = parse_polymap("x, x+y, x+2*y")
    spaces = linear_psi_spaces(AP, 3)
    assert spaces[0] == span(3, [(1, 1, 1), (0, 1, 2)])
    assert spaces[1].is_full
    assert flag_condition(AP, 3)
    # ladder cell = sum of power spaces j..i
    for i in range(1, 4):
        for j in range(1, 4):
            acc = RatSubspace.zero(3)
            for l in range(j, i + 1):
                acc = acc.add(spaces[l - 1])
            assert p_space(AP, i, j) == acc


def test_single_form_flag_trivial():
    one = parse_polymap("x", variables=("x", "y"))
    spaces = linear_psi_spaces(one, 3)
    assert all(s.is_full for s in spaces)
    assert flag_condition(one, 3)


def test_linear_psi_rejects_nonlinear():
    with pytest.raises(ValidationError):
        linear_psi_spaces(parse_polymap("x, x+y^2"), 2)


def test_ladder_bounds_and_budget():
    P = parse_polymap("x, x+y")
    with pytest.raises(ValidationError):
        SpaceLadder(P, imax=0, jmax=1)
    with pytest.raises(CostError):
        SpaceLadder(P, imax=100, jmax=100)
    L = SpaceLadder(P, imax=2, jmax=2)
    with pytest.raises(ValidationError):
        L.p(3, 1)
    # a bool or a float is not a bound, even where its value would be one
    for bounds in ({"imax": True}, {"jmax": True}, {"imax": 2.0}, {"imax": 2, "jmax": 2.0}):
        with pytest.raises(ValidationError):
            SpaceLadder(P, **bounds)


def test_q_space_convenience():
    AP = parse_polymap("x, x+y, x+2*y")
    assert q_space(AP, 1, 2).is_zero


def test_cs_system_filtration_passes():
    assert filtration_condition(cs_system(3, 2), imax=2, jmax=4).passed
