import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_rref
from uniformity import ratlin
from uniformity.errors import ValidationError
from uniformity.leibman import RatSubspace

BIG = 2**130

entries = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.integers(-BIG, BIG),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),
)


@st.composite
def matrices(draw, max_cols=6, max_rows=10):
    """Rational matrices with zero, duplicate and dependent rows mixed in, in any order.

    At most 5 rows are drawn freely; the rest, up to ``max_rows`` in all, are
    zero rows, duplicates and combinations of two earlier rows, so a tall
    matrix is mostly dependent rows.
    """
    ncols = draw(st.integers(1, max_cols))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=min(5, max_rows)))
    extra = draw(st.integers(0, max_rows - len(rows)))
    for kind in draw(st.lists(st.sampled_from(["zero", "dup", "combo"]), min_size=extra, max_size=extra)):
        if kind == "zero" or not rows:
            rows.append([0] * ncols)
        elif kind == "dup":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            a, b = draw(entries), draw(entries)
            rows.append([a * x + b * y for x, y in zip(u, v)])
    return ncols, draw(st.permutations(rows))


def _apply(rows, vec):
    return [sum(Fraction(a) * b for a, b in zip(r, vec)) for r in rows]


@settings(max_examples=150, deadline=None)
@given(matrices(max_rows=40))
def test_rref_matches_fraction_gauss_jordan(m):
    _, rows = m
    assert ratlin.rref(rows) == brute_rref(rows)


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_echelon_rows_are_primitive_and_reduced(m):
    _, rows = m
    ints, pivots = ratlin.echelon(rows)
    for row, c in zip(ints, pivots):
        assert all(type(v) is int for v in row)
        assert math.gcd(*row) == 1 and row[c] > 0
        assert not any(row[:c])
        assert all(row[d] == 0 for d in pivots if d != c)


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_nullspace_is_the_canonical_kernel_basis(m):
    ncols, rows = m
    red, pivots = brute_rref(rows)
    want = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in zip(red, pivots):
            v[pc] = -r[fc]
        want.append(tuple(v))
    got = ratlin.nullspace(rows, ncols=ncols)
    assert got == want
    for v in got:
        assert not any(_apply(rows, v))


@settings(max_examples=100, deadline=None)
@given(matrices(), st.data())
def test_solve_matches_the_augmented_oracle(m, data):
    ncols, rows = m
    if not rows:
        assert ratlin.solve(rows, []) is None
        return
    if data.draw(st.booleans()):
        # a right-hand side in the column space
        x = data.draw(st.lists(entries, min_size=ncols, max_size=ncols))
        rhs = _apply(rows, x)
    else:
        rhs = data.draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
    red, pivots = brute_rref([list(r) + [b] for r, b in zip(rows, rhs)])
    got = ratlin.solve(rows, rhs)
    if ncols in pivots:
        assert got is None
        return
    want = [Fraction(0)] * ncols
    for r, pc in zip(red, pivots):
        want[pc] = r[-1]
    assert got == tuple(want)
    assert _apply(rows, got) == [Fraction(b) for b in rhs]


@settings(max_examples=100, deadline=None)
@given(matrices(), st.data())
def test_subspace_contains_matches_rank_oracle(m, data):
    ncols, rows = m
    space = RatSubspace(ncols, rows)
    assert space.rows == tuple(brute_rref(rows)[0])
    rank = len(brute_rref(rows)[0])
    if rows and data.draw(st.booleans()):
        coeffs = data.draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
        vec = [sum(Fraction(c) * r[k] for c, r in zip(coeffs, rows)) for k in range(ncols)]
        assert space.contains(vec)
    else:
        vec = data.draw(st.lists(entries, min_size=ncols, max_size=ncols))
    assert space.contains(vec) == (len(brute_rref(list(rows) + [vec])[0]) == rank)


def test_more_rows_than_columns_and_big_entries():
    big = 3**90  # about 143 bits
    rows = [[big, 1], [Fraction(1, big), Fraction(2, 3)], [2 * big, 2], [0, 0], [5, Fraction(-7, big)]]
    assert ratlin.rref(rows) == brute_rref(rows)
    assert ratlin.rref(rows)[1] == [0, 1]
    assert RatSubspace(2, rows[:1]).contains([big * big, big])
    assert not RatSubspace(2, rows[:1]).contains([big, 2])


def test_ragged_rows_raise_before_any_work(monkeypatch):
    calls = []
    monkeypatch.setattr(ratlin, "_integer_row", lambda row: calls.append(row) or list(row))
    with pytest.raises(ValidationError):
        ratlin.echelon([[1, 2, 3], [1, 2]])
    with pytest.raises(ValidationError):
        ratlin.rref([[0, 0], [1, 2], [0]])
    assert calls == []


def test_subspace_checks_every_input_row_against_the_ambient_dimension():
    with pytest.raises(ValidationError):
        RatSubspace(2, [[1, 2], [3, 4, 5]])
    with pytest.raises(ValidationError):
        RatSubspace(3, [[1, 2], [3, 4]])
    with pytest.raises(ValidationError):
        RatSubspace(3, [[0, 0]])  # a zero row of the wrong length too
    assert RatSubspace(2, [[0, 0], [1, 2]]).dim == 1


def test_integer_primitive_sign_and_content():
    assert ratlin.integer_primitive([Fraction(-2, 3), 0, Fraction(4, 9)]) == (3, 0, -2)
    assert ratlin.integer_primitive([0, 0]) == (0, 0)
    assert ratlin.integer_primitive([]) == ()


int_rows = st.one_of(
    st.lists(st.one_of(st.integers(-3, 3), st.integers(-BIG - 5, BIG + 5), st.just(0)), max_size=6),
    st.integers(0, 6).map(lambda n: [0] * n),
)


@settings(max_examples=200, deadline=None)
@given(int_rows)
def test_integer_row_all_int_rows_match_the_general_path(row):
    want = ratlin._integer_row([Fraction(v) for v in row])  # Fraction entries take the general path
    got = ratlin._integer_row(row)
    assert got == want
    assert all(type(v) is int for v in got)
    assert ratlin._integer_row(tuple(row)) == want
    assert math.gcd(*got) in (0, 1)


def test_integer_row_bool_and_numpy_entries_take_the_general_path(monkeypatch):
    calls = []

    def spy(v):
        calls.append(v)
        return Fraction(v)

    monkeypatch.setattr(ratlin, "Fraction", spy)
    assert ratlin._integer_row([4, -6, 0, BIG * 2]) == [2, -3, 0, BIG]
    assert calls == []
    assert ratlin._integer_row([True, 0, 2]) == [1, 0, 2]
    assert calls == [True]
    calls.clear()
    assert ratlin._integer_row([np.int64(4), 6, np.int64(-2)]) == [2, 3, -1]
    assert len(calls) == 2
