from fractions import Fraction

import pytest

from uniformity import ratlin, relations
from uniformity.binpoly import compose, parse_polymap
from uniformity.errors import CostError, ValidationError
from uniformity.field import PrimeField
from uniformity.relations import IndependenceReport, find_relations, independence_report, weyl_witness


def _check_exact(P, rels):
    for r in rels:
        assert r.verify(P)
        total = None
        for q, comp in zip(r.outer, P.components):
            c = compose(q, comp)
            total = c if total is None else total + c
        assert total.is_zero


def test_four_term_linear_relation():
    P = parse_polymap("x, x+y, x+y^2, x+y+y^2")
    rels = find_relations(P, cap=2)
    assert len(rels) == 1
    r = rels[0]
    assert r.degrees == (1, 1, 1, 1)
    # x - (x+y) - (x+y^2) + (x+y+y^2) = 0 up to overall sign normalization
    signs = tuple(q.coeff((1,)) for q in r.outer)
    assert signs in ((1, -1, -1, 1), (-1, 1, 1, -1))
    _check_exact(P, rels)


def test_three_term_has_no_relation():
    P = parse_polymap("x, x+y, x+y^2")
    assert find_relations(P, cap=2) == []


def test_ap_with_square_has_quadratic_relation():
    P = parse_polymap("x, x+y, x+2*y, x+y^2")
    rels = find_relations(P, cap=4)
    assert len(rels) == 2
    _check_exact(P, rels)
    degs = sorted(max(r.degrees) for r in rels)
    assert degs == [1, 2]


def test_relations_of_a_map_with_fractional_coefficients():
    # 2 * (x/2) - x = 0, and the columns of C(x/2, l) carry denominators
    P = parse_polymap("x/2, x")
    rels = find_relations(P, cap=1)
    assert len(rels) == 1
    assert tuple(q.coeff((1,)) for q in rels[0].outer) == (2, -1)
    # 4 C(x/2, 2) - C(x, 2) + x/2 = 0 joins it at cap 2
    rels = find_relations(P, cap=2)
    assert [r.degrees for r in rels] == [(1, 1), (2, 2)]
    _check_exact(P, rels)


def test_relation_space_is_reparametrization_stable():
    # same components listed in a different order span the same relation space
    P1 = parse_polymap("x, x+y, x+y^2, x+y+y^2")
    P2 = parse_polymap("x+y+y^2, x+y^2, x+y, x")
    assert len(find_relations(P1, cap=2)) == len(find_relations(P2, cap=2))


def test_coeff_vector_layout():
    P = parse_polymap("x, x+y, x+y^2, x+y+y^2")
    (r,) = find_relations(P, cap=2)
    vec = r.coeff_vector(2)
    assert len(vec) == 8
    # columns (i, l) in order i major, l = 1..cap minor
    for i, q in enumerate(r.outer):
        assert vec[2 * i] == q.coeff((1,))
        assert vec[2 * i + 1] == q.coeff((2,))


def test_independence_report():
    P = parse_polymap("x, x+y, x+2*y, x+y^2")
    rep = independence_report(P, cap=4)
    assert rep.n_relations == 2
    assert rep.cap == 4
    assert len(rep.max_degrees) == 4
    assert max(rep.max_degrees) == 2
    assert rep.lower_bounds == rep.max_degrees


def test_weyl_witness_average_is_one():
    P = parse_polymap("x, x+y, x+y^2, x+y+y^2")
    (r,) = find_relations(P, cap=2)
    field = PrimeField(101)
    rep = weyl_witness(P, r, field, norm_degrees={0: 2})
    assert abs(rep.lam - 1) <= 1e-9
    assert len(rep.norms) == 1 and rep.norms[0].degree == 2


def test_weyl_witness_rejects_tiny_prime():
    from uniformity.binpoly import IntPoly
    from uniformity.relations import Relation

    P = parse_polymap("x, x+y")
    # outer degree 5 >= p = 5: binomial phase tables are no longer p-periodic
    q = IntPoly(("y",), {(5,): Fraction(1)})
    rel = Relation((q, -q))
    with pytest.raises(ValidationError):
        weyl_witness(P, rel, PrimeField(5))


def test_cap_budget():
    P = parse_polymap("x, x+y")
    with pytest.raises(CostError):
        find_relations(P, cap=100000)
    with pytest.raises(ValidationError):
        find_relations(P, cap=0)
    for cap in (True, 2.0, "2"):
        with pytest.raises(ValidationError):
            find_relations(P, cap=cap)


def test_relations_are_integer_primitive():
    P = parse_polymap("x, x+y, x+2*y, x+y^2")
    for r in find_relations(P, cap=4):
        coeffs = [c for q in r.outer for c in q.terms.values()]
        assert all(c.denominator == 1 for c in coeffs)
        from math import gcd

        g = 0
        for c in coeffs:
            g = gcd(g, int(c))
        assert g == 1


def test_report_from_found_relations_matches_independence_report():
    P = parse_polymap("x, x+y, x+2*y, x+y^2, x+y^3")
    for cap in (None, 2, 5):
        rels = find_relations(P, cap)
        rep = IndependenceReport.from_relations(P, rels, cap)
        assert rep == independence_report(P, cap)
        assert rep.cap == (6 if cap is None else cap)
        assert rep.n_relations == len(rels)
        for i in range(P.t):
            hit = [r.outer[i].degree for r in rels if not r.outer[i].is_zero]
            assert rep.max_degrees[i] == rep.lower_bounds[i] == max(hit, default=0)


def test_a_relation_that_fails_its_re_verification_is_an_integrity_error(monkeypatch):
    nullspace = ratlin.nullspace

    def skewed(rows, ncols):
        basis = nullspace(rows, ncols=ncols)
        basis[0] = (basis[0][0] + 1, *basis[0][1:])
        return basis

    monkeypatch.setattr(ratlin, "nullspace", skewed)
    with pytest.raises(ArithmeticError, match="re-verification"):
        find_relations(parse_polymap("x, x+y, x+y^2, x+y+y^2"), cap=2)


def test_a_witness_average_away_from_one_is_an_integrity_error(monkeypatch):
    P = parse_polymap("x, x+y, x+y^2, x+y+y^2")
    (r,) = find_relations(P, cap=2)
    monkeypatch.setattr(relations, "lambda_P", lambda P, fs: 0.5)
    with pytest.raises(ArithmeticError, match="is not 1 within"):
        weyl_witness(P, r, PrimeField(101))
