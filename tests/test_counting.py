import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_average, brute_count, brute_energy
from uniformity import counting, ratlin
from uniformity.binpoly import IntPoly, PolyMap, cs_system, parse_polymap
from uniformity.counting import (
    SetF,
    additive_energy,
    count_in_set,
    decompose_via_linear,
    lambda_P,
    lambda_linear,
    verify_asymptotic,
)
from uniformity.errors import CostError, ValidationError
from uniformity.field import FieldFn, PrimeField, is_prime
from uniformity.norms import gowers_norm


def _random_fns(p, n, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    F = PrimeField(p)
    return [FieldFn.random_bounded(F, rng) for _ in range(n)]


def test_lambda_matches_brute_force_affine():
    p = 13
    P = parse_polymap("x, x+y, x+2*y, x+y^2")
    fs = _random_fns(p, 4, 1)
    comps = [
        lambda x, y: x,
        lambda x, y: x + y,
        lambda x, y: x + 2 * y,
        lambda x, y: x + y * y,
    ]
    want = brute_average([f.values for f in fs], comps, p, 2)
    assert lambda_P(P, fs) == pytest.approx(want, abs=1e-12)


def test_lambda_matches_brute_force_generic():
    p = 11
    P = parse_polymap("x*y, x + C(y, 2), y")
    fs = _random_fns(p, 3, 2)
    comps = [
        lambda x, y: x * y,
        lambda x, y: x + y * (y - 1) // 2,
        lambda x, y: y,
    ]
    want = brute_average([f.values for f in fs], comps, p, 2)
    assert lambda_P(P, fs) == pytest.approx(want, abs=1e-12)


def test_lambda_three_parameters():
    p = 7
    P = parse_polymap("x, x+y, x+z, x+y+z")
    fs = _random_fns(p, 4, 3)
    comps = [
        lambda x, y, z: x,
        lambda x, y, z: x + y,
        lambda x, y, z: x + z,
        lambda x, y, z: x + y + z,
    ]
    want = brute_average([f.values for f in fs], comps, p, 3)
    assert lambda_P(P, fs) == pytest.approx(want, abs=1e-12)


def test_lambda_threads_agree():
    p = 61
    P = parse_polymap("x, x+y, x+y^2, x+y+y^2")
    fs = _random_fns(p, 4, 4)
    a = lambda_P(P, fs, threads=1)
    b = lambda_P(P, fs, threads=4)
    assert a == pytest.approx(b, abs=1e-13)


def test_count_in_set_exact():
    p = 13
    F = PrimeField(p)
    A = SetF.from_spec(F, "random:5:0.5")
    P = parse_polymap("x, x+y, x+2*y")
    comps = [lambda x, y: x, lambda x, y: x + y, lambda x, y: x + 2 * y]
    assert count_in_set(P, A) == brute_count(A.members, comps, p, 2)


def test_count_full_set():
    p = 11
    F = PrimeField(p)
    A = SetF(F, range(p))
    P = parse_polymap("x, x+y, x+y^2")
    assert count_in_set(P, A) == p * p


def test_a_bool_array_of_length_p_is_the_membership_table():
    F = PrimeField(7)
    mask = np.array([True, False, True, False, False, True, False])
    A = SetF(F, mask)
    assert A.members == (0, 2, 5) and len(A) == 3
    assert not A.bool_table().flags.writeable and A.bool_table() is not mask
    # other arrays list elements, in any integer type, even one too narrow to hold p
    assert SetF(PrimeField(211), np.array([1, 5, -3], dtype=np.int8)).members == (1, 5, 208)
    for short in (np.array([True, False, True]), np.ones(8, dtype=bool)):
        with pytest.raises(ValidationError, match="length p = 7"):
            SetF(F, short)


@pytest.mark.parametrize("kind", [list, tuple])
def test_a_list_or_tuple_of_bools_of_length_p_is_the_membership_table(kind):
    F = PrimeField(7)
    flags = kind([True, False, True, False, False, np.True_, False])
    assert SetF(F, flags).members == (0, 2, 5)
    assert FieldFn.indicator(F, flags).values.tolist() == [1, 0, 1, 0, 0, 1, 0]
    for make in (SetF, FieldFn.indicator):
        with pytest.raises(ValidationError, match="length p = 7"):
            make(F, kind([True, False, True]))
    # an empty list is the empty set, and a list that mixes bools with ints lists elements
    assert SetF(F, kind()).members == ()
    assert SetF(F, kind([True, 3])).members == (1, 3)


@pytest.mark.parametrize("spec", ["random:1:0.3", "random:2:0.7", "residues:2", "interval:2:9"])
def test_additive_energy_matches_brute_force(spec):
    F = PrimeField(31)
    A = SetF.from_spec(F, spec)
    assert additive_energy(A) == brute_energy(A.members, 31)


def test_additive_energy_full_field():
    F = PrimeField(11)
    assert additive_energy(SetF(F, range(11))) == 11**3


def test_additive_energy_catches_a_count_off_by_one(monkeypatch):
    # shifting one r(s) by exactly 1 passes the rounding guard but not the sum
    F = PrimeField(31)
    A = SetF.from_spec(F, "random:1:0.3")
    calls = []
    convolve = counting._convolution

    def skewed(x, y):
        out = convolve(x, y)
        calls.append(y is x)
        out[3] += 1
        return out

    monkeypatch.setattr(counting, "_convolution", skewed)
    with pytest.raises(ArithmeticError, match="add up"):
        additive_energy(A)
    # both halves of x + y - u - z are r, convolved once with itself (one forward transform)
    assert calls == [True]


def test_additive_energy_exact_at_a_million_points():
    # A single rounding of p^3 * sum |A^|^4 gives 62957687998187960 here.
    A = SetF.from_spec(PrimeField(1000003), "random:1:0.5")
    assert additive_energy(A) == 62957687998187885


@pytest.mark.parametrize("p", [3, 11, 31, 101, 1009])
def test_residue_sets_match_python_pow(p):
    F = PrimeField(p)
    for k in (1, 2, 3, 5, p - 2, p - 1, p, p + 1, 3 * p + 2, 10**20 + 7):
        want = tuple(sorted({pow(x, k, p) for x in range(1, p)}))
        assert SetF.from_spec(F, f"residues:{k}").members == want, k


def test_residue_sets_above_the_int64_bound_are_refused():
    m = counting._INT64_SQRT
    assert m * m < 2**63 <= (m + 1) * (m + 1)
    # the vectorised power is exact up to the bound: the largest prime p with p - 1 <= m
    p = next(q for q in range(m + 1, 0, -1) if is_prime(q))
    x = np.array([1, 2, 3, p // 2, p - 2, p - 1], dtype=np.int64)
    for k in (1, 2, 7, p - 2, 2**40 + 3):
        assert counting._pow_mod(x, k, p).tolist() == [pow(int(v), k, p) for v in x]
    # the first prime above it would overflow int64 products
    q = next(q for q in range(m + 2, 2 * m) if is_prime(q))
    with pytest.raises(CostError):
        SetF.from_spec(PrimeField(q), "residues:2")


def test_set_membership():
    p = 13
    A = SetF.from_spec(PrimeField(p), "random:4:0.4")
    members = set(A.members)
    for x in range(-2 * p, 2 * p):
        assert (x in A) == (x % p in members)
    assert 0 not in SetF(PrimeField(p), [])
    assert len(A) == len(A.members) and A.density == len(A.members) / p
    table = A.bool_table()
    assert not table.flags.writeable
    assert np.array_equal(np.flatnonzero(table), A.members)
    assert np.array_equal(A.indicator().values, table)


def test_set_specs():
    F = PrimeField(11)
    assert SetF.from_spec(F, "interval:3:5").members == (3, 4, 5)
    qr = SetF.from_spec(F, "residues:2")
    assert qr.members == tuple(sorted({x * x % 11 for x in range(1, 11)}))
    r1 = SetF.from_spec(F, "random:9:0.5")
    r2 = SetF.from_spec(F, "random:9:0.5")
    assert r1.members == r2.members  # seeded determinism
    with pytest.raises(ValidationError):
        SetF.from_spec(F, "bogus:1")
    with pytest.raises(ValidationError):
        SetF.from_spec(F, "random:1:1.5")
    assert SetF.from_spec(F, "members:3,-1,14,3").members == (3, 10)
    # an interval costs at most p residues, however long or far out it is
    G = PrimeField(101)
    assert SetF.from_spec(G, f"interval:0:{10**30}").members == tuple(range(101))
    a = 2**70
    assert SetF.from_spec(G, f"interval:{a}:{a + 3}").members == tuple(sorted((a + i) % 101 for i in range(4)))


@pytest.mark.parametrize("p, seed", [(3, 0), (101, 1), (2003, 7), (40009, 9)])
@pytest.mark.parametrize("density", [0, 0.3, 0.5, 1])
def test_a_random_spec_is_the_set_of_its_draws_below_the_density(p, seed, density):
    # the Philox draw's bool table is the membership table; the member list it marks gives the same set
    F = PrimeField(p)
    A = SetF.from_spec(F, f"random:{seed}:{density}")
    draws = np.random.Generator(np.random.Philox(seed)).random(p)
    want = SetF(F, [int(x) for x in np.flatnonzero(draws < density)])
    assert np.array_equal(A.bool_table(), want.bool_table())
    assert A.members == want.members and len(A) == len(want)
    if density in (0, 1):
        assert len(A) == density * p


def test_lambda_linear_cube_identity():
    p = 31
    Psi = parse_polymap("x, x+y, x+z, x+y+z")
    lam, direct, scanned = _linear_and_scan(Psi, _random_fns(p, 4, 6))
    assert not scanned
    assert lam == pytest.approx(direct, abs=1e-10)


def test_lambda_linear_two_progressions_identity():
    p = 31
    Psi = parse_polymap("x, x+y, x+2*y, x+z, x+2*z")
    lam, direct, scanned = _linear_and_scan(Psi, _random_fns(p, 5, 7))
    assert not scanned
    assert lam == pytest.approx(direct, abs=1e-10)


def test_lambda_linear_recognizes_reparametrization():
    # cube lattice in disguised coordinates: y -> y+z, z -> z
    p = 31
    Psi = parse_polymap("x, x+y+z, x+z, x+y+2*z")
    lam, direct, scanned = _linear_and_scan(Psi, _random_fns(p, 4, 8))
    assert not scanned
    assert lam == pytest.approx(direct, abs=1e-10)


def test_lambda_linear_transforms_each_distinct_function_once(monkeypatch):
    # the cube's one constraint w1 - w2 - w3 + w4 = 0 splits into two halves of two
    # coordinates; each distinct half is one convolution, a self-convolution when
    # its two tables agree, and equal halves share it
    p = 31
    Psi = parse_polymap("x, x+y, x+z, x+y+z")
    f, g = _random_fns(p, 2, 9)
    convolve = counting._convolution
    calls = []

    def recorded(x, y):
        calls.append("self" if x is y else "cross")
        return convolve(x, y)

    monkeypatch.setattr(counting, "_convolution", recorded)
    for fs, want in (([f] * 4, ["self"]), ([f, g, f, g], ["cross"]), ([f, g, g, f], ["self", "self"])):
        calls.clear()
        lam, direct, _ = _linear_and_scan(Psi, fs)
        assert calls == want
        assert lam == pytest.approx(direct, abs=1e-10)


def test_decompose_via_linear_roundtrip():
    P = parse_polymap("x, x+y, x+y^2, x+y+y^2")
    Psi, Qs = decompose_via_linear(P)
    assert Psi.t == P.t
    assert len(Qs) == Psi.nvars
    for x in range(-3, 4):
        for y in range(-3, 4):
            inner = [int(Q(x, y)) for Q in Qs]
            assert tuple(Psi(*inner)) == tuple(P(x, y))


def test_verify_asymptotic_full_field_residual_zero():
    F = PrimeField(101)
    A = SetF(F, range(101))
    P = parse_polymap("x, x+y, x+y^2, x+y+y^2")
    rep = verify_asymptotic(P, A)
    assert rep.residual == 0.0
    assert rep.lhs_count == 101**2


def test_verify_asymptotic_accepts_a_factorization_over_the_rationals():
    # x = (2x)/2: the coefficient vector (1, 1, 1) of x is half a column of V, in no integer combination
    P = parse_polymap("x, x+y, x+2*y")
    Psi = parse_polymap("2*x, 2*x+y, 2*x+2*y")
    V = [[Fraction(2), Fraction(0)], [Fraction(2), Fraction(1)], [Fraction(2), Fraction(2)]]
    assert ratlin.solve(V, (1, 1, 1)) == (Fraction(1, 2), Fraction(0))
    A = SetF.from_spec(PrimeField(101), "random:4:0.5")
    rep = verify_asymptotic(P, A, Psi=Psi)
    # 2 is a unit mod 101, so Psi has the image of P and the model is the count itself
    assert rep.lhs_count == count_in_set(P, A)
    assert rep.rhs_model == pytest.approx(rep.lhs_count, rel=1e-12)


def test_verify_asymptotic_rejects_a_model_it_cannot_evaluate_before_counting(monkeypatch):
    P = parse_polymap("x, x+y, x+y^2, x+y^3, x+2*y+y^2+y^3, x+y+2*y^2")
    A = SetF.from_spec(PrimeField(101), "random:1:0.5")

    def must_not_count(*args, **kwargs):
        raise AssertionError("the p^D count ran before the model was evaluated")

    monkeypatch.setattr(counting, "_scan_blocks", must_not_count)
    with pytest.raises(CostError):  # four parameters in the linear model, which no route contracts
        verify_asymptotic(P, A)


def test_verify_asymptotic_rejects_bad_factorization():
    F = PrimeField(101)
    A = SetF.from_spec(F, "random:3:0.5")
    P = parse_polymap("x, x+y, x+y^2, x+y+y^2")
    Psi = parse_polymap("x, x+y, x+z, x+2*y+z")  # wrong lattice
    with pytest.raises(ValidationError):
        verify_asymptotic(P, A, Psi=Psi)


@pytest.mark.parametrize(
    "text, psi",
    [
        ("x, x+y, x+y^2", "x, y"),  # a shorter system: the rank test would compare vectors of different lengths
        ("x, x+y", "x, y, x+y"),  # a longer one
    ],
)
def test_verify_asymptotic_rejects_a_linear_system_of_another_length(text, psi):
    A = SetF.from_spec(PrimeField(31), "random:1:0.5")
    with pytest.raises(ValidationError, match="components"):
        verify_asymptotic(parse_polymap(text), A, Psi=parse_polymap(psi))


def test_grid_budget_enforced():
    fs = _random_fns(11, 4, 9)
    P = parse_polymap("x, x+y, x+z, x+w^2")
    with pytest.raises(ValidationError):
        lambda_P(P, fs)  # 4 parameters unsupported by the scan
    # a linear map in 4 parameters is contracted, not scanned: its image is F_p^4
    Psi = parse_polymap("x, x+y, x+z, x+w")
    assert lambda_P(Psi, fs) == pytest.approx(math.prod(f.mean() for f in fs), abs=1e-12)


def test_degree_must_stay_below_p():
    fs = _random_fns(5, 2, 10)
    P = parse_polymap("x, x+y^7")
    with pytest.raises(ValidationError):
        lambda_P(P, fs)


@pytest.mark.parametrize(
    "text, comps, p",
    [
        ("x, x*y, x^2*y^2 + y", [lambda x, y: x, lambda x, y: x * y, lambda x, y: x * x * y * y + y], 3),
        ("x^3*y^2, x + y^4, x*y^3", [lambda x, y: x**3 * y * y, lambda x, y: x + y**4, lambda x, y: x * y**3], 5),
        ("x, x + y^2*z^2", [lambda x, y, z: x, lambda x, y, z: x + y * y * z * z], 3),
    ],
)
def test_total_degree_may_reach_p_when_every_exponent_stays_below_it(text, comps, p):
    # each C(x, k) with k < p is a function on F_p, so these maps are well defined there
    P = parse_polymap(text)
    assert P.degree >= p
    D = P.nvars
    fs = _random_fns(p, P.t, 17)
    assert lambda_P(P, fs) == pytest.approx(brute_average([f.values for f in fs], comps, p, D), abs=1e-12)
    A = SetF.from_spec(PrimeField(p), "random:17:0.6")
    assert count_in_set(P, A) == brute_count(A.members, comps, p, D)
    # an exponent at p is still rejected, by the one evaluator every scan goes through
    Q = parse_polymap(f"x, x + y^{p}")
    with pytest.raises(ValidationError, match="exponent"):
        lambda_P(Q, fs[:2])
    with pytest.raises(ValidationError, match="exponent"):
        count_in_set(Q, A)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.1, 0.9))
def test_energy_properties(seed, dens):
    F = PrimeField(61)
    A = SetF.from_spec(F, f"random:{seed}:{dens}")
    n = len(A)
    e = additive_energy(A)
    # diagonal quadruples give n^2; Cauchy-Schwarz gives n^4/p
    assert e >= max(n * n, n**4 // 61)
    assert e <= n**3 + 1e-9


# ----------------------------------------------------------------------
# cross-route checks: window scans, the generic walk and brute-force oracles


def _x_last(P):
    """The same map with its first variable moved to the end."""
    return PolyMap(
        P.variables[1:] + P.variables[:1],
        [IntPoly(P.variables[1:] + P.variables[:1], {i[1:] + i[:1]: c for i, c in comp.terms.items()}) for comp in P.components],
    )


def _windows_on_x(P, p):
    """Whether the window plan runs on the first variable with row components only."""
    plan = counting._window_plan(P, p)
    return plan is not None and plan[0] == 0 and not plan[2]


def _check_routes(P, comps, p, seed):
    """P is x + c_i(rest) with x first; comps evaluates the same map in plain Python."""
    D = P.nvars
    Q = _x_last(P)
    assert _windows_on_x(P, p)
    assert not _windows_on_x(Q, p)
    fs = _random_fns(p, P.t, seed)
    want = brute_average([f.values for f in fs], comps, p, D)
    assert lambda_P(P, fs) == pytest.approx(want, abs=1e-12)
    assert lambda_P(Q, fs) == pytest.approx(want, abs=1e-12)
    A = SetF.from_spec(PrimeField(p), f"random:{seed}:0.6")
    n = brute_count(A.members, comps, p, D)
    assert count_in_set(P, A) == n
    assert count_in_set(Q, A) == n
    for R in (P, Q):
        _check_scan(R, fs, want, A, n)
        _check_generic(R, fs, want, A, n)


def _check_scan(P, fs, want, A, n):
    """The grid scan, called directly, against the oracle values.

    ``lambda_P`` and ``count_in_set`` contract a linear map, so this is how
    such a map reaches a window scan.
    """
    p = A.field.p
    assert counting._scan_blocks(P, p, [f.values for f in fs]) / p**P.nvars == pytest.approx(want, abs=1e-12)
    count = counting._scan_blocks(P, p, [A.bool_table()] * P.t)
    assert type(count) is int and count == n


def _check_generic(P, fs, want, A, n):
    """The generic walk, called directly, against the oracle values.

    Bool tables give the count as an int; the same set as a float 0/1 table
    gives the same number as a complex sum.
    """
    p = A.field.p
    raw = counting._scan_generic(P, p, [f.values for f in fs])
    assert type(raw) is complex
    assert raw / p**P.nvars == pytest.approx(want, abs=1e-12)
    count = counting._scan_generic(P, p, [A.bool_table()] * P.t)
    assert type(count) is int and count == n
    assert counting._scan_generic(P, p, [A.indicator().values] * P.t) == complex(n)


_MONOMIALS = {2: [(0,), (1,), (2,)], 3: [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_affine_maps_agree_across_routes(data):
    D = data.draw(st.sampled_from([2, 3]))
    p = data.draw(st.sampled_from([5, 7, 11] if D == 2 else [3, 5]))
    shifts = data.draw(
        st.lists(
            st.lists(st.integers(-3, 3), min_size=len(_MONOMIALS[D]), max_size=len(_MONOMIALS[D])),
            min_size=1,
            max_size=3,
        )
    )
    seed = data.draw(st.integers(0, 2**16))
    rest = ("y", "z")[: D - 1]
    texts = ["x"]
    for coeffs in shifts:
        terms = [
            "*".join([f"({c})"] + [f"{v}^{e}" for v, e in zip(rest, mono) if e])
            for c, mono in zip(coeffs, _MONOMIALS[D])
        ]
        texts.append("x + " + " + ".join(terms))
    P = parse_polymap(", ".join(texts), variables=("x",) + rest)

    def shift_fn(coeffs):
        return lambda x, *r: x + sum(c * math.prod(v**e for v, e in zip(r, mono)) for c, mono in zip(coeffs, _MONOMIALS[D]))

    comps = [lambda x, *r: x] + [shift_fn(coeffs) for coeffs in shifts]
    _check_routes(P, comps, p, seed)


def test_cube_and_cs_system_take_the_window_kernel():
    cube = parse_polymap("x, x+y, x+z, x+y+z")
    _check_routes(
        cube,
        [lambda x, y, z: x, lambda x, y, z: x + y, lambda x, y, z: x + z, lambda x, y, z: x + y + z],
        7,
        11,
    )
    _check_routes(
        cs_system(1, 2),
        [lambda x, y, h: x + y * y, lambda x, y, h: x + (y + h) ** 2],
        5,
        12,
    )


def test_window_plan_takes_any_variable_and_column_components():
    # (map, window variable, row components, column components)
    for text, v, rows, cols in (
        ("x, x+y, x^2+y", 1, [1, 2], [0]),
        ("y, x+y", 0, [1], [0]),
        ("x, 2*x+y", 1, [1], [0]),
    ):
        plan = counting._window_plan(parse_polymap(text), 7)
        assert plan is not None
        assert (plan[0], [i for i, _ in plan[1]], [i for i, _ in plan[2]]) == (v, rows, cols)
    for text in ("x*y, x+C(y, 2), y", "x, x+y, x^2+y^2", "x/2 + y, y"):
        assert counting._window_plan(parse_polymap(text), 7) is None


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_row_and_column_components_agree_with_the_oracles(data):
    D = data.draw(st.sampled_from([2, 3]))
    p = data.draw(st.sampled_from([5, 7, 11] if D == 2 else [3, 5]))
    n_mono = len(_MONOMIALS[D])
    comps_drawn = data.draw(
        st.lists(
            st.tuples(st.booleans(), st.lists(st.integers(-3, 3), min_size=n_mono, max_size=n_mono)),
            min_size=1,
            max_size=4,
        )
    )
    comps_drawn[0] = (True, comps_drawn[0][1])  # at least one row component
    const = data.draw(st.integers(-3, 3))
    at = data.draw(st.integers(0, len(comps_drawn)))
    seed = data.draw(st.integers(0, 2**16))
    rest = ("y", "z")[: D - 1]

    def rest_text(coeffs):
        return " + ".join(
            "*".join([f"({c})"] + [f"{v}^{e}" for v, e in zip(rest, mono) if e])
            for c, mono in zip(coeffs, _MONOMIALS[D])
        )

    def rest_fn(coeffs):
        return lambda *r: sum(c * math.prod(v**e for v, e in zip(r, mono)) for c, mono in zip(coeffs, _MONOMIALS[D]))

    def comp_fn(is_row, c):
        return lambda x, *r: x * is_row + c(*r)

    texts = [("x + " if is_row else "") + rest_text(coeffs) for is_row, coeffs in comps_drawn]
    comps = [comp_fn(is_row, rest_fn(coeffs)) for is_row, coeffs in comps_drawn]
    texts.insert(at, f"({const})")
    comps.insert(at, lambda x, *r: const)
    P = parse_polymap(", ".join(texts), variables=("x",) + rest)

    plan = counting._window_plan(P, p)
    assert plan is not None and plan[0] == 0
    assert len(plan[1]) == sum(is_row for is_row, _ in comps_drawn)
    fs = _random_fns(p, P.t, seed)
    want = brute_average([f.values for f in fs], comps, p, D)
    assert lambda_P(P, fs) == pytest.approx(want, abs=1e-12)
    A = SetF.from_spec(PrimeField(p), f"random:{seed}:0.6")
    n = brute_count(A.members, comps, p, D)
    assert count_in_set(P, A) == n
    _check_scan(P, fs, want, A, n)
    _check_generic(P, fs, want, A, n)


def test_maps_not_affine_in_x_skip_the_window_kernel():
    for text in ("x, x+y, x^2+y", "x, 2*x+y", "x, x+x*y", "y, x+y"):
        assert not _windows_on_x(parse_polymap(text), 7)


def test_window_kernel_spans_several_blocks():
    p = 257  # 257 rest points in blocks of 2^15 // 257 = 127 rows: the last block is partial
    P = parse_polymap("x, x+y, x+y^2, x+y+y^2")
    Q = _x_last(P)
    fs = _random_fns(p, 4, 13)
    assert lambda_P(P, fs) == pytest.approx(lambda_P(Q, fs), abs=1e-13)
    A = SetF.from_spec(PrimeField(p), "random:13:0.5")
    assert count_in_set(P, A) == count_in_set(Q, A)
    # x, x+y, x^2+y takes the window on y, with x as a column component.
    R = parse_polymap("x, x+y, x^2+y")
    fs = fs[:3]
    raw = counting._scan_generic(R, p, [f.values for f in fs])
    assert lambda_P(R, fs) == pytest.approx(raw / p**2, abs=1e-13)
    count = counting._scan_generic(R, p, [A.bool_table()] * 3)
    assert type(count) is int and count_in_set(R, A) == count
    assert counting._scan_generic(R, p, [A.indicator().values] * 3) == complex(count)


@pytest.mark.parametrize("text", ["x, x+y, x+y^2, x+y+y^2", "x, x+y, x^2+y"])
def test_complex_window_sums_do_not_depend_on_the_block_size(monkeypatch, text):
    # 257 rest points in blocks of 127 (2^15 // 257), 7 and 1 rows, and of
    # 3 rows with a partial last block of 2: each row is summed, then the rows
    p = 257
    P = parse_polymap(text)
    assert counting._window_plan(P, p) is not None
    fs = _random_fns(p, P.t, 13)
    lams = set()
    for block in (1 << 15, 7 * p, p, 3 * p + 1):
        monkeypatch.setattr(counting, "_WINDOW_BLOCK", block)
        lam = lambda_P(P, fs)
        lams.add((lam.real.hex(), lam.imag.hex()))
    assert len(lams) == 1, lams


@pytest.mark.parametrize("text, p", [("x, x+y, x+y^2, x+y+y^2", 2003), ("x, x+y, x^2+y", 1009)])
def test_a_complex_window_scan_evaluates_each_rest_table_once(text, p):
    # 2^15 // p rest points per block gives 126 and 33 blocks; the window
    # gathers take every block's rows from the rest tables of the plan
    P = parse_polymap(text)
    assert counting._window_plan(P, p) is not None and p // (counting._WINDOW_BLOCK // p) > 30
    fs = _random_fns(p, P.t, 1)
    with mock.patch.object(counting, "grid_values", wraps=counting.grid_values) as spy:
        lam = lambda_P(P, fs)
    assert spy.call_count == P.t
    assert lam == pytest.approx(counting._scan_generic(P, p, [f.values for f in fs]) / p**2, abs=1e-12)


_PACKED_MAPS = {
    # rows only
    "x, x+y, x+y^2, x+y+y^2": [lambda x, y: x, lambda x, y: x + y, lambda x, y: x + y * y, lambda x, y: x + y + y * y],
    # window on y, x a column component
    "x, x+y, x^2+y": [lambda x, y: x, lambda x, y: x + y, lambda x, y: x * x + y],
    # one parameter: a zero-variable rest grid
    "x, x+3": [lambda x: x, lambda x: x + 3],
    "x, x+y, x+z, x+y+z": [lambda x, y, z: x, lambda x, y, z: x + y, lambda x, y, z: x + z, lambda x, y, z: x + y + z],
}


@pytest.mark.parametrize(
    "p, text",
    [
        (p, text)
        for p in (61, 67, 127, 131, 191, 193)  # 127 and 191 are 63 mod 64, 193 is 1 mod 64
        for text in _PACKED_MAPS
        if p <= 67 or text != "x, x+y, x+z, x+y+z"
    ],
)
def test_packed_window_counts_match_the_oracles(monkeypatch, p, text):
    P = parse_polymap(text)
    D = P.nvars
    assert counting._window_plan(P, p) is not None
    F = PrimeField(p)
    rng = np.random.default_rng(p)
    sets = [SetF(F, rng.choice(p, int(rng.integers(1, p)), replace=False).tolist()) for _ in range(2)]
    # the full set shows any bit counted past p in a row's last word
    sets += [SetF(F, []), SetF(F, range(p))]
    for A in sets:
        want = brute_count(A.members, _PACKED_MAPS[text], p, D)
        n = count_in_set(P, A)
        assert type(n) is int and n == want
        # the packed kernel itself: count_in_set contracts the cube instead
        bools = [A.bool_table()] * P.t
        assert counting._scan_blocks(P, p, bools) == want
        # the float average of the indicator, which the packed kernel does not touch
        assert n == round(lambda_P(P, [A.indicator()] * P.t).real * p**D)
        with monkeypatch.context() as m:
            # blocks of one to a few rest points: many blocks, the last one partial
            m.setattr(counting, "_WINDOW_BLOCK", 7)
            assert counting._scan_blocks(P, p, bools) == want


@pytest.mark.parametrize("p", [5, 101])
@pytest.mark.parametrize(
    "text, comps, window",
    [
        pytest.param("x, x+3", [lambda x: x, lambda x: x + 3], True, id="x, x+3"),
        pytest.param("x, x^2, x^3+1", [lambda x: x, lambda x: x * x, lambda x: x**3 + 1], False, id="x, x^2, x^3+1"),
        pytest.param("x, 2*x", [lambda x: x, lambda x: 2 * x], False, id="x, 2*x"),
    ],
)
def test_one_parameter_maps_match_the_oracles(p, text, comps, window):
    P = parse_polymap(text)
    # x, x+3 windows on x over a zero-variable rest grid; the others take the generic walk
    assert (counting._window_plan(P, p) is not None) == window
    fs = _random_fns(p, P.t, p)
    assert lambda_P(P, fs) == pytest.approx(brute_average([f.values for f in fs], comps, p, 1), abs=1e-12)
    A = SetF.from_spec(PrimeField(p), f"random:{p}:0.5")
    assert count_in_set(P, A) == brute_count(A.members, comps, p, 1)


def test_generic_kernel_blocks_agree_with_the_oracles(monkeypatch):
    cases = [
        ("x, x^2, x^3+1", [lambda x: x, lambda x: x * x, lambda x: x**3 + 1], 7),
        ("x, x+y, x^2+y^2", [lambda x, y: x, lambda x, y: x + y, lambda x, y: x * x + y * y], 7),
        (
            "x^2+y, y^2+z, z^2+x",
            [lambda x, y, z: x * x + y, lambda x, y, z: y * y + z, lambda x, y, z: z * z + x],
            5,
        ),
    ]
    for text, comps, p in cases:
        P = parse_polymap(text)
        D = P.nvars
        assert counting._window_plan(P, p) is None
        fs = _random_fns(p, P.t, 21)
        want = brute_average([f.values for f in fs], comps, p, D)
        A = SetF.from_spec(PrimeField(p), "random:21:0.6")
        n = brute_count(A.members, comps, p, D)
        row = p ** (D - 1)
        lams = []
        for block in (3 * row + 1, row, max(1, row // 2)):  # partial last block, one row, less than a row
            monkeypatch.setattr(counting, "_GENERIC_BLOCK", block)
            lams.append(lambda_P(P, fs))
            assert lams[-1] == pytest.approx(want, abs=1e-12), (text, block)
            assert count_in_set(P, A) == n, (text, block)
        # one sum per row, then one over the rows: the block size does not
        # matter.  Not at D = 1, whose blocks here hold one point each: numpy
        # may round an in-place product of one-element arrays differently
        # from its vector loop.
        if D > 1:
            assert lams[1:] == lams[:-1], text


def _old_set_definitions(p, raw):
    """Reference members, indicator values and bool table, built member by member."""
    members = tuple(sorted({int(x) % p for x in raw}))
    ind = np.zeros(p, dtype=np.complex128)
    for x in members:
        ind[int(x) % p] = 1.0
    table = np.zeros(p, dtype=bool)
    table[list(members)] = True
    return members, ind, table


def test_set_tables_match_the_member_by_member_definitions():
    p = 1009
    F = PrimeField(p)
    mask = np.random.Generator(np.random.Philox(21)).random(p) < 0.4
    big = 2**64 + 13
    cases = [
        ("random:21:0.4", np.nonzero(mask)[0].tolist()),
        ("interval:-5:1030", range(-5, 1031)),
        (f"members:3,{big},-1,{p + 3}", [3, big, -1, p + 3]),
    ]
    for spec, raw in cases:
        A = SetF.from_spec(F, spec)
        members, ind, table = _old_set_definitions(p, raw)
        assert A.members == members
        assert all(type(m) is int for m in A.members)
        assert np.array_equal(A.indicator().values, ind)
        assert np.array_equal(A.bool_table(), table)
        assert np.array_equal(FieldFn.indicator(F, raw).values, ind)
    # integer arrays, negative entries included, reduce as the member-by-member path does
    arr = np.array([-1, 3, p + 3, 2 * p - 1, 0], dtype=np.int64)
    assert SetF(F, arr).members == SetF(F, arr.tolist()).members == (0, 3, p - 1)
    assert SetF(F, np.array([p + 3, 0, 3], dtype=np.uint64)).members == (0, 3)
    assert SetF(F, np.array([], dtype=np.int64)).members == ()


def _unimodular(data, D):
    """A random D x D integer matrix of determinant +-1, built from elementary column moves."""
    U = [[int(i == j) for j in range(D)] for i in range(D)]
    for _ in range(data.draw(st.integers(0, 6))):
        i, j = data.draw(st.permutations(range(D)))[:2]
        kind = data.draw(st.sampled_from(["add", "swap", "negate"]))
        c = data.draw(st.integers(-2, 2))
        for row in U:
            if kind == "add":
                row[i] += c * row[j]
            elif kind == "swap":
                row[i], row[j] = row[j], row[i]
            else:
                row[i] = -row[i]
    return U


# Generator matrices of the two systems with closed forms.
_CUBE_V = ((1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1))
_TWO_APS_V = ((1, 0, 0), (1, 1, 0), (1, 2, 0), (1, 0, 1), (1, 0, 2))


def _linear_system(V, M):
    """The linear map with coefficient matrix V * M in the variables x, y, z."""
    W = [[sum(a * M[k][j] for k, a in enumerate(row)) for j in range(3)] for row in V]
    variables = ("x", "y", "z")
    units = [tuple(int(j == k) for j in range(3)) for k in range(3)]
    return PolyMap(variables, [IntPoly(variables, dict(zip(units, row))) for row in W])


def _linear_and_scan(Psi, fs):
    """lambda_linear of Psi, its grid-scan average, and whether lambda_linear reached the scan."""
    p = fs[0].p
    with mock.patch.object(counting, "_scan_blocks", wraps=counting._scan_blocks) as scan:
        lam = lambda_linear(Psi, fs)
    return lam, counting._scan_blocks(Psi, p, [f.values for f in fs]) / p**Psi.nvars, scan.called


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_lambda_linear_closed_forms_match_the_scan_under_reparametrization(data):
    V = data.draw(st.sampled_from([_CUBE_V, _TWO_APS_V]))
    p = data.draw(st.sampled_from([5, 7, 11]))
    Psi = _linear_system(V, _unimodular(data, 3))
    fs = _random_fns(p, len(V), data.draw(st.integers(0, 2**16)))
    lam, want, scanned = _linear_and_scan(Psi, fs)
    assert not scanned  # the closed form was taken
    assert lam == pytest.approx(want, abs=1e-10)


def _scan_expected(V, p):
    """Whether lambda_linear should scan the system with coefficient matrix V at p.

    Brute force over F_p^t: W^perp is every xi with xi . V = 0 mod p, of size
    p^c.  The sum over it is contracted when c <= 1, or when c = 2 and some
    pair of coordinates (j, k) parametrizes W^perp while leaving at most one
    coordinate on which both of its basis points u (xi_j, xi_k = 1, 0) and
    v (xi_j, xi_k = 0, 1) are nonzero.
    """
    t = len(V)
    xi = np.indices((p,) * t).reshape(t, -1).T
    perp = xi[np.all(xi @ np.array(V, dtype=np.int64).reshape(t, -1) % p == 0, axis=1)]
    c = round(math.log(len(perp), p))
    if c != 2:
        return c > 2
    for j in range(t):
        for k in range(j + 1, t):
            if len({(a, b) for a, b in perp[:, [j, k]].tolist()}) < p * p:
                continue
            (u,) = perp[(perp[:, j] == 1) & (perp[:, k] == 0)]
            (v,) = perp[(perp[:, j] == 0) & (perp[:, k] == 1)]
            if np.count_nonzero((u != 0) & (v != 0)) <= 1:
                return False
    return True


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_lambda_linear_scans_exactly_when_the_annihilator_does_not_contract(data):
    V = data.draw(st.sampled_from([_CUBE_V, _TWO_APS_V]))
    p = data.draw(st.sampled_from([3, 5, 7, 11]))
    M = [[data.draw(st.integers(-3, 3)) for _ in range(3)] for _ in range(3)]
    Psi = _linear_system(V, M)
    fs = _random_fns(p, len(V), data.draw(st.integers(0, 2**16)))
    lam, want, scanned = _linear_and_scan(Psi, fs)
    VM = [[sum(a * M[k][j] for k, a in enumerate(row)) for j in range(3)] for row in V]
    assert scanned == _scan_expected(VM, p)
    if round(np.linalg.det(np.array(M, dtype=float))) % p:
        assert not scanned  # M is invertible mod p: the image is the cube's or the two APs'
    assert lam == pytest.approx(want, abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_lambda_linear_matches_brute_force_on_random_linear_systems(data):
    p = data.draw(st.sampled_from([3, 5, 7, 11]))
    r = data.draw(st.integers(1, 3))
    V = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=r, max_size=r), min_size=1, max_size=5))
    variables = ("x", "y", "z")[:r]
    units = [tuple(int(j == k) for j in range(r)) for k in range(r)]
    Psi = PolyMap(variables, [IntPoly(variables, dict(zip(units, row))) for row in V])
    fs = _random_fns(p, len(V), data.draw(st.integers(0, 2**16)))
    lam, _, scanned = _linear_and_scan(Psi, fs)
    comps = [lambda *y, row=row: sum(a * b for a, b in zip(row, y)) for row in V]
    assert lam == pytest.approx(brute_average([f.values for f in fs], comps, p, r), abs=1e-10)
    assert scanned == _scan_expected(V, p)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_the_linear_model_of_a_set_is_its_exact_count_on_random_linear_systems(data):
    p = data.draw(st.sampled_from([3, 5, 7, 11]))
    r = data.draw(st.integers(1, 3))
    V = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=r, max_size=r), min_size=1, max_size=5))
    variables = ("x", "y", "z")[:r]
    units = [tuple(int(j == k) for j in range(r)) for k in range(r)]
    Psi = PolyMap(variables, [IntPoly(variables, dict(zip(units, row))) for row in V])
    A = SetF(PrimeField(p), data.draw(st.lists(st.integers(0, p - 1), max_size=p)))
    comps = [lambda *y, row=row: sum(a * b for a, b in zip(row, y)) for row in V]
    model = verify_asymptotic(Psi, A, Psi=Psi).rhs_model
    assert type(model) is int
    assert model == brute_count(A.members, comps, p, r)
    # the same contraction on complex tables, a float sum, gives the count of its int64 tables
    assert model == round(lambda_linear(Psi, [A.indicator()] * Psi.t).real * p**r)


@pytest.mark.parametrize(
    "text, route",
    [
        ("x, y", (0, 0)),
        ("x, x+y, x+2*y", (1, 0)),
        ("x, y, z, w, x+y+2*z+3*w", (1, 0)),  # a five-term constraint: halves of three and two coordinates
        ("x, x+y, x+2*y, z, 3*z", (2, 0)),
        ("x, x+y, x+2*y, x+z, x+2*z", (2, 1)),
        ("x, x+y, x+2*y, x+3*y, x+4*y", None),
    ],
)
def test_each_route_of_the_linear_model_gives_the_exact_count(text, route):
    # route is (c, mixed coordinates) of the contracted basis of W^perp, or None for the scan
    Psi = parse_polymap(text)
    p = 7
    U = counting._dual_basis(Psi, p)
    if route is None:
        assert U is None
    else:
        assert (len(U), len(counting._mixed(U)) if len(U) == 2 else 0) == route
    D = Psi.nvars
    comps = [lambda *y, comp=comp: int(comp(*y)) for comp in Psi.components]
    for spec in ("random:3:0.5", "members:0,1,3", "interval:0:6"):
        A = SetF.from_spec(PrimeField(p), spec)
        model = count_in_set(Psi, A)
        assert type(model) is int
        assert model == brute_count(A.members, comps, p, D)


_CONTRACTED = ["x, y", "x, 2*x, 3*x", "x, x+y, x+2*y", "x, x+y, x+z, x+y+z", "x, x+y, x+2*y, x+z, x+2*z"]
_SCANNED = ["x, x+y, x+2*y, x+3*y", "x, x+3", "x, x+y, x^2+y"]


@pytest.mark.parametrize("p", [5, 31, 101])
@pytest.mark.parametrize("text", _CONTRACTED + _SCANNED)
def test_a_linear_map_that_dual_basis_takes_is_contracted_and_any_other_map_scanned(p, text):
    P = parse_polymap(text)
    fs = _random_fns(p, P.t, p)
    A = SetF.from_spec(PrimeField(p), f"random:{p}:0.5")
    want_n = counting._scan_blocks(P, p, [A.bool_table()] * P.t)
    want_lam = counting._scan_blocks(P, p, [f.values for f in fs]) / p**P.nvars
    scans = int(text in _SCANNED)
    with mock.patch.object(counting, "_scan_blocks", wraps=counting._scan_blocks) as scan:
        n = count_in_set(P, A)
        assert scan.call_count == scans
        lam = lambda_P(P, fs)
        assert scan.call_count == 2 * scans
    assert type(n) is int and n == want_n
    assert lam == pytest.approx(want_lam, abs=1e-12)


def test_a_model_whose_counts_pass_2_to_the_53_is_rejected_before_any_convolution(monkeypatch):
    # a nine-term constraint: the five-coordinate half has |A|^5 > 2^53 counts, so float64 cannot round them
    Psi = parse_polymap("a, b, c, d, e, f, g, h, a+b+c+d+e+f+g+h")
    A = SetF.from_spec(PrimeField(4001), "random:1:0.5")
    assert len(A) ** 5 >= 2**53 > len(A) ** 4
    monkeypatch.setattr(counting, "_convolution", _must_not_convolve)
    with pytest.raises(CostError, match="2\\^53"):
        count_in_set(Psi, A)


def _must_not_convolve(*args):
    raise AssertionError("a convolution ran before the size check")


@pytest.mark.parametrize("p", [2003, 4001, 8009])
def test_the_cube_model_is_the_additive_energy_exactly(p):
    A = SetF.from_spec(PrimeField(p), "random:9:0.5")
    rep = verify_asymptotic(parse_polymap("x, x+y, x+y^2, x+y+y^2"), A)
    assert rep.rhs_model == additive_energy(A)
    assert rep.residual == float(Fraction(rep.lhs_count, p**2) - Fraction(rep.rhs_model, p**3))


def test_the_five_term_progression_is_its_own_model():
    P = parse_polymap("x, x+y, x+2*y, x+3*y, x+4*y")
    rep = verify_asymptotic(P, SetF.from_spec(PrimeField(101), "random:1:0.5"))
    assert rep.rhs_model == rep.lhs_count == 331
    assert rep.residual == 0.0


@pytest.mark.parametrize("text", ["x", "x, y", "x+y, x-y", "x, y, z", "x, 2*y, x+y+z"])
def test_lambda_linear_of_a_full_image_is_the_product_of_means(text):
    # W = F_p^t, so W^perp = {0} and the average is prod_i fhat_i(0)
    Psi = parse_polymap(text)
    fs = _random_fns(7, Psi.t, 3)
    lam, want, scanned = _linear_and_scan(Psi, fs)
    assert not scanned
    assert lam == pytest.approx(math.prod(f.mean() for f in fs), abs=1e-12)
    assert lam == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("text", ["x, x+y, x+2*y", "x, x+y, x+2*y, x+3*y"])
def test_lambda_linear_rejects_mixed_primes(text):
    Psi = parse_polymap(text)
    fs = _random_fns(11, Psi.t - 1, 1) + _random_fns(13, 1, 2)
    with pytest.raises(ValidationError, match="different primes"):
        lambda_linear(Psi, fs)


def _hexes(values):
    return [(complex(v).real.hex(), complex(v).imag.hex()) for v in values]


@pytest.mark.parametrize("p", [13, 31])
def test_a_real_indicator_table_gives_the_results_of_its_complex_widening(p):
    F = PrimeField(p)
    A = SetF.from_spec(F, "random:6:0.4")
    real = A.indicator()
    assert real.values.dtype == np.float64 and not real.values.flags.writeable
    wide = FieldFn(F, real.values.astype(np.complex128))
    assert wide.values.dtype == np.complex128
    window, generic = parse_polymap("x, x+y, x+y^2"), parse_polymap("x^2+y, x*y, y^3+x")
    line, mixed = parse_polymap("x, x+y, x+z, x+y+z"), parse_polymap("x, x+y, x+2*y, x+3*y")

    def results(f):
        lams = [lambda_P(P, [f] * P.t) for P in (window, generic)]
        lams += [lambda_linear(Psi, [f] * Psi.t) for Psi in (line, mixed)]
        norms = [gowers_norm(f, s, method=m).value for s in (2, 3) for m in ("naive", "recursive")]
        return _hexes(lams + norms)

    assert results(real) == results(wide)
    for P in (window, generic):
        assert count_in_set(P, A) == lambda_P(P, [real] * P.t).real * p**2


def test_lambda_p_mixes_real_and_complex_tables():
    # a real table times a complex one: the scan widens the real table first
    p = 13
    F = PrimeField(p)
    ind = SetF.from_spec(F, "random:1:0.5").indicator()
    (g,) = _random_fns(p, 1, 11)
    fs = [ind, g, ind]
    for text, comps in (
        ("x, x+y, x+y^2", [lambda x, y: x, lambda x, y: x + y, lambda x, y: x + y * y]),
        ("x^2+y, x*y, y^3+x", [lambda x, y: x * x + y, lambda x, y: x * y, lambda x, y: y**3 + x]),
    ):
        want = brute_average([f.values for f in fs], comps, p, 2)
        assert lambda_P(parse_polymap(text), fs) == pytest.approx(want, abs=1e-12)
