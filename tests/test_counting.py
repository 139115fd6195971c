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
    convolve = counting.self_convolution

    def skewed(x):
        out = convolve(x)
        calls.append(1)
        out[3] += 1
        return out

    monkeypatch.setattr(counting, "self_convolution", skewed)
    with pytest.raises(ArithmeticError, match="add up"):
        additive_energy(A)
    assert len(calls) == 1


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


def test_lambda_linear_cube_identity():
    p = 31
    Psi = parse_polymap("x, x+y, x+z, x+y+z")
    fs = _random_fns(p, 4, 6)
    direct = lambda_P(Psi, fs)
    assert lambda_linear(Psi, fs) == pytest.approx(direct, abs=1e-10)


def test_lambda_linear_two_progressions_identity():
    p = 31
    Psi = parse_polymap("x, x+y, x+2*y, x+z, x+2*z")
    fs = _random_fns(p, 5, 7)
    direct = lambda_P(Psi, fs)
    assert lambda_linear(Psi, fs) == pytest.approx(direct, abs=1e-10)


def test_lambda_linear_recognizes_reparametrization():
    # cube lattice in disguised coordinates: y -> y+z, z -> z
    p = 31
    Psi = parse_polymap("x, x+y+z, x+z, x+y+2*z")
    fs = _random_fns(p, 4, 8)
    direct = lambda_P(Psi, fs)
    assert lambda_linear(Psi, fs) == pytest.approx(direct, abs=1e-10)


def test_lambda_linear_transforms_each_distinct_function_once(monkeypatch):
    p = 31
    Psi = parse_polymap("x, x+y, x+z, x+y+z")
    f, g = _random_fns(p, 2, 9)
    transform = counting.fourier_transform
    shapes = []

    def recorded(x):
        shapes.append(np.shape(x))
        return transform(x)

    monkeypatch.setattr(counting, "fourier_transform", recorded)
    for fs, rows in (([f] * 4, 1), ([f, g, f, g], 2)):
        shapes.clear()
        lam = lambda_linear(Psi, fs)
        assert shapes == [(rows, p)]
        assert lam == pytest.approx(lambda_P(Psi, fs), abs=1e-10)


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

    monkeypatch.setattr(counting, "count_in_set", must_not_count)
    with pytest.raises(CostError):  # four parameters in the linear model, which no route contracts
        verify_asymptotic(P, A)


def test_verify_asymptotic_rejects_bad_factorization():
    F = PrimeField(101)
    A = SetF.from_spec(F, "random:3:0.5")
    P = parse_polymap("x, x+y, x+y^2, x+y+y^2")
    Psi = parse_polymap("x, x+y, x+z, x+2*y+z")  # wrong lattice
    with pytest.raises(ValidationError):
        verify_asymptotic(P, A, Psi=Psi)


def test_grid_budget_enforced():
    fs = _random_fns(11, 4, 9)
    P = parse_polymap("x, x+y, x+z, x+w")
    with pytest.raises(ValidationError):
        lambda_P(P, fs)  # 4 parameters unsupported by the scan


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
# cross-route checks: window kernel, generic kernel and brute-force oracles


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
    _check_generic(P, fs, want, A, n)
    _check_generic(Q, fs, want, A, n)


def _check_generic(P, fs, want, A, n):
    """The generic kernel, called directly, against the oracle values.

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
    # x, x+3 windows on x over a zero-variable rest grid; the others take the generic kernel
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
    """lambda_linear and lambda_P of Psi, and whether lambda_linear reached the scan."""
    with mock.patch.object(counting, "lambda_P", wraps=counting.lambda_P) as scan:
        lam = lambda_linear(Psi, fs)
    return lam, lambda_P(Psi, fs), scan.called


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
