import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_bias, brute_gowers
from uniformity.binpoly import parse_poly
from uniformity.errors import CostError, ValidationError
from uniformity.field import FieldFn, PrimeField, phase_fn
from uniformity import norms
from uniformity.norms import bias_norm, gowers_norm, u2_via_fourier


def _random_fn(p, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    return FieldFn.random_bounded(PrimeField(p), rng)


@pytest.mark.parametrize("s", [1, 2, 3])
def test_all_methods_match_brute_force(s):
    p = 7
    for seed in range(3):
        f = _random_fn(p, seed)
        want = brute_gowers(list(f.values), s, p)
        assert gowers_norm(f, s, method="naive").value == pytest.approx(want, abs=1e-10)
        assert gowers_norm(f, s, method="recursive").value == pytest.approx(want, abs=1e-10)
        if s == 2:
            assert u2_via_fourier(f).value == pytest.approx(want, abs=1e-10)


def test_constant_function_norm_is_one():
    f = FieldFn.constant(PrimeField(11), 1.0)
    for s in (1, 2, 3):
        assert gowers_norm(f, s).value == pytest.approx(1.0)


@pytest.mark.parametrize("p", [7, 11])
def test_gauss_sum(p):
    F = PrimeField(p)
    f = phase_fn(F, parse_poly("y^2", variables=("y",)))
    assert gowers_norm(f, 2).value == pytest.approx(p ** (-0.25), abs=1e-12)
    assert bias_norm(f, 2).value == pytest.approx(p ** (-0.5), abs=1e-12)
    assert gowers_norm(f, 3).value == pytest.approx(1.0, abs=1e-9)


def test_bias_norm_matches_brute_force():
    p = 7
    for seed in range(3):
        f = _random_fn(p, seed)
        for s in (2, 3):
            assert bias_norm(f, s).value == pytest.approx(
                brute_bias(list(f.values), s, p), abs=1e-10
            )
    f = _random_fn(5, 3)
    assert bias_norm(f, 4).value == pytest.approx(brute_bias(list(f.values), 4, 5), abs=1e-10)


def test_bias_argmax_reads_off_the_phase():
    F = PrimeField(31)
    f = phase_fn(F, parse_poly("3*y^2 + y", variables=("y",)))
    rep = bias_norm(f, 3)
    assert rep.value == pytest.approx(1.0, abs=1e-12)
    assert rep.coeffs == (3, 1)


def test_bias_degree_one_is_mean():
    f = _random_fn(11, 5)
    rep = bias_norm(f, 1)
    assert rep.value == pytest.approx(abs(f.values.mean()))
    assert rep.coeffs == ()


def test_validation_and_cost_errors():
    f = _random_fn(11, 0)
    with pytest.raises(ValidationError):
        gowers_norm(f, 0)
    with pytest.raises(ValidationError):
        gowers_norm(f, 3, method="fourier")
    with pytest.raises(ValidationError):
        gowers_norm(f, 2, method="nope")
    big = _random_fn(20011, 0)
    with pytest.raises(CostError):
        gowers_norm(big, 4, method="naive")
    with pytest.raises(CostError):
        bias_norm(big, 4)


def test_report_metadata():
    f = _random_fn(11, 1)
    rep = gowers_norm(f, 2)
    assert rep.method == "fourier" and rep.degree == 2 and rep.cost_ops > 0
    assert gowers_norm(f, 3).method == "recursive"


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_norm_properties_random(seed):
    p = 13
    f = _random_fn(p, seed)
    n1 = gowers_norm(f, 1).value
    n2 = gowers_norm(f, 2).value
    n3 = gowers_norm(f, 3).value
    assert -1e-9 <= n1 <= n2 + 1e-9 <= n3 + 2e-9
    assert n3 <= 1 + 1e-9
    assert bias_norm(f, 2).value <= n2 + 1e-9


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_norm_modulation_invariance(seed):
    # multiplying by a linear character leaves every uniformity norm unchanged
    p = 13
    F = PrimeField(p)
    f = _random_fn(p, seed)
    g = f * phase_fn(F, parse_poly("5*y", variables=("y",)))
    for s in (2, 3):
        assert gowers_norm(g, s).value == pytest.approx(gowers_norm(f, s).value, abs=1e-9)


def _chunk_reports(p, seed):
    f = _random_fn(p, seed)
    return (
        [gowers_norm(f, s).value for s in (3, 4)],
        [(r.value, r.coeffs) for r in (bias_norm(f, 3), bias_norm(f, 4))],
    )


def test_chunked_rows_are_bitwise_equal_to_one_block(monkeypatch):
    p = 13
    want = _chunk_reports(p, 4)
    # 4 rows per block: blocks of 4, 4, 4 and 1 rows in the s = 3 recursion, and
    # 169 bias coefficient rows end on a partial block of 1 as well
    monkeypatch.setattr(norms, "_CHUNK", 4 * p + 3)
    assert _chunk_reports(p, 4) == want
    monkeypatch.setattr(norms, "_CHUNK", 1)
    assert _chunk_reports(p, 4) == want


def test_bias_argmax_in_the_last_block(monkeypatch):
    p = 31
    F = PrimeField(p)
    monkeypatch.setattr(norms, "_CHUNK", 4 * p)  # 4 rows per block; the last holds a_2 = 28, 29, 30
    rep = bias_norm(phase_fn(F, parse_poly("29*y^2 + 5*y", variables=("y",))), 3)
    assert rep.value == pytest.approx(1.0, abs=1e-12)
    assert rep.coeffs == (29, 5)
    # a_2 = 27 is the last row of a full block
    assert bias_norm(phase_fn(F, parse_poly("27*y^2 + 3*y", variables=("y",))), 3).coeffs == (27, 3)
    rep = bias_norm(phase_fn(F, parse_poly("30*y^3 + 30*y^2 + 2*y", variables=("y",))), 4)
    assert rep.value == pytest.approx(1.0, abs=1e-12)
    assert rep.coeffs == (30, 30, 2)
    # a point mass correlates equally with every phase: ties go to the first tuple
    delta = FieldFn.indicator(F, [0])
    assert bias_norm(delta, 3).coeffs[:1] == (0,)
    assert bias_norm(delta, 4).coeffs[:2] == (0, 0)
