import concurrent.futures
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_bias, brute_energy, brute_gowers
from uniformity.binpoly import parse_poly
from uniformity.counting import SetF, additive_energy
from uniformity.errors import CostError, ValidationError
from uniformity.field import FieldFn, PrimeField, phase_fn
from uniformity import norms
from uniformity.norms import bias_norm, gowers_norm, u2_via_fourier


def _random_fn(p, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    return FieldFn.random_bounded(PrimeField(p), rng)


@pytest.mark.parametrize("s", [1, 2, 3, 4])
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
    rep = bias_norm(phase_fn(F, parse_poly("5*y^3 + 3*y^2 + y", variables=("y",))), 4)
    assert rep.value == pytest.approx(1.0, abs=1e-12)
    assert rep.coeffs == (5, 3, 1)


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


def test_the_fourier_route_meets_the_recursive_budget(monkeypatch):
    f = _random_fn(101, 2)
    cost = 101 * (101).bit_length()
    assert gowers_norm(f, 2, method="fourier").cost_ops == cost
    monkeypatch.setattr(norms, "_NAIVE_OP_BUDGET", cost - 1)
    with pytest.raises(CostError):
        gowers_norm(f, 2, method="fourier")
    with pytest.raises(CostError):
        gowers_norm(f, 2)  # auto takes the fourier route at s = 2


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


@pytest.mark.parametrize(
    "seed, value, coeffs",
    [(1, "0x1.4325ba5ca90edp-3", (168, 136)), (2, "0x1.4d4d09d8e8da5p-3", (209, 170))],
)
def test_bias_norm_pinned_at_p211(seed, value, coeffs):
    # Values from the earlier chirp-based transform: a change of FFT may move the
    # value in its last bits, never the maximiser.
    rep = bias_norm(_random_fn(211, seed), 3)
    assert rep.coeffs == coeffs
    assert rep.value == pytest.approx(float.fromhex(value), rel=1e-13, abs=0)


def _no_call(*_):
    raise AssertionError("the other base-case route ran")


@pytest.mark.parametrize("p", [7, 13])
def test_u2_of_a_set_indicator_takes_the_real_route(p, monkeypatch):
    F = PrimeField(p)
    sets = [SetF(F, []), SetF(F, range(p)), SetF.from_spec(F, "random:3:0.5"), SetF.from_spec(F, "residues:2")]
    monkeypatch.setattr(norms, "fourier_transform", _no_call)
    for A in sets:
        f = A.indicator()
        want = brute_gowers(list(f.values), 2, p)
        assert gowers_norm(f, 2).value == pytest.approx(want, abs=1e-12)
        # ||1_A||_U2^4 = E(A) / p^3
        assert additive_energy(A) == brute_energy(A.members, p)
        assert gowers_norm(f, 2).value == pytest.approx((additive_energy(A) / p**3) ** 0.25, abs=1e-12)


def test_complex_functions_take_the_prime_length_transform(monkeypatch):
    f = _random_fn(7, 5)
    want = [brute_gowers(list(f.values), s, 7) for s in (2, 3)]
    monkeypatch.setattr(norms, "self_convolution", _no_call)
    assert [gowers_norm(f, s).value for s in (2, 3)] == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("p", [7, 13])
def test_real_recursive_norms_match_naive(p, monkeypatch):
    rng = np.random.Generator(np.random.Philox(p))
    F = PrimeField(p)
    fs = [FieldFn(F, rng.uniform(-1, 1, p)), SetF.from_spec(F, "random:2:0.4").indicator()]
    monkeypatch.setattr(norms, "fourier_transform", _no_call)
    for f in fs:
        for s in (3, 4):
            assert gowers_norm(f, s).value == pytest.approx(gowers_norm(f, s, method="naive").value, abs=1e-10)


@pytest.fixture
def workers(request, monkeypatch):
    """A fresh pool of request.param workers (1: every item inline), shut down after the test."""
    monkeypatch.setattr(norms, "_workers", lambda: request.param)
    monkeypatch.setattr(norms, "_pool", None)
    yield request.param
    if norms._pool is not None:
        norms._pool.shutdown(wait=False, cancel_futures=True)


def _pool_reports(p):
    F = PrimeField(p)
    fs = [_random_fn(p, 4), SetF.from_spec(F, "random:4:0.5").indicator()]
    delta = FieldFn.indicator(F, [0])
    return (
        [gowers_norm(f, s).value for f in fs for s in (3, 4, 5)],
        [(r.value, r.coeffs) for f in (*fs, delta) for r in (bias_norm(f, 3), bias_norm(f, 4))],
    )


@pytest.mark.parametrize("workers", [1, 2, 4], indirect=True)
def test_the_pool_is_bitwise_equal_to_one_block_on_one_thread(workers, monkeypatch):
    p = 13
    with monkeypatch.context() as m:
        m.setattr(norms, "_workers", lambda: 1)
        m.setattr(norms, "_CHUNK", 1 << 30)
        want = _pool_reports(p)
    # a point mass correlates equally with every phase: ties go to the first tuple
    assert [c[:2] for _, c in want[1][-2:]] == [(0, 0), (0, 0)]
    for chunk in (4 * p + 3, 1):
        monkeypatch.setattr(norms, "_CHUNK", chunk)
        assert _pool_reports(p) == want
    assert (norms._pool is not None) == (workers > 1)


@pytest.mark.parametrize("workers", [2], indirect=True)
def test_a_degree_5_norm_on_two_workers_finishes(workers, monkeypatch):
    # the inner levels of the recursion must not wait on the pool the top level runs on
    f = _random_fn(11, 6)
    want = gowers_norm(f, 5, method="naive").value
    monkeypatch.setattr(norms, "_CHUNK", 1)
    out = []
    t = threading.Thread(target=lambda: out.append(gowers_norm(f, 5).value), daemon=True)
    t.start()
    t.join(timeout=60)
    assert not t.is_alive()
    assert out == [pytest.approx(want, abs=1e-10)]


@pytest.mark.parametrize("workers", [3], indirect=True)
def test_concurrent_callers_share_one_pool(workers, monkeypatch):
    built = []

    class Counted(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counted)
    monkeypatch.setattr(norms, "_CHUNK", 1)
    f = _random_fn(17, 8)
    want = gowers_norm(f, 3, method="naive").value
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=lambda: results.append(gowers_norm(f, 3).value)) for _ in range(6)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert built == [(3,)]
    assert len(results) == 6 and len(set(results)) == 1
    assert results[0] == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("p", [3, 13])
@pytest.mark.parametrize("last_block_of_one", [False, True])
def test_each_level_builds_half_the_derivative_rows(p, last_block_of_one, monkeypatch):
    # Delta_(-h) f = conj Delta_h f(. - h) has the same norm, so a level builds
    # rows h = 0 .. (p-1)/2 only: at p = 3 that is h = 0, 1
    half = (p + 1) // 2
    if last_block_of_one:
        # blocks of half - 1 rows, so the last block holds one row
        monkeypatch.setattr(norms, "_CHUNK", (half - 1) * p)
    per_block = norms._block_rows(p)
    blocks = [min(per_block, half - h0) for h0 in range(0, half, per_block)]
    assert blocks[-1] == (1 if last_block_of_one else half)
    f = _random_fn(p, 9)
    want = [gowers_norm(f, s, method="naive").value for s in (3, 4)]
    seen = []
    u2_powers = norms._u2_powers
    monkeypatch.setattr(norms, "_u2_powers", lambda rows, p: seen.append(len(rows)) or u2_powers(rows, p))
    # at s = 4 each of the half top-level rows runs the s = 3 level on its own
    for s, calls in ((3, blocks), (4, blocks * half)):
        seen.clear()
        assert gowers_norm(f, s).value == pytest.approx(want[s - 3], abs=1e-12)
        assert sorted(seen) == sorted(calls)
        assert sum(seen) == half ** (s - 2)


@pytest.mark.parametrize("s", [2, 3])
def test_opposite_derivatives_have_equal_norms(s):
    p = 13
    f = _random_fn(p, 10)
    for h in range(p):
        a = gowers_norm(f.mul_derivative(h), s).value
        assert gowers_norm(f.mul_derivative(p - h), s).value == pytest.approx(a, abs=1e-12)


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("s", [3, 4, 5])
def test_halved_recursion_matches_brute_force_at_small_primes(p, s):
    F = PrimeField(p)
    rng = np.random.Generator(np.random.Philox(p + s))
    fs = [_random_fn(p, s), FieldFn(F, rng.uniform(-1, 1, p)), FieldFn.indicator(F, [0, 1])]
    for f in fs:
        want = brute_gowers(list(f.values), s, p)
        assert gowers_norm(f, s).value == pytest.approx(want, abs=1e-12)
