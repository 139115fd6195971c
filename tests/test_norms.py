import concurrent.futures
import math
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
from uniformity import field, norms
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
    # a zero coefficient takes the all-ones row of its degree
    for poly, coeffs in (("3*y^2 + y", (0, 3, 1)), ("5*y^3 + y", (5, 0, 1)), ("5*y^3 + 3*y^2", (5, 3, 0))):
        rep = bias_norm(phase_fn(F, parse_poly(poly, variables=("y",))), 4)
        assert rep.value == pytest.approx(1.0, abs=1e-12)
        assert rep.coeffs == coeffs


def test_bias_degree_one_is_mean():
    f = _random_fn(11, 5)
    rep = bias_norm(f, 1)
    assert type(rep.value) is float
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
    # 4 rows per block, a_2 = 3^d in log order d = 0, 1, ..., 29 and then a_2 = 0:
    # the last block holds a_2 = 7, 21 and 0
    monkeypatch.setattr(norms, "_CHUNK", 4 * p)
    rep = bias_norm(phase_fn(F, parse_poly("29*y^2 + 5*y", variables=("y",))), 3)
    assert rep.value == pytest.approx(1.0, abs=1e-12)
    assert rep.coeffs == (29, 5)
    rep = bias_norm(phase_fn(F, parse_poly("21*y^2 + 4*y", variables=("y",))), 3)
    assert rep.value == pytest.approx(1.0, abs=1e-12)
    assert rep.coeffs == (21, 4)
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


def test_a_point_mass_ties_to_the_zero_tuple_at_exactly_one_over_p():
    # every magnitude of the point mass at 0 comes from f(0) alone, so all tie at 1/p
    p = 211
    delta = FieldFn.indicator(PrimeField(p), [0])
    for s in (3, 4):
        rep = bias_norm(delta, s)
        assert rep.coeffs == (0,) * (s - 1)
        assert rep.value == 1 / p


def test_a_bool_degree_is_rejected_before_any_work(monkeypatch):
    f = _random_fn(11, 3)
    monkeypatch.setattr(norms, "_log_coordinates", _no_call)
    monkeypatch.setattr(norms, "_pow_recursive", _no_call)
    for s in (True, False):
        with pytest.raises(ValidationError):
            gowers_norm(f, s)
        with pytest.raises(ValidationError):
            bias_norm(f, s)


def _is_padded(p):
    return norms._log_coordinates(p)[1] != p - 1


@pytest.mark.parametrize(
    "p, s, padded",
    [(59, 2, True), (59, 3, True), (83, 2, True), (83, 3, True), (61, 2, False), (61, 3, False), (13, 4, False), (23, 4, False)],
)
def test_bias_norm_matches_brute_force_on_both_transform_lengths(p, s, padded):
    assert _is_padded(p) == padded
    f = _random_fn(p, s)
    assert bias_norm(f, s).value == pytest.approx(brute_bias(list(f.values), s, p), abs=1e-12)


def test_a_long_padded_row_matches_a_plain_transform():
    p = 40009
    assert _is_padded(p)
    f = _random_fn(p, 1)
    mags = np.abs(np.fft.fft(f.values)) / p
    rep = bias_norm(f, 2)
    assert rep.value == pytest.approx(mags.max(), rel=0, abs=1e-12)
    assert mags[rep.coeffs[0]] == pytest.approx(mags.max(), rel=0, abs=1e-12)


def test_log_coordinates_run_through_every_unit():
    for p in range(3, 2000):
        if not field.is_prime(p):
            continue
        perm, length = norms._log_coordinates(p)
        g = int(perm[1])
        assert perm[0] == 1 and np.array_equal(perm[1:], perm[:-1] * g % p)
        # g^i for i < p - 1 takes every unit once, so g has order exactly p - 1
        assert np.array_equal(np.sort(perm), np.arange(1, p))
        assert length == p - 1 or length >= 2 * p - 3


def _no_call(*_, **__):
    raise AssertionError("the other base-case route ran")


@pytest.mark.parametrize("p", [7, 13])
def test_u2_of_a_set_indicator_takes_the_real_route(p, monkeypatch):
    F = PrimeField(p)
    sets = [SetF(F, []), SetF(F, range(p)), SetF.from_spec(F, "random:3:0.5"), SetF.from_spec(F, "residues:2")]
    monkeypatch.setattr(np.fft, "fft", _no_call)
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
    monkeypatch.setattr(norms, "_convolution", _no_call)
    assert [gowers_norm(f, s).value for s in (2, 3)] == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("p", [7, 13])
def test_real_recursive_norms_match_naive(p, monkeypatch):
    rng = np.random.Generator(np.random.Philox(p))
    F = PrimeField(p)
    fs = [FieldFn(F, rng.uniform(-1, 1, p)), SetF.from_spec(F, "random:2:0.4").indicator()]
    monkeypatch.setattr(np.fft, "fft", _no_call)
    for f in fs:
        for s in (3, 4):
            assert gowers_norm(f, s).value == pytest.approx(gowers_norm(f, s, method="naive").value, abs=1e-10)


@pytest.fixture
def workers(request, monkeypatch):
    """A fresh pool of request.param workers (1: every item inline), shut down after the test."""
    monkeypatch.setattr(field, "_workers", lambda: request.param)
    monkeypatch.setattr(field, "_pool", None)
    yield request.param
    if field._pool is not None:
        field._pool.shutdown(wait=False, cancel_futures=True)


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
        m.setattr(field, "_workers", lambda: 1)
        m.setattr(norms, "_CHUNK", 1 << 30)
        want = _pool_reports(p)
    # a point mass correlates equally with every phase: ties go to the first tuple
    assert [c[:2] for _, c in want[1][-2:]] == [(0, 0), (0, 0)]
    for chunk in (4 * p + 3, 1):
        monkeypatch.setattr(norms, "_CHUNK", chunk)
        assert _pool_reports(p) == want
    assert (field._pool is not None) == (workers > 1)


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
    monkeypatch.setattr(norms, "_u2_powers", lambda rows, p, *work: seen.append(len(rows)) or u2_powers(rows, p, *work))
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


def _u3_row_by_row(f):
    """The degree-3 norm from one derivative row at a time, each in fresh arrays, summed as the recursion sums."""
    p, values = f.p, f.values
    parts = []
    for h in range((p + 1) // 2):
        d = np.roll(values, -h) * np.conj(values)
        if np.iscomplexobj(d):
            fhat = np.fft.fft(d)
            q = fhat.real**2 + fhat.imag**2
            parts.append(np.sum(q * q) / p**4)
        else:
            r = field.self_convolution(d)
            parts.append(np.sum(r * r) / p**3)
    v0, *vs = parts
    return norms._finish_power(math.fsum([v0, *(2 * v for v in vs)]) / p, 3)


@pytest.mark.parametrize("workers", [1, 2], indirect=True)
def test_u3_blocks_in_reused_buffers_keep_the_bits_of_fresh_arrays(workers, monkeypatch):
    p = 31
    F = PrimeField(p)
    fs = [_random_fn(p, 11), SetF.from_spec(F, "random:11:0.5").indicator()]
    want = [_u3_row_by_row(f) for f in fs]
    # 5 rows per block: blocks of 5, 5, 5 and 1 of the 16 derivative rows
    monkeypatch.setattr(norms, "_CHUNK", 5 * p + 2)
    assert [gowers_norm(f, 3).value for f in fs] == want
    # a second call takes the same buffers' places with nothing left over
    assert [gowers_norm(f, 3).value for f in fs] == want


@pytest.mark.parametrize("workers", [1, 2, 3], indirect=True)
def test_runs_of_top_level_derivatives_are_bitwise_equal_to_one_thread(workers, monkeypatch):
    p = 31
    half = (p + 1) // 2
    F = PrimeField(p)
    fs = [_random_fn(p, 12), SetF.from_spec(F, "random:12:0.5").indicator()]
    with monkeypatch.context() as m:
        m.setattr(field, "_workers", lambda: 1)
        m.setattr(norms, "_CHUNK", 1 << 30)
        want = [gowers_norm(f, s).value for f in fs for s in (4, 5)]
    runs = []
    pmap = norms._pmap
    monkeypatch.setattr(norms, "_pmap", lambda fn, items, work=None: runs.append(list(items)) or pmap(fn, items, work))
    got = []
    for f in fs:
        for s in (4, 5):
            # each h runs half^(s-3) rows of p entries at s = 3: runs of 3 h, and a last run of 1
            monkeypatch.setattr(norms, "_CHUNK", 3 * half ** (s - 3) * p + 1)
            got.append(gowers_norm(f, s).value)
    assert got == want
    assert runs == [list(range(0, half, 3))] * 4


def test_u4_at_p101_hands_the_pool_a_few_runs(monkeypatch):
    # each top-level h of U^4 runs the 51 rows of 101 entries of the degree-3
    # level, so 25 h fill a 2^17-entry block; the degree-3 norm is one block
    calls = []
    pmap = norms._pmap
    monkeypatch.setattr(norms, "_pmap", lambda fn, items, work=None: calls.append(list(items)) or pmap(fn, items, work))
    f = _random_fn(101, 13)
    gowers_norm(f, 4)
    gowers_norm(f, 3)
    assert calls == [[0, 25, 50], [0]]


@pytest.mark.parametrize("workers", [1, 2], indirect=True)
def test_degree_3_work_buffers_are_made_once_per_worker_in_the_calling_thread(workers, monkeypatch):
    made = []
    u3_work = norms._u3_work
    monkeypatch.setattr(norms, "_u3_work", lambda p, dtype: made.append(threading.get_ident()) or u3_work(p, dtype))
    p = 31
    monkeypatch.setattr(norms, "_CHUNK", 5 * p + 2)  # 4 blocks at s = 3, 16 items of one h at s = 4
    f = _random_fn(p, 14)
    # a set's real rows also convolve in the buffers of their set
    for g in (f, SetF.from_spec(PrimeField(p), "random:14:0.5").indicator()):
        for s in (3, 4):
            made.clear()
            gowers_norm(g, s)
            assert made == [threading.get_ident()] * workers
    # the bias norm's factory is its own, handed to _pmap: 7 blocks of 5 coefficient rows
    pmap = norms._pmap
    monkeypatch.setattr(norms, "_pmap", lambda fn, items, work: pmap(fn, items, lambda: made.append(threading.get_ident()) or work()))
    made.clear()
    bias_norm(f, 3)
    assert made == [threading.get_ident()] * workers


@pytest.mark.parametrize("workers", [3], indirect=True)
def test_an_item_that_finds_no_free_buffers_makes_its_own(workers, monkeypatch):
    p = 31
    f = _random_fn(p, 15)
    # blocks of 6 rows: 3 items of the degree-3 level (6, 6 and 4 of its 16 rows), 6 of the bias norm's 31
    monkeypatch.setattr(norms, "_CHUNK", 6 * p)
    with monkeypatch.context() as m:
        m.setattr(field, "_workers", lambda: 1)
        want = [gowers_norm(f, 3).value, bias_norm(f, 3)]
    # three items meet here, each holding a borrowed set; the first meeting also
    # builds the pool with three threads
    meet = threading.Barrier(3, timeout=30)
    field._pmap(lambda _: meet.wait(), range(3))
    # the pool outlives the CPU count it was built for: _pmap makes two sets per call
    monkeypatch.setattr(field, "_workers", lambda: 2)
    made = []
    pmap = norms._pmap

    def spy(fn, items, work):
        def met(i, w):
            meet.wait()
            return fn(i, w)

        return pmap(met, items, lambda: made.append(threading.get_ident()) or work())

    monkeypatch.setattr(norms, "_pmap", spy)
    assert gowers_norm(f, 3).value == want[0]
    assert made.count(threading.get_ident()) == 2 and len(made) == 3
    made.clear()
    assert bias_norm(f, 3) == want[1]
    assert made.count(threading.get_ident()) == 2 and len(made) == 3


def test_a_norm_power_below_roundoff_is_an_integrity_error():
    with pytest.raises(ArithmeticError, match="beyond roundoff"):
        norms._finish_power(-1e-6, 2)
    assert norms._finish_power(-1e-12, 2) == 0.0
