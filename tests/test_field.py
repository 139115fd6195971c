import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_convolution, brute_dft, brute_self_convolution
from uniformity import field
from uniformity.binpoly import parse_poly
from uniformity.errors import ValidationError
from uniformity.field import FieldFn, PrimeField, _convolution, _fast_length, dft, fourier_transform, idft, is_prime, phase_fn, self_convolution


def test_is_prime_small_table():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)
    assert is_prime(20011)
    assert not is_prime(20013)


def test_prime_field_rejects_nonprimes():
    for bad in (1, 2, 4, 9, 15):
        with pytest.raises(ValidationError):
            PrimeField(bad)


def test_char_table_roots_of_unity():
    F = PrimeField(7)
    for x in range(7):
        assert F.e_p(x) == pytest.approx(np.exp(2j * np.pi * x / 7))
    assert F.e_p(7) == pytest.approx(1.0)
    assert F.e_p(-1) == pytest.approx(F.e_p(6))


@pytest.mark.parametrize("p", [3, 7, 31, 61, 101, 211])
def test_fourier_transform_matches_brute_force(p):
    rng = np.random.Generator(np.random.Philox(p))
    x = rng.standard_normal(p) + 1j * rng.standard_normal(p)
    got = fourier_transform(x)
    want = brute_dft(list(x))
    assert np.max(np.abs(got - np.array(want))) < 1e-10


def test_fourier_transform_power_of_two_path():
    rng = np.random.Generator(np.random.Philox(3))
    x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    assert np.max(np.abs(fourier_transform(x) - np.array(brute_dft(list(x))))) < 1e-12


def test_dft_idft_roundtrip_and_parseval():
    F = PrimeField(31)
    rng = np.random.Generator(np.random.Philox(9))
    f = FieldFn.random_bounded(F, rng)
    fh = dft(f)
    back = idft(fh)
    assert np.max(np.abs(back.values - f.values)) < 1e-12
    # sum |fhat|^2 = mean |f|^2
    assert np.sum(np.abs(fh.values) ** 2) == pytest.approx(np.mean(np.abs(f.values) ** 2))


def test_indicator_and_constant():
    F = PrimeField(11)
    ind = FieldFn.indicator(F, [1, 3, 3, 16])
    assert ind.values[1] == 1 and ind.values[3] == 1 and ind.values[16 % 11] == 1
    assert np.sum(ind.values).real == 3
    assert FieldFn.constant(F, 2.5).mean() == pytest.approx(2.5)
    # real input is kept as float64, anything else as complex128
    assert FieldFn.constant(F, 2.5).values.dtype == np.float64 and FieldFn.constant(F, 2).values.dtype == np.float64
    assert FieldFn.constant(F, 1j).values.dtype == np.complex128


def test_a_bool_array_of_length_p_is_the_indicator_table():
    F = PrimeField(7)
    mask = np.array([True, False, True, False, False, True, False])
    assert FieldFn.indicator(F, mask).values.tolist() == [1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0]
    assert FieldFn.indicator(F, np.flatnonzero(mask)).values.tolist() == FieldFn.indicator(F, mask).values.tolist()
    narrow = FieldFn.indicator(PrimeField(211), np.array([1, 5, -3], dtype=np.int8))
    assert np.flatnonzero(narrow.values).tolist() == [1, 5, 208]
    for short in (np.array([True, False, True]), np.ones(8, dtype=bool), np.ones((7, 1), dtype=bool)):
        with pytest.raises(ValidationError, match="length p = 7"):
            FieldFn.indicator(F, short)


def test_random_bounded_is_one_bounded():
    F = PrimeField(101)
    rng = np.random.Generator(np.random.Philox(4))
    assert FieldFn.random_bounded(F, rng).is_one_bounded()
    assert FieldFn.random_phase(F, rng).is_one_bounded()


def test_mul_derivative():
    F = PrimeField(13)
    rng = np.random.Generator(np.random.Philox(8))
    f = FieldFn.random_bounded(F, rng)
    g = f.mul_derivative(5)
    for x in range(13):
        assert g.values[x] == pytest.approx(f.values[(x + 5) % 13] * np.conj(f.values[x]))


def test_phase_fn_values():
    F = PrimeField(11)
    Q = parse_poly("C(y, 2)", variables=("y",))
    f = phase_fn(F, Q)
    for x in range(11):
        assert f.values[x] == pytest.approx(F.e_p(x * (x - 1) // 2))


@settings(max_examples=25, deadline=None)
@given(st.integers(5, 64), st.integers(0, 2**32 - 1))
def test_fourier_transform_linearity_and_shift(n, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    fx, fy = fourier_transform(x), fourier_transform(y)
    assert np.max(np.abs(fourier_transform(x + y) - fx - fy)) < 1e-9
    # cyclic shift becomes a phase twist
    sh = fourier_transform(np.roll(x, -1))
    twist = np.exp(2j * np.pi * np.arange(n) / n)
    assert np.max(np.abs(sh - fx * twist)) < 1e-9


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([8, 16, 5, 7, 12, 31]),
    st.integers(1, 4),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
def test_fourier_transform_batches_equal_row_by_row(n, a, b, seed):
    # n covers powers of two, primes and other composite lengths
    rng = np.random.Generator(np.random.Philox(seed))
    x = rng.standard_normal((a, b, n)) + 1j * rng.standard_normal((a, b, n))
    flat = x.reshape(a * b, n)
    rows = np.stack([fourier_transform(r) for r in flat])
    assert np.array_equal(fourier_transform(flat), rows)
    assert np.array_equal(fourier_transform(x), rows.reshape(a, b, n))
    want = np.array([brute_dft(list(r)) for r in flat])
    assert np.max(np.abs(rows - want)) < 1e-10


def test_fourier_transform_rejects_empty_and_scalar_input():
    with pytest.raises(ValidationError):
        fourier_transform(np.zeros((3, 0), dtype=np.complex128))
    with pytest.raises(ValidationError):
        fourier_transform(np.array(1.0 + 0j))


@pytest.mark.parametrize("n", [16, 61])
def test_fourier_transform_output_is_not_shared(n):
    rng = np.random.Generator(np.random.Philox(n))
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x_before = x.copy()
    first = fourier_transform(x)
    assert first is not x and not np.shares_memory(first, x)
    assert np.array_equal(x, x_before)
    want = first.copy()
    first[:] = 7.0
    assert np.array_equal(fourier_transform(x), want)
    assert np.array_equal(x, x_before)


@pytest.mark.parametrize("n", [16, 61])
def test_fourier_transform_of_real_or_int_input_is_complex128(n):
    ints = np.arange(n, dtype=np.int64) % 5
    reals = ints.astype(np.float64)
    want = fourier_transform(reals.astype(np.complex128))
    for x in (ints, reals, list(ints)):
        got = fourier_transform(x)
        assert got.dtype == np.complex128 and got.shape == (n,)
        assert np.array_equal(got, want)
    assert np.array_equal(ints, np.arange(n) % 5) and ints.dtype == np.int64


def test_fast_length_matches_brute_force():
    def smooth(n):
        for q in (2, 3, 5):
            while n % q == 0:
                n //= q
        return n == 1

    n = 1
    for m in range(1, 2001):
        while not smooth(n) or n < m:
            n += 1
        assert _fast_length(m) == n, m


# 2p - 1 is 5-smooth for p = 3 and 13, and lies just above a 5-smooth number for p = 257.
# A single row longer than _CHUNK entries is convolved from its halves, so
# lowering _CHUNK sends the rows below that way (at p = 3 the odd half holds one
# entry) and cuts the twiddle into blocks of one entry, or of p - 1 entries.
_SPLITS = {"direct": lambda p: field._CHUNK, "halves, blocks of 1": lambda p: 1, "halves, blocks of p - 1": lambda p: p - 1}


@pytest.mark.parametrize("split", list(_SPLITS))
@pytest.mark.parametrize("p", [3, 5, 13, 257])
def test_self_convolution_matches_brute_force(p, split, monkeypatch):
    monkeypatch.setattr(field, "_CHUNK", _SPLITS[split](p))
    rng = np.random.Generator(np.random.Philox(p))
    x = rng.standard_normal((2, 3, p))
    want = np.array([brute_self_convolution(list(row), p) for row in x.reshape(-1, p)]).reshape(x.shape)
    got = self_convolution(x)
    assert got.shape == x.shape and got.dtype == np.float64
    assert np.max(np.abs(got - want)) < 1e-10 * p
    for row, want_row in zip(x.reshape(-1, p), want.reshape(-1, p)):
        assert np.max(np.abs(self_convolution(row) - want_row)) < 1e-10 * p
    bits = rng.random(p) < 0.5
    assert np.array_equal(np.rint(self_convolution(bits)), brute_self_convolution([int(b) for b in bits], p))


@pytest.mark.parametrize("split", list(_SPLITS))
@pytest.mark.parametrize("p", [3, 5, 13, 257])
def test_complex_convolution_of_two_rows_matches_brute_force(p, split, monkeypatch):
    monkeypatch.setattr(field, "_CHUNK", _SPLITS[split](p))
    rng = np.random.Generator(np.random.Philox(p))
    x, y = rng.standard_normal((2, p)) + 1j * rng.standard_normal((2, p))
    for a, b in ((x, y), (x, x), (x, y.real), (x.real, y)):
        got = _convolution(a, b)
        assert got.shape == (p,) and got.dtype == np.complex128
        assert np.max(np.abs(got - brute_convolution(list(a), list(b), p))) < 1e-10 * p


@pytest.mark.parametrize("complex_rows", [False, True])
def test_convolution_in_lent_buffers_is_a_view_of_them_with_the_bits_of_fresh_arrays(complex_rows):
    p, rows = 13, 5
    n = _fast_length(2 * p - 1)
    rng = np.random.Generator(np.random.Philox(8))
    x = rng.standard_normal((rows, p)) + (1j * rng.standard_normal((rows, p)) if complex_rows else 0)
    y = x[::-1].copy()
    spectrum = np.empty((rows, n if complex_rows else n // 2 + 1), dtype=np.complex128)
    out = np.empty((rows, n), dtype=x.dtype)
    for m in (rows, 2):  # a whole block, and a shorter last block
        a, b = x[:m], y[:m]
        for other in (a, b):
            got = _convolution(a, other, spectrum[:m], out[:m])
            want = _convolution(a, other)
            assert np.shares_memory(got, out[:m]) and not np.shares_memory(want, out)
            assert got.shape == want.shape == (m, p) and got.dtype == want.dtype == x.dtype
            assert got.tobytes() == want.tobytes()
        # rows in the first p columns of out, as in a real degree-3 block, are read before out is written
        inside = out[:m, :p]
        inside[...] = a
        assert _convolution(inside, inside, spectrum[:m], out[:m]).tobytes() == _convolution(a, a).tobytes()


def test_only_a_single_row_longer_than_the_block_takes_the_halves(monkeypatch):
    halves = []
    route = field._halves_convolution
    monkeypatch.setattr(field, "_halves_convolution", lambda x, *args: halves.append(x.shape) or route(x, *args))
    rng = np.random.Generator(np.random.Philox(5))
    for p in (32749, 32771):  # the primes on either side of _CHUNK = 2^15
        self_convolution(rng.random(p) < 0.5)
        self_convolution(rng.random((1, p)) < 0.5)
    assert halves == [(32771,)]


def test_the_halves_give_the_same_bits_on_any_number_of_workers_and_callers(monkeypatch):
    x = np.random.Generator(np.random.Philox(6)).standard_normal(40009)
    y = x[::-1] + 1j
    monkeypatch.setattr(field, "_pool", None)
    monkeypatch.setattr(field, "_workers", lambda: 1)
    want = (self_convolution(x), _convolution(x, y))
    monkeypatch.setattr(field, "_workers", lambda: 3)
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=lambda: results.append((self_convolution(x), _convolution(x, y)))) for _ in range(6)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in callers)
        assert field._pool is not None
    finally:
        sys.setswitchinterval(interval)
        if field._pool is not None:
            field._pool.shutdown(wait=False, cancel_futures=True)
    assert len(results) == 6
    assert all(np.array_equal(a, b) for got in results for a, b in zip(got, want))


@pytest.mark.parametrize("workers, n", [(1, 5), (3, 1), (3, 7)])
def test_pmap_lends_each_item_a_set_made_in_the_calling_thread(workers, n, monkeypatch):
    monkeypatch.setattr(field, "_pool", None)
    monkeypatch.setattr(field, "_workers", lambda: workers)
    made, in_use = [], set()
    lock = threading.Lock()

    def work():
        made.append(threading.get_ident())
        return [len(made)]

    def fn(i, w):
        with lock:
            assert id(w) not in in_use
            in_use.add(id(w))
        out = (i * i, w[0])
        with lock:
            in_use.discard(id(w))
        return out

    try:
        got = field._pmap(fn, range(n), work)
    finally:
        if field._pool is not None:
            field._pool.shutdown(wait=False, cancel_futures=True)
    # one set inline, else one per item that can run at once; none made on a worker
    assert made == [threading.get_ident()] * (1 if workers < 2 or n < 2 else min(n, workers))
    assert [v for v, _ in got] == [i * i for i in range(n)]
    assert {s for _, s in got} <= set(range(1, len(made) + 1))
    assert not in_use


def test_self_convolution_rejects_complex_empty_and_scalar_input():
    for bad in (np.zeros(5, dtype=np.complex128), np.zeros((3, 0)), np.array(1.0)):
        with pytest.raises(ValidationError):
            self_convolution(bad)
