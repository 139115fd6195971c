import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_dft
from uniformity.binpoly import parse_poly
from uniformity.errors import ValidationError
from uniformity import field
from uniformity.field import FieldFn, PrimeField, dft, fourier_transform, idft, is_prime, phase_fn


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


@pytest.mark.parametrize("p", [7, 31, 61])
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
    # n covers the power-of-two path and the Bluestein path
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
    first = fourier_transform(x)
    want = first.copy()
    first[:] = 7.0
    assert np.array_equal(fourier_transform(x), want)
    if n & (n - 1):
        w, _, fb = field._bluestein_kernel(n)
        assert not w.flags.writeable and not fb.flags.writeable
