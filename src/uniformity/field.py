"""Prime fields, function tables on Z/p, additive characters, and the DFT.

A function table (:class:`FieldFn`) is float64 when its values are real, such
as a set indicator, and complex128 otherwise.

The transform convention throughout the package, along the last axis:

    fhat(xi) = (1/p) * sum_x f(x) * exp(-2*pi*i*x*xi/p)

so that sum_xi |fhat(xi)|^2 equals the mean of |f|^2.  A complex
transform of any length is numpy's FFT behind :func:`fourier_transform`.
The self-convolution of real rows, which additive energy and the degree-2
norm of a real function need, is one real FFT pair of a 5-smooth length
behind :func:`self_convolution`.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .binpoly import IntPoly
from .errors import ValidationError

__all__ = ["is_prime", "PrimeField", "FieldFn", "dft", "idft", "phase_fn", "fourier_transform", "self_convolution"]

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond any usable modulus here."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    """The field Z/p for an odd prime p."""

    p: int

    def __post_init__(self):
        if not isinstance(self.p, int) or self.p < 3 or not is_prime(self.p):
            raise ValidationError(f"p = {self.p} is not an odd prime")

    @property
    def char_table(self) -> np.ndarray:
        return _char_table(self.p)

    def e_p(self, x) -> complex:
        """The additive character exp(2*pi*i*x/p)."""
        return complex(self.char_table[int(x) % self.p])


@lru_cache(maxsize=32)
def _char_table(p: int) -> np.ndarray:
    t = np.exp(2j * np.pi * np.arange(p) / p)
    t.setflags(write=False)
    return t


class FieldFn:
    """A function F_p -> C stored as a dense, read-only value table of its own.

    Real input (bool, integer or float, such as a set indicator) is kept as a
    float64 table and anything else as complex128.  A real table is the same
    function as its complex widening: transforms and products with complex
    tables widen it, and the degree-2 norm of a real table takes the real
    self-convolution route.
    """

    __slots__ = ("field", "values")

    def __init__(self, field: PrimeField, values):
        self.field = field
        v = np.asarray(values)
        v = np.array(v, dtype=np.float64 if np.isrealobj(v) else np.complex128)
        if v.shape != (field.p,):
            raise ValidationError(f"value table must have length p = {field.p}")
        v.setflags(write=False)
        self.values = v

    # -- constructors ------------------------------------------------
    @classmethod
    def constant(cls, field: PrimeField, c) -> "FieldFn":
        return cls(field, np.full(field.p, c, dtype=np.complex128))

    @classmethod
    def indicator(cls, field: PrimeField, members) -> "FieldFn":
        v = np.zeros(field.p)
        v[[int(x) % field.p for x in members]] = 1.0
        return cls(field, v)

    @classmethod
    def random_bounded(cls, field: PrimeField, rng: np.random.Generator) -> "FieldFn":
        """Random values uniform on the closed unit disc (so |f| <= 1)."""
        r = np.sqrt(rng.random(field.p))
        theta = rng.random(field.p) * 2 * np.pi
        return cls(field, r * np.exp(1j * theta))

    @classmethod
    def random_phase(cls, field: PrimeField, rng: np.random.Generator) -> "FieldFn":
        """Random unimodular values."""
        return cls(field, np.exp(2j * np.pi * rng.random(field.p)))

    # -- basic operations --------------------------------------------
    @property
    def p(self) -> int:
        return self.field.p

    def mean(self) -> complex:
        return complex(self.values.mean())

    def mul_derivative(self, h: int) -> "FieldFn":
        """x -> f(x + h) * conj(f(x))."""
        return FieldFn(self.field, np.roll(self.values, -int(h) % self.p) * np.conj(self.values))

    def __mul__(self, other: "FieldFn") -> "FieldFn":
        if self.field != other.field:
            raise ValidationError("field mismatch")
        return FieldFn(self.field, self.values * other.values)

    def is_one_bounded(self) -> bool:
        return bool(np.max(np.abs(self.values)) <= 1 + 1e-12)


def fourier_transform(values: np.ndarray) -> np.ndarray:
    """Unnormalized forward DFT along the last axis: X[..., k] = sum_n x[..., n] w^(nk), w = e^(-2 pi i / N).

    Takes any (..., N) array and transforms every row in one call; every
    length, prime or not, goes through numpy's FFT.  The result is a fresh
    complex128 array.
    """
    x = np.asarray(values, dtype=np.complex128)
    if x.ndim == 0 or x.shape[-1] == 0:
        raise ValidationError("transform needs an array with a non-empty last axis")
    return np.fft.fft(x)


def _fast_length(m: int) -> int:
    """The smallest n = 2^a * 3^b * 5^c with n >= m, a length numpy's FFT runs at full speed."""
    best = 1 << max(0, m - 1).bit_length()
    five = 1
    while five < best:
        odd = five
        while odd < best:
            n = odd
            while n < m:
                n *= 2
            best = min(best, n)
            odd *= 3
        five *= 5
    return best


def self_convolution(rows: np.ndarray) -> np.ndarray:
    """r[..., s] = sum over a + b = s (mod p) of f[..., a] * f[..., b], for every real row f of length p.

    One ``rfft``/``irfft`` pair of length n, the smallest 5-smooth n >= 2p - 1,
    gives the linear self-convolution c without wrap-around; it folds back mod
    p as r(s) = c(s) + c(s + p).  The result is a float64 array of the input's
    shape, a view into a fresh array that nothing else holds.
    """
    x = np.asarray(rows)
    if x.ndim == 0 or x.shape[-1] == 0:
        raise ValidationError("self-convolution needs an array with a non-empty last axis")
    if np.iscomplexobj(x):
        raise ValidationError("self-convolution takes real rows")
    p = x.shape[-1]
    n = _fast_length(2 * p - 1)
    h = np.fft.rfft(x.astype(np.float64, copy=False), n)
    np.multiply(h, h, out=h)
    c = np.fft.irfft(h, n)
    c[..., : p - 1] += c[..., p : 2 * p - 1]
    return c[..., :p]


def dft(f: FieldFn) -> FieldFn:
    """Normalized transform: fhat(xi) = E_x f(x) e_p(-x xi)."""
    return FieldFn(f.field, fourier_transform(f.values) / f.p)


def idft(fhat: FieldFn) -> FieldFn:
    """Inverse of :func:`dft`: f(x) = sum_xi fhat(xi) e_p(x xi)."""
    return FieldFn(fhat.field, np.conj(fourier_transform(np.conj(fhat.values))))


def phase_fn(field: PrimeField, Q: IntPoly) -> FieldFn:
    """The unimodular function x -> e_p(Q(x)) for integer-valued univariate Q."""
    table = Q.eval_mod_table(field.p)
    return FieldFn(field, field.char_table[table])
