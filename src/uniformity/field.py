"""Prime fields, function tables on Z/p, additive characters, and the DFT.

The transform convention throughout the package, along the last axis:

    fhat(xi) = (1/p) * sum_x f(x) * exp(-2*pi*i*x*xi/p)

so that sum_xi |fhat(xi)|^2 equals the mean of |f|^2.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .binpoly import IntPoly
from .errors import ValidationError

__all__ = ["is_prime", "PrimeField", "FieldFn", "dft", "idft", "phase_fn", "fourier_transform"]

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

    def reduce(self, x: int) -> int:
        return int(x) % self.p


@lru_cache(maxsize=32)
def _char_table(p: int) -> np.ndarray:
    t = np.exp(2j * np.pi * np.arange(p) / p)
    t.setflags(write=False)
    return t


class FieldFn:
    """A function F_p -> C stored as a dense value table."""

    __slots__ = ("field", "values")

    def __init__(self, field: PrimeField, values):
        self.field = field
        v = np.asarray(values, dtype=np.complex128)
        if v.shape != (field.p,):
            raise ValidationError(f"value table must have length p = {field.p}")
        v = v.copy()
        v.setflags(write=False)
        self.values = v

    # -- constructors ------------------------------------------------
    @classmethod
    def constant(cls, field: PrimeField, c) -> "FieldFn":
        return cls(field, np.full(field.p, c, dtype=np.complex128))

    @classmethod
    def indicator(cls, field: PrimeField, members) -> "FieldFn":
        v = np.zeros(field.p, dtype=np.complex128)
        for x in members:
            v[int(x) % field.p] = 1.0
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

    def conj(self) -> "FieldFn":
        return FieldFn(self.field, np.conj(self.values))

    def mul_derivative(self, h: int) -> "FieldFn":
        """x -> f(x + h) * conj(f(x))."""
        return FieldFn(self.field, np.roll(self.values, -int(h) % self.p) * np.conj(self.values))

    def __mul__(self, other: "FieldFn") -> "FieldFn":
        if self.field != other.field:
            raise ValidationError("field mismatch")
        return FieldFn(self.field, self.values * other.values)

    def is_one_bounded(self, tol: float = 1e-12) -> bool:
        return bool(np.max(np.abs(self.values)) <= 1 + tol)


def fourier_transform(values: np.ndarray) -> np.ndarray:
    """Unnormalized forward DFT along the last axis: X[..., k] = sum_n x[..., n] w^(nk), w = e^(-2 pi i / N).

    Takes any (..., N) array and transforms every row in one call.
    Power-of-two lengths go straight to the radix-2 FFT; everything else is
    reduced to one via the chirp (Bluestein) factorization nk = (n^2 + k^2 - (k-n)^2)/2.
    """
    x = np.asarray(values, dtype=np.complex128)
    if x.ndim == 0 or x.shape[-1] == 0:
        raise ValidationError("transform needs an array with a non-empty last axis")
    n = x.shape[-1]
    if n & (n - 1) == 0:
        return np.fft.fft(x)
    w, m, fb = _bluestein_kernel(n)
    buf = np.zeros(x.shape[:-1] + (m,), dtype=np.complex128)
    np.multiply(x, w, out=buf[..., :n])
    np.fft.fft(buf, out=buf)
    buf *= fb
    np.fft.ifft(buf, out=buf)
    return buf[..., :n] * w


@lru_cache(maxsize=16)
def _bluestein_kernel(n: int) -> tuple[np.ndarray, int, np.ndarray]:
    """The chirp w, the padded length m and fft(b) of the conjugate chirp kernel b, read-only.

    Chirp exponents are reduced mod 2N in exact integers before hitting libm so
    phase accuracy does not degrade with N.
    """
    k = np.arange(n, dtype=np.int64)
    sq = (k * k) % (2 * n)
    w = np.exp(-1j * np.pi * sq / n)
    m = 1 << (2 * n - 1).bit_length()
    b = np.zeros(m, dtype=np.complex128)
    wc = np.conj(w)
    b[:n] = wc
    b[-(n - 1):] = wc[1:n][::-1]
    fb = np.fft.fft(b)
    w.setflags(write=False)
    fb.setflags(write=False)
    return w, m, fb


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
