"""Prime fields, function tables on Z/p, additive characters, and the DFT.

A function table (:class:`FieldFn`) is float64 when its values are real, such
as a set indicator, and complex128 otherwise.

The transform convention throughout the package, along the last axis:

    fhat(xi) = (1/p) * sum_x f(x) * exp(-2*pi*i*x*xi/p)

so that sum_xi |fhat(xi)|^2 equals the mean of |f|^2.  Every transform of
the package, public or private, goes through one entry, ``_fft``, the only
call into numpy's FFT: ``fft``, ``ifft``, ``rfft`` or ``irfft`` along the
last axis, into a buffer of the caller's when it lends one.  The public
transform behind :func:`dft` and :func:`idft` is :func:`fourier_transform`,
the entry's forward complex transform at any length.
The self-convolution of real rows, which additive energy, the exact linear
models of a set and the degree-2 norm of a real function need, is one real
FFT pair of a 5-smooth length behind :func:`self_convolution`; the linear
forms contraction also convolves two different rows, real or complex, there.
Batches of rows, and rows of at most _CHUNK = 2^15 entries, take that pair
whole, in fresh arrays or in the spectrum and result buffers that a caller
lends (the degree-3 blocks of the norms do, real rows and complex rows
alike).  A single longer row (the energy or the degree-2 norm of a set at large
p) is split into its even and odd halves, whose transforms run on the
package's one thread pool (``_pmap``, also used by the norms); each transform
is the same call on any thread and the caller combines them in a fixed order,
so the result does not depend on the number of workers.
"""
from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .binpoly import IntPoly
from .errors import ValidationError

__all__ = ["is_prime", "PrimeField", "FieldFn", "dft", "idft", "phase_fn", "fourier_transform", "self_convolution"]

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# A single row longer than this is convolved from its halves on the pool, and
# the twiddle of a split is applied in blocks of this many entries.  (The norms
# size their pool items by their own ``norms._CHUNK``.)
_CHUNK = 1 << 15

# The executor _pmap shares between evaluations, built on its first use.
_pool = None
_pool_lock = threading.Lock()


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
        return cls(field, np.full(field.p, c))

    @classmethod
    def indicator(cls, field: PrimeField, members) -> "FieldFn":
        """1 on the members and 0 elsewhere.

        A bool array or a list or tuple of bools, of length p, is the
        membership table; other members are elements, read as integers mod p.
        """
        return cls(field, _membership_table(field.p, members))

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


def _membership_table(p: int, members) -> np.ndarray:
    """The fresh length-p bool table of a subset of F_p.

    A bool array, or a nonempty list or tuple of bools, is the table itself
    and must have length p; any other members are elements, read as integers
    mod p (an int64 array without a Python int per element: p does not fit
    narrower integer types).
    """
    if isinstance(members, (list, tuple)) and members and all(isinstance(x, (bool, np.bool_)) for x in members):
        members = np.array(members, dtype=bool)
    if isinstance(members, np.ndarray) and members.dtype == bool:
        if members.shape != (p,):
            raise ValidationError(f"a bool membership table must have length p = {p}")
        return members.copy()
    table = np.zeros(p, dtype=bool)
    if isinstance(members, np.ndarray) and members.dtype == np.int64:
        table[members % p] = True
    else:
        table[np.array([int(x) % p for x in members], dtype=np.int64)] = True
    return table


def _workers() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pmap(fn, items, work=None) -> list:
    """[fn(i) for i in items], in order; on the shared thread pool when there are several items and CPUs.

    With ``work``, a factory of work buffers, each item runs as fn(i, w) on a
    set w that it borrows and hands back when it returns.  The calling thread
    makes one set per item that can run at once (one when the items run
    inline, else one per worker), so no item allocates its buffers and no
    worker's glibc arena keeps their pages; an item that finds no set free
    (the pool was built for more workers than there are now) makes its own.

    fn must not call _pmap itself: a worker waiting on the pool could wait on
    its own queue.  So a long row is never split on a worker: every
    convolution that a norms pool item makes is of a 2-D block of derivative
    rows, and a block is convolved whole.
    """
    global _pool
    items = list(items)
    workers = _workers()
    inline = len(items) < 2 or workers < 2
    if work is not None:
        free = [work() for _ in range(1 if inline else min(len(items), workers))]
        borrower = fn

        def fn(i):
            try:
                w = free.pop()
            except IndexError:
                w = work()
            out = borrower(i, w)
            free.append(w)
            return out

    if inline:
        return [fn(i) for i in items]
    with _pool_lock:
        if _pool is None:
            # imported here: it costs a few ms, which a CLI run that never
            # reaches the pool should not pay
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(workers, thread_name_prefix="uniformity")
        pool = _pool
    return list(pool.map(fn, items))


def fourier_transform(values: np.ndarray) -> np.ndarray:
    """Unnormalized forward DFT along the last axis: X[..., k] = sum_n x[..., n] w^(nk), w = e^(-2 pi i / N).

    Takes any (..., N) array and transforms every row in one call; every
    length, prime or not, goes through numpy's FFT.  The result is a fresh
    complex128 array.
    """
    x = np.asarray(values, dtype=np.complex128)
    if x.ndim == 0 or x.shape[-1] == 0:
        raise ValidationError("transform needs an array with a non-empty last axis")
    return _fft(x)


def _fft(x: np.ndarray, n=None, *, inverse=False, real=False, out=None, norm=None) -> np.ndarray:
    """numpy's ``fft``, ``ifft``, ``rfft`` or ``irfft`` of length n along the last axis, into ``out`` when given.

    The package's one call into numpy's FFT: every transform of the package,
    public or private, passes through here.  The input is taken as float64
    for ``rfft`` and as complex128 otherwise, so every transform runs in
    double precision.
    """
    x = np.asarray(x, dtype=np.float64 if real and not inverse else np.complex128)
    fn = (np.fft.irfft if real else np.fft.ifft) if inverse else (np.fft.rfft if real else np.fft.fft)
    return fn(x, n, out=out, norm=norm)


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
    p as r(s) = c(s) + c(s + p).  A single row longer than _CHUNK entries takes
    a pair per half of the row instead (see :func:`_halves_convolution`).  The
    result is a float64 array of the input's shape, a fresh array or a view
    into one, that nothing else holds.
    """
    x = np.asarray(rows)
    if x.ndim == 0 or x.shape[-1] == 0:
        raise ValidationError("self-convolution needs an array with a non-empty last axis")
    if np.iscomplexobj(x):
        raise ValidationError("self-convolution takes real rows")
    return _convolution(x, x)


def _convolution(x: np.ndarray, y: np.ndarray, spectrum=None, out=None) -> np.ndarray:
    """r(s) = sum over a + b = s (mod p) of x[..., a] * y[..., b], for rows of length p.

    The route of :func:`self_convolution`, which it serves with y = x and one
    forward transform; rows y other than x take one more.  Complex rows take
    ``fft``/``ifft`` in place of ``rfft``/``irfft``.  With n the smallest
    5-smooth length >= 2p - 1, a caller that convolves block after block can
    lend ``spectrum``, a complex128 array of x's rows by n // 2 + 1 entries
    (n for complex rows), and ``out``, one of x's rows by n entries of the
    result's dtype: the transforms run in them, and the result is a view of
    ``out``.  The rows x and y may be views of ``out``, as the forward
    transforms read them before the inverse one writes there.  A single row
    longer than _CHUNK entries is convolved from its halves
    (:func:`_halves_convolution`) in arrays of its own.
    """
    p = x.shape[-1]
    real = not (np.iscomplexobj(x) or np.iscomplexobj(y))
    if x.ndim == 1 and p > _CHUNK:
        return _halves_convolution(x, y, real)
    n = _fast_length(2 * p - 1)
    h = _fft(x, n, real=real, out=spectrum)
    np.multiply(h, h if y is x else _fft(y, n, real=real), out=h)
    c = _fft(h, n, inverse=True, real=real, out=out)
    c[..., : p - 1] += c[..., p : 2 * p - 1]
    return c[..., :p]


def _halves_convolution(x: np.ndarray, y: np.ndarray, real: bool) -> np.ndarray:
    """The convolution mod p of one row, from its even and odd halves on the pool.

    One decimation-in-time step (Cooley and Tukey 1965) at the convolution
    level.  With x_e = x[0::2] and x_o = x[1::2], the linear convolution c of
    x and y has c[2m] = (x_e * y_e)[m] + (x_o * y_o)[m - 1] and c[2m + 1] =
    (x_e * y_o + x_o * y_e)[m].  Each half is transformed at h, the smallest
    5-smooth length >= p, so no product wraps around, and the shift by one is
    the twiddle e^(-2 pi i k / h) on the spectrum.  The forward transforms,
    then the two inverse ones, run on the pool; the caller combines the
    spectra and folds c back mod p in a fixed order, so the result does not
    depend on the number of workers.  Spectra are multiplied in place and
    dropped once used, and the output is allocated after the inverse
    transforms return.  Real rows (``real``: neither x nor y is complex) take
    ``rfft``/``irfft``, as in :func:`_convolution`.
    """
    p = x.shape[-1]
    h = _fast_length(p)
    halves = [x[0::2], x[1::2]] if y is x else [x[0::2], x[1::2], y[0::2], y[1::2]]
    spectra = _pmap(lambda v: _fft(v, h, real=real), halves)
    del halves
    xe, xo = spectra[:2]
    if y is x:
        odd = xe * xo
        odd += odd
        xe *= xe
        xo *= xo
    else:
        ye, yo = spectra[2:]
        odd = xe * yo
        yo *= xo  # X_o Y_o
        xo *= ye  # X_o Y_e
        odd += xo
        xe *= ye
        xo = yo
        del ye, yo
    del spectra
    _shift_by_one(xo, h)  # xo was X_o Y_o
    xe += xo
    del xo
    # c[2m] and c[2m + 1], from the halves of c
    parts = _pmap(lambda s: _fft(s, h, inverse=True, real=real), [xe, odd])
    del xe, odd
    r = np.empty(p, dtype=parts[0].dtype)
    for j in (0, 1):
        # r(s) = c(s) + c(s + p) for s < p - 1, and r(p - 1) = c(p - 1); c[a::2] is parts[a % 2][a // 2:]
        r[j::2] = parts[j][: (p - j + 1) // 2]
        a = p + j
        r[j : p - 1 : 2] += parts[a % 2][a // 2 : a // 2 + (p - j) // 2]
    return r


def _shift_by_one(spectrum: np.ndarray, h: int) -> None:
    """Multiply entry k of a length-h transform by e^(-2 pi i k / h) in place, which shifts its sequence by one.

    Blocks of _CHUNK entries each take the first block's twiddles times one
    phase, so only one block's exponentials are taken.  That is for speed:
    at p = 1,000,003 (h = 1,012,500; 2 cores, numpy 2.4.6) it took 1.8-3.1 ms
    against 14-20 ms for one full-length twiddle, whose buffer did not raise
    the peak memory of a U^2 norm or an energy.
    """
    step = -2j * np.pi / h
    first = np.exp(np.arange(min(_CHUNK, len(spectrum))) * step)
    for lo in range(0, len(spectrum), _CHUNK):
        block = spectrum[lo : lo + _CHUNK]
        block *= first[: len(block)]
        block *= np.exp(lo * step)


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
