"""Uniformity norms of degree s and polynomial-phase bias norms.

Three evaluation routes for the degree-s norm:

* ``naive``     -- direct average of the 2^s-fold product over all
                   (x, h_1, ..., h_s), cost p^(s+1) * 2^s.
* ``recursive`` -- peels one differencing parameter at a time via
                   ||f||^(2^s) = E_h ||f(.+h) conj f||^(2^(s-1)) with the
                   degree-2 base case done through the Fourier identity
                   ||f||^4 = sum_xi |fhat(xi)|^4.  One differencing loop
                   serves every level: it builds the (p+1)/2 derivatives
                   h = 0 .. (p-1)/2 from a window view of the extended
                   table, in blocks of at most _CHUNK entries, and counts
                   each h >= 1 twice, as Delta_(-h) f = conj Delta_h f(. - h)
                   has the same norm; the last level handles each block at
                   once.
* ``fourier``   -- the recursive route at s = 2 (its degree-2 base case
                   alone), reported as ``fourier``, with the same cost
                   estimate and budget check; other degrees are rejected.

The base case has two routes, picked once per norm from the values: a real
f, such as a set indicator (a float64 table; a complex table with no
imaginary part is reduced to its real part), has real derivatives, and its
rows take ||f||^4 = p^-3 sum_s r(s)^2 with r the self-convolution mod p
(``field.self_convolution``, one real FFT pair of a 5-smooth length, or
a pair per half of the row when a single row has more than 2^15 entries); a
complex f takes sum_xi |fhat(xi)|^4 from one batched transform of length p.

Only the top level of an evaluation runs on threads (``_pmap``, the pool that
``field`` owns and shares with its long convolutions), and its items are sized
by work, about _CHUNK = 2^17 entries of f each: at s = 3 an item is a block of
derivative rows; at s >= 4 it is a run of consecutive h whose inner
recursions, run serially, add up to one block of degree-3 rows (U^4 at
p = 101 runs 25 of its 51 h per item, so 3 items); in the bias norm it is a
block of coefficient rows.  A worker never waits on the pool, so a pool of any
size cannot deadlock.  numpy's FFT releases the interpreter lock, so the items
overlap on one worker per usable CPU; with one usable CPU, or a call whose work
is one item, they run inline.  Each row's transform does not depend on the
batch it is in, and the parts are summed with ``math.fsum`` in their original
order, so a value is the same on any number of threads.

The block size is set by the interpreter lock: on two workers every numpy
call that releases it hands the interpreter to the other thread, so an item's
fixed cost grows with the number of items only when two threads contend.  On
two cores, the bias norm at p = 3001, s = 3 took 0.48-0.53 s with 2^13-entry
blocks on two workers, 0.18-0.19 s with 2^15, 0.14-0.18 s with 2^16,
0.13-0.16 s with 2^17 and 0.14-0.16 s with 2^18, against 0.20-0.23 s for every
size from 2^15 up on one worker.  The blocks of the degree-3 level and of the
bias norm fill, transform and reduce their rows in work buffers: the calling
thread allocates one set per item that can run at once and each block takes a
set and hands it back, so no block allocates an array of its size and no
worker's glibc arena (the memory a thread frees stays in its own) keeps a
block's pages.  U^3 of a complex f at p = 2003 took 25,416 page faults and
0.049 s of system time per call with fresh arrays per block, and 1,493 faults
and 0.004 s with the buffers.  With worker-allocated blocks, 2^18 entries had
raised the peak memory of the benchmark's ``spectral`` workload from 133 to
143 MiB; with the buffers it read 132.7-132.9 MiB at both 2^17 and 2^18.

The bias norm of degree s maximizes |E_x f(x) e_p(-(a_(s-1) x^(s-1) + ... + a_1 x))|
over all coefficient tuples; note the minus sign, so the maximizer for
f = e_p(3x^2 + x) is reported as (3, 1).  It runs in discrete-log
coordinates (Rader 1968): with g the smallest primitive root mod p, N = p - 1,
x = g^i and w(m) = e_p(-g^m), a coefficient a_j = g^k contributes the factor
w(k + j i mod N), so the row of each upper tuple (a_(s-1), ..., a_2) is
f(g^i) times one row of a fixed strided view of w per degree.  Its transform
over a_1 is F(0) = f(0) + sum_i u(i) and F(g^-j) = f(0) + sum_i u(i) w(i - j),
one cyclic convolution of length N with a kernel whose spectrum is built once
per call: each row takes one forward and one inverse FFT of length L, and f(0)
enters through the DC term.  L is N when N times the sum of N's prime factors
(with multiplicity) is at most L' times the same sum for L', the smallest
5-smooth length >= 2N - 1; otherwise L is L' and the rows are zero-padded.
The upper tuples run in log order (a_j = g^(d_j), then a_j = 0), so a block's
rows take consecutive rows of the degree-2 view and the higher views change
once per p or more rows: each run of rows is one product with a slice of the
views, written into the block's work buffer, and no row is gathered (for 43
rows at p = 3001, indexing the strided view with an array and multiplying took
0.39 ms, the products alone 0.16 ms).  A block holds _CHUNK entries of f,
and up to twice that once padded, and its magnitudes go to a float work
buffer.  Each block reports, of its rows reaching its maximum, the one first
in lexicographic order, so the reported tuple does not depend on the walk.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import chain
from itertools import product as _cartesian

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .errors import CostError, ValidationError
from .field import FieldFn, _fast_length, _in_flight, _pmap, _smap, self_convolution

__all__ = ["NormReport", "BiasReport", "gowers_norm", "bias_norm", "u2_via_fourier"]

_NAIVE_OP_BUDGET = 4e9
_BIAS_OP_BUDGET = 1e9
# Entries of f per pool item: rows of a degree-3 block, the degree-3 rows of a
# run of top-level derivatives at s >= 4, or bias coefficient rows.
_CHUNK = 1 << 17


@dataclass(frozen=True)
class NormReport:
    value: float
    degree: int
    method: str
    cost_ops: int


@dataclass(frozen=True)
class BiasReport:
    value: float
    degree: int
    coeffs: tuple[int, ...]  # (a_(s-1), ..., a_1), descending degree


def _finish_power(power: float, s: int) -> float:
    # The 2^s-th power is an average of products of conjugate pairs, hence
    # real and nonnegative up to roundoff.
    if power < -1e-9:
        raise ArithmeticError(f"norm power came out at {power}, beyond roundoff")
    return max(power, 0.0) ** (1.0 / (1 << s))


def _pow_naive(values: np.ndarray, s: int, p: int) -> float:
    # grid over (x, h_1..h_(s-1)) as an open mesh; the last differencing
    # parameter is looped.  Each factor gathers on its own axes only and the
    # products broadcast to the full grid.
    x, *hs = np.ix_(*[np.arange(p)] * s)
    prod = None
    for w in _cartesian([0, 1], repeat=s - 1):
        g = values[(x + sum(h for wk, h in zip(w, hs) if wk)) % p]
        g = np.conj(g) if sum(w) & 1 else g
        prod = g if prod is None else prod * g
    prod = np.broadcast_to(prod, (p,) * s)
    # factors with w_last = 1 are exactly conj(prod) translated by h_last in x;
    # rows h_last .. h_last + p - 1 of the doubled grid are that translate
    grid = prod.reshape(p, -1)  # axis 0 is x
    doubled = np.concatenate([grid, grid[:-1]])
    reals = [np.vdot(doubled[h_last:h_last + p], grid).real for h_last in range(p)]
    return math.fsum(reals) / p ** (s + 1)


# numpy >= 2 can write a transform over its input (``out=``).  Transformed in
# place, in work buffers that later blocks reuse, a block of bias or degree-3
# rows allocates no array of its size, so glibc does not hand pages back and fault
# them in again block after block: at p = 4007, s = 3, on two workers, a call
# took about 290,000 page faults and 0.79-0.91 s with a fresh array per
# transform, and 4 faults and 0.44-0.49 s in place.
_FFT_IN_PLACE = int(np.__version__.split(".")[0]) >= 2


def _transform(h: np.ndarray, fft, **kw) -> np.ndarray:
    """fft(h, **kw) along the last axis, written over h where numpy can."""
    return fft(h, out=h, **kw) if _FFT_IN_PLACE else fft(h, **kw)


def _block_rows(p: int) -> int:
    """Rows of length p per pool item: at most _CHUNK entries, at least one row."""
    return max(1, _CHUNK // p)


def _u2_powers(rows: np.ndarray, p: int, squares: np.ndarray) -> np.ndarray:
    """sum_xi |fhat(xi)|^4 for every row: p^-3 sum_s r(s)^2 for real rows, one batched transform for complex ones.

    Complex rows are transformed over themselves where numpy can, so their
    values are lost; ``squares``, a float64 buffer of the rows' shape, takes
    r^2, or |fhat|^2 and then its square.
    """
    if not np.iscomplexobj(rows):
        r = self_convolution(rows)
        np.multiply(r, r, out=squares)
        return np.sum(squares, axis=-1) / p**3
    h = _transform(rows, np.fft.fft)
    np.square(h.real, out=squares)
    np.square(h.imag, out=h.imag)
    squares += h.imag
    squares *= squares
    return np.sum(squares, axis=-1) / p**4


def _u3_work(p: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Work buffers for one block of the degree-3 level: derivative rows of the table's dtype, and their squares."""
    rows = min((p + 1) // 2, _block_rows(p))
    return np.empty((rows, p), dtype=dtype), np.empty((rows, p))


def _real_if_possible(values: np.ndarray) -> np.ndarray:
    """The table, or the real part of a complex table with no imaginary part; a real table routes the base case to the real self-convolution."""
    if not np.iscomplexobj(values) or values.imag.any():
        return values
    return np.ascontiguousarray(values.real)


def _pow_recursive(values: np.ndarray, s: int, p: int, run=_smap, spare=None) -> float:
    """The 2^s-th power of the degree-s norm; ``run`` maps the top level's items (inner levels run serially).

    ``spare`` holds the degree-3 level's work buffers (:func:`_u3_work`); the
    top level fills it with one set per item that can run at once, in the
    calling thread, and hands it down.
    """
    if s == 1:
        m = values.mean()
        return (m * np.conj(m)).real
    if s == 2:
        # a complex row is transformed over itself, so it takes a copy of the read-only table
        rows = values.copy() if np.iscomplexobj(values) else values
        return float(_u2_powers(rows, p, np.empty(p)))
    # row h of the window view is x -> f(x + h), so row h of a block is the
    # derivative x -> f(x + h) conj f(x); at s = 3 a block is one base-case batch.
    # Delta_(-h) f = conj Delta_h f(. - h), and a norm of degree >= 2 does not
    # change under translation or conjugation, so only rows h < half are built
    # and rows 1 .. half - 1 count twice.
    half = (p + 1) // 2
    shifted = sliding_window_view(np.concatenate([values, values[:half - 1]]), p)
    cv = np.conj(values)
    if s == 3:
        rows = min(half, _block_rows(p))

        def item(h0: int) -> list:
            try:
                d, q = spare.pop()
            except IndexError:
                d, q = _u3_work(p, values.dtype)
            m = min(rows, half - h0)
            out = _u2_powers(np.multiply(shifted[h0:h0 + m], cv, out=d[:m]), p, q[:m]).tolist()
            spare.append((d, q))
            return out
    else:
        # each h runs half^(s-3) rows of the degree-3 level: an item is a run of
        # consecutive h whose rows add up to one block
        rows = max(1, _block_rows(p) // half ** (s - 3))

        def item(h0: int) -> list:
            return [_pow_recursive(shifted[h] * cv, s - 1, p, _smap, spare) for h in range(h0, min(h0 + rows, half))]

    starts = range(0, half, rows)
    if spare is None:
        spare = deque(_u3_work(p, values.dtype) for _ in range(_in_flight(len(starts))))
    v0, *vs = chain.from_iterable(run(item, starts))
    return math.fsum([v0, *(2 * v for v in vs)]) / p


def gowers_norm(f: FieldFn, s: int, method: str = "auto") -> NormReport:
    """The degree-s uniformity norm of f."""
    if isinstance(s, bool) or not isinstance(s, int) or s < 1:
        raise ValidationError("degree s must be a positive integer")
    p = f.p
    if method == "auto":
        method = "fourier" if s == 2 else "recursive"
    if method == "fourier" and s != 2:
        raise ValidationError("the fourier route only computes the degree-2 norm")
    if method == "naive":
        cost = p ** (s + 1) * (1 << s)
        if cost > _NAIVE_OP_BUDGET:
            raise CostError(f"naive degree-{s} norm at p={p} needs ~{cost:.1e} ops")
        power = _pow_naive(f.values, s, p)
        return NormReport(_finish_power(power, s), s, "naive", cost)
    if method in ("recursive", "fourier"):
        # cost_ops stays the p-row upper bound although each level builds
        # (p+1)/2 rows: perfbench/golden_exact.json pins it (71407 for U^3 at
        # p = 101), and the cost model is ROADMAP item 3
        cost = p ** (s - 2) * p * max(1, p.bit_length()) if s >= 2 else p
        if cost > _NAIVE_OP_BUDGET:
            raise CostError(f"{method} degree-{s} norm at p={p} needs ~{cost:.1e} ops")
        power = _pow_recursive(_real_if_possible(f.values), s, p, _pmap)
        return NormReport(_finish_power(power, s), s, method, cost)
    raise ValidationError(f"unknown method {method!r}")


def u2_via_fourier(f: FieldFn) -> NormReport:
    return gowers_norm(f, 2, method="fourier")


def _prime_factors(n: int) -> list[int]:
    """The prime factors of n >= 1 with multiplicity, ascending, by trial division."""
    out, q = [], 2
    while q * q <= n:
        while n % q == 0:
            out.append(q)
            n //= q
        q += 1 if q == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _log_coordinates(p: int) -> tuple[np.ndarray, int]:
    """perm[i] = g^i mod p for i < N = p - 1, g the smallest primitive root mod p, and L, the length of the Rader correlation.

    L is N when N times the sum of N's prime factors (with multiplicity), a
    proxy for the cost of one FFT, is at most that of L' = the smallest
    5-smooth length >= 2N - 1; otherwise it is L', zero-padded.
    """
    n = p - 1
    factors = _prime_factors(n)
    g = next(a for a in range(2, p) if all(pow(a, n // q, p) != 1 for q in set(factors)))
    # g^(b t + j) = (g^b)^t g^j: two short power lists, multiplied in int64
    # (a product of two residues is below p^2 <= _BIAS_OP_BUDGET^2 < 2^63)
    b = math.isqrt(n - 1) + 1
    small = [1]
    for _ in range(b - 1):
        small.append(small[-1] * g % p)
    gb, big = small[-1] * g % p, [1]
    for _ in range((n - 1) // b):
        big.append(big[-1] * gb % p)
    perm = (np.array(big, dtype=np.int64)[:, None] * np.array(small, dtype=np.int64) % p).ravel()[:n]
    padded = _fast_length(2 * n - 1)
    length = n if n * sum(factors) <= padded * sum(_prime_factors(padded)) else padded
    return perm, length


def _rader_kernel(w: np.ndarray, length: int, p: int) -> np.ndarray:
    """The spectrum of t -> w(-t mod N), wrapped around the zero-padded length, scaled by 1 / (length p).

    Rader's identity F(g^-j) = f(0) + sum_i u(i) w(i - j) makes the transform
    of a row u (in log coordinates) one cyclic convolution of length N with
    this kernel; when length >= 2N - 1 the linear convolution of the padded
    row does not wrap onto the N entries read.  The scale leaves the inverse
    transform unscaled and the result divided by p.
    """
    n = len(w)
    kernel = np.zeros(length, dtype=np.complex128)
    kernel[0] = w[0]
    kernel[1:n] = w[:0:-1]
    kernel[length - n + 1:] = w[:0:-1]
    kernel = np.fft.fft(kernel)
    kernel *= 1 / (length * p)
    return kernel


def bias_norm(f: FieldFn, s: int) -> BiasReport:
    """Max correlation with degree-(s-1) polynomial phases.

    Ties are decided on the computed magnitudes: of the tuples
    (a_(s-1), ..., a_1) reaching the largest computed magnitude, the first in
    ascending lexicographic order is reported.  Magnitudes that are equal
    in exact arithmetic can differ in their last bits after the transforms'
    rounding, so an exact tie may go to a later tuple.  The point mass at 0
    takes every magnitude from f(0) alone, so it reports (0, ..., 0) at 1/p.
    """
    if isinstance(s, bool) or not isinstance(s, int) or s < 1:
        raise ValidationError("degree s must be a positive integer")
    p = f.p
    if s == 1:
        return BiasReport(float(abs(f.values.mean())), 1, ())
    if p ** (s - 1) > _BIAS_OP_BUDGET:
        raise CostError(f"bias norm of degree {s} at p={p} enumerates p^{s - 1} phases")
    n = p - 1
    perm, length = _log_coordinates(p)
    # w(m) = e_p(-g^m); with x = g^i and a_j = g^k, e_p(-a_j x^j) = w(k + j i mod N)
    w = f.field.char_table[p - perm]
    # the scan runs over the upper coefficients (a_(s-1), ..., a_2) in log
    # order: the base-p digits d_j of row K (j = 2 least significant) stand for
    # a_j = g^(d_j) below N and for a_j = 0 at N, so consecutive rows take
    # consecutive rows of views[2], and views[j] changes once every p^(j-2) rows
    uppers = p ** (s - 2)
    rows = min(uppers, _block_rows(p))
    blocks = range(0, uppers, rows)
    coeff = np.append(perm, 0)  # a_j of digit d_j
    # a lone block takes the kernel out, so it is freed before the inverse transform
    kernel = [_rader_kernel(w, length, p)]
    # row d < N of views[j] is i -> w(d + j i mod N), a window of w tiled j + 1
    # times; its last row is all ones, the factor of a zero coefficient
    views = {
        j: as_strided(
            np.concatenate([np.tile(w, j + 1), np.ones(j * (n - 1) + 1, dtype=w.dtype)]),
            ((j + 1) * n + 1, n),
            (w.itemsize, j * w.itemsize),
            writeable=False,
        )
        for j in range(2, s)
    }
    del w
    f0 = complex(f.values[0])
    fl = f.values[perm]  # f(g^i)

    def fill(u: np.ndarray, lo: int) -> None:
        """Rows lo, lo + 1, ... of f(g^i) times one row of each view, in runs of equal upper digits."""
        K, end = lo, lo + len(u)
        while K < end:
            d = K % p
            m = min(end - K, n - d if d < n else 1)
            run = u[K - lo : K - lo + m]
            np.multiply(fl, views[2][d : d + m] if d < n else views[2][-1:], out=run)
            for j in range(3, s):
                dj = K // p ** (j - 2) % p
                run *= views[j][dj if dj < n else -1]
            K += m

    def work():
        return np.empty((rows, length), dtype=np.complex128), np.empty((rows, n))

    # work buffers, made here for the blocks that can run at once; each block
    # takes a set and hands it back for a later block
    spare = deque(work() for _ in range(_in_flight(len(blocks))))

    def block_max(lo: int):
        try:
            buf, mag_buf = spare.pop()
        except IndexError:
            buf, mag_buf = work()
        # each row is f in log coordinates times one row of each view, zero-padded to length
        h = buf[: min(rows, uppers - lo)]
        h[:, n:] = 0
        u = h[:, :n]
        if views:
            fill(u, lo)
        else:
            u[...] = fl
        h = _transform(h, np.fft.fft)
        zero = np.abs(h[:, 0] + f0) / p  # a_1 = 0
        h *= kernel[0] if len(blocks) > 1 else kernel.pop()
        h[:, 0] += f0 / p
        h = _transform(h, np.fft.ifft, norm="forward")
        mags = np.abs(h[:, :n], out=mag_buf[: len(h)])  # a_1 = g^-j
        best = np.maximum(zero, mags.max(axis=1))
        val = best.max()
        # of the rows reaching the block maximum, the one with the least index
        # k in lexicographic order of (a_(s-1), ..., a_2), and in it the least
        # a_1 reaching it
        at = lo + np.flatnonzero(best == val)
        ks = sum((coeff[at // p ** (j - 2) % p] * p ** (j - 2) for j in views), np.zeros(len(at), dtype=np.int64))
        first = np.argmin(ks)
        i = int(at[first]) - lo
        a1 = 0 if zero[i] == val else int(perm[-np.flatnonzero(mags[i] == val) % n].min())
        spare.append((buf, mag_buf))
        return val, int(ks[first]), a1

    # the first tuple in lexicographic order that reaches the largest magnitude
    best, best_k, best_a1 = -1.0, 0, 0
    for val, k, a1 in _pmap(block_max, blocks):
        if val > best or (val == best and k < best_k):
            best, best_k, best_a1 = float(val), k, a1
    coeffs = tuple(best_k // p**e % p for e in range(s - 3, -1, -1))
    return BiasReport(best, s, coeffs + (best_a1,))
