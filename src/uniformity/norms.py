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
``field`` owns and shares with its long convolutions): at s = 3 each
block of derivative rows is one item, at s >= 4 each of the (p+1)/2 derivative
rows is one item whose inner recursion runs serially, and in the bias norm each
block of coefficient rows is one item.  A worker never waits on the pool, so a
pool of any size cannot deadlock.  numpy's FFT releases the interpreter lock,
so the items overlap on one worker per usable CPU; with one usable CPU, or a
single item, they run inline.  Each row's transform does not depend on the
batch it is in, and the parts are summed with ``math.fsum`` in their original
order, so a value is the same on any number of threads.  Blocks hold 2^15
entries: glibc keeps the memory a thread frees in that thread's own arena, so
every worker holds on to its largest blocks.  On two workers, 2^18-entry
blocks raised the peak memory of the benchmark's ``spectral`` workload from
133 to 143 MiB and saved 2-5% of its time.

The bias norm of degree s maximizes |E_x f(x) e_p(-(a_(s-1) x^(s-1) + ... + a_1 x))|
over all coefficient tuples; note the minus sign, so the maximizer for
f = e_p(3x^2 + x) is reported as (3, 1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from itertools import product as _cartesian

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import CostError, ValidationError
from .field import _CHUNK, FieldFn, _pmap, _smap, fourier_transform, self_convolution

__all__ = ["NormReport", "BiasReport", "gowers_norm", "bias_norm", "u2_via_fourier"]

_NAIVE_OP_BUDGET = 4e9
_BIAS_OP_BUDGET = 1e9


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


def _block_rows(p: int) -> int:
    """Rows of length p per batched transform: at most _CHUNK entries, at least one row."""
    return max(1, _CHUNK // p)


def _u2_powers(rows: np.ndarray, p: int) -> np.ndarray:
    """sum_xi |fhat(xi)|^4 for every row: p^-3 sum_s r(s)^2 for real rows, one batched transform for complex ones."""
    if not np.iscomplexobj(rows):
        r = self_convolution(rows)
        return np.sum(r * r, axis=-1) / p**3
    h = fourier_transform(rows)
    q = h.real**2 + h.imag**2
    return np.sum(q * q, axis=-1) / p**4


def _real_if_possible(values: np.ndarray) -> np.ndarray:
    """The table, or the real part of a complex table with no imaginary part; a real table routes the base case to the real self-convolution."""
    if not np.iscomplexobj(values) or values.imag.any():
        return values
    return np.ascontiguousarray(values.real)


def _pow_recursive(values: np.ndarray, s: int, p: int, run=_smap) -> float:
    """The 2^s-th power of the degree-s norm; ``run`` maps the top level's items (inner levels run serially)."""
    if s == 1:
        m = values.mean()
        return (m * np.conj(m)).real
    if s == 2:
        return float(_u2_powers(values, p))
    # row h of the window view is x -> f(x + h), so row h of a block is the
    # derivative x -> f(x + h) conj f(x); at s = 3 a block is one base-case batch.
    # Delta_(-h) f = conj Delta_h f(. - h), and a norm of degree >= 2 does not
    # change under translation or conjugation, so only rows h < half are built
    # and rows 1 .. half - 1 count twice.
    half = (p + 1) // 2
    shifted = sliding_window_view(np.concatenate([values, values[:half - 1]]), p)
    cv = np.conj(values)
    if s == 3:
        rows = _block_rows(p)
        parts = run(lambda h0: _u2_powers(shifted[h0:h0 + rows] * cv, p).tolist(), range(0, half, rows))
    else:
        parts = run(lambda h: [_pow_recursive(shifted[h] * cv, s - 1, p)], range(half))
    v0, *vs = chain.from_iterable(parts)
    return math.fsum([v0, *(2 * v for v in vs)]) / p


def gowers_norm(f: FieldFn, s: int, method: str = "auto") -> NormReport:
    """The degree-s uniformity norm of f."""
    if not isinstance(s, int) or s < 1:
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


def bias_norm(f: FieldFn, s: int) -> BiasReport:
    """Max correlation with degree-(s-1) polynomial phases.

    Ties are decided on the computed magnitudes: the scan runs over
    (a_(s-1), ..., a_1) in ascending lexicographic order and keeps the first
    tuple reaching the largest computed magnitude.  Magnitudes that are equal
    in exact arithmetic can differ in their last bits after the transform's
    rounding, so an exact tie may go to a later tuple: the point mass at 0
    ties at 1/p with every phase, yet at p = 211 and s = 3 it reports (0, 181).
    """
    if not isinstance(s, int) or s < 1:
        raise ValidationError("degree s must be a positive integer")
    p = f.p
    if s == 1:
        return BiasReport(abs(f.values.mean()), 1, ())
    if p ** (s - 1) > _BIAS_OP_BUDGET:
        raise CostError(f"bias norm of degree {s} at p={p} enumerates p^{s - 1} phases")
    char = f.field.char_table
    x = np.arange(p, dtype=np.int64)
    # x^k < p^(s-1) <= _BIAS_OP_BUDGET, so the powers are exact in int64
    pows = [x**k % p for k in range(s - 1, 1, -1)]
    # row k holds the upper coefficients (a_(s-1), ..., a_2): the base-p digits
    # of k, most significant first, so rows run in lexicographic order
    uppers = p ** (s - 2)
    rows = _block_rows(p)

    def block_max(lo: int):
        k = np.arange(lo, min(lo + rows, uppers), dtype=np.int64)
        phase = np.zeros((len(k), p), dtype=np.int64)
        for j, pw in enumerate(pows):
            phase += (k // p ** (s - 3 - j) % p)[:, None] * pw
        g = f.values * char[(-phase) % p]
        gh = np.abs(fourier_transform(g)) / p
        a1 = np.argmax(gh, axis=1)
        vals = gh[np.arange(len(k)), a1]
        # the first row reaching the block maximum is the one a strict > scan keeps
        i = int(np.argmax(vals))
        return vals[i], lo + i, int(a1[i])

    best, best_k, best_a1 = -1.0, 0, 0
    for val, k, a1 in _pmap(block_max, range(0, uppers, rows)):
        if val > best:
            best, best_k, best_a1 = float(val), k, a1
    coeffs = tuple(best_k // p**e % p for e in range(s - 3, -1, -1))
    return BiasReport(best, s, coeffs + (best_a1,))
