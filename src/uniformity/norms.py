"""Uniformity norms of degree s and polynomial-phase bias norms.

Three evaluation routes for the degree-s norm:

* ``naive``     -- direct average of the 2^s-fold product over all
                   (x, h_1, ..., h_s), cost p^(s+1) * 2^s.
* ``recursive`` -- peels one differencing parameter at a time via
                   ||f||^(2^s) = E_h ||f(.+h) conj f||^(2^(s-1)) with the
                   degree-2 base case done through the Fourier identity
                   ||f||^4 = sum_xi |fhat(xi)|^4.  One differencing loop
                   serves every level: it builds the p derivatives from a
                   window view of the doubled table, in blocks of at most
                   _CHUNK entries; the last level handles each block at
                   once.
* ``fourier``   -- the recursion's degree-2 base case alone (s = 2 only).

The base case has two routes, picked once per norm from the values: a real
f, such as a set indicator, has real derivatives, and its rows take
||f||^4 = p^-3 sum_s r(s)^2 with r the self-convolution mod p
(``field.self_convolution``, one real FFT pair of a 5-smooth length); a
complex f takes sum_xi |fhat(xi)|^4 from one batched transform of length p.

The bias norm of degree s maximizes |E_x f(x) e_p(-(a_(s-1) x^(s-1) + ... + a_1 x))|
over all coefficient tuples; note the minus sign, so the maximizer for
f = e_p(3x^2 + x) is reported as (3, 1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from itertools import product as _cartesian

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import CostError, ValidationError
from .field import FieldFn, fourier_transform, self_convolution

__all__ = ["NormReport", "BiasReport", "gowers_norm", "bias_norm", "u2_via_fourier"]

_NAIVE_OP_BUDGET = 4e9
_BIAS_OP_BUDGET = 1e9
# Entries per block of rows handed to one batch of the degree-2 base case.
_CHUNK = 1 << 18


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
    """The real part of a table with no imaginary part, which routes the base case to the real self-convolution."""
    return values if values.imag.any() else np.ascontiguousarray(values.real)


def _pow_recursive(values: np.ndarray, s: int, p: int) -> float:
    if s == 1:
        m = values.mean()
        return (m * np.conj(m)).real
    if s == 2:
        return float(_u2_powers(values, p))
    # row h of the window view is x -> f(x + h), so row h of a block is the
    # derivative x -> f(x + h) conj f(x); at s = 3 a block is one base-case batch
    shifted = sliding_window_view(np.concatenate([values, values[:-1]]), p)
    cv = np.conj(values)
    rows = _block_rows(p)
    parts = []
    for h0 in range(0, p, rows):
        block = shifted[h0:h0 + rows] * cv
        if s == 3:
            parts.extend(_u2_powers(block, p).tolist())
        else:
            parts.extend(_pow_recursive(row, s - 1, p) for row in block)
    return math.fsum(parts) / p


def gowers_norm(f: FieldFn, s: int, method: str = "auto") -> NormReport:
    """The degree-s uniformity norm of f."""
    if not isinstance(s, int) or s < 1:
        raise ValidationError("degree s must be a positive integer")
    p = f.p
    if method == "auto":
        method = "fourier" if s == 2 else "recursive"
    if method == "fourier":
        if s != 2:
            raise ValidationError("the fourier route only computes the degree-2 norm")
        cost = p * max(1, p.bit_length())
        power = _pow_recursive(_real_if_possible(f.values), 2, p)
        return NormReport(_finish_power(power, 2), 2, "fourier", cost)
    if method == "naive":
        cost = p ** (s + 1) * (1 << s)
        if cost > _NAIVE_OP_BUDGET:
            raise CostError(f"naive degree-{s} norm at p={p} needs ~{cost:.1e} ops")
        power = _pow_naive(f.values, s, p)
        return NormReport(_finish_power(power, s), s, "naive", cost)
    if method == "recursive":
        cost = p ** (s - 2) * p * max(1, p.bit_length()) if s >= 2 else p
        if cost > _NAIVE_OP_BUDGET:
            raise CostError(f"recursive degree-{s} norm at p={p} needs ~{cost:.1e} ops")
        power = _pow_recursive(_real_if_possible(f.values), s, p)
        return NormReport(_finish_power(power, s), s, "recursive", cost)
    raise ValidationError(f"unknown method {method!r}")


def u2_via_fourier(f: FieldFn) -> NormReport:
    return gowers_norm(f, 2, method="fourier")


def bias_norm(f: FieldFn, s: int) -> BiasReport:
    """Max correlation with degree-(s-1) polynomial phases.

    Ties go to the lexicographically smallest coefficient tuple, scanning
    (a_(s-1), ..., a_1) in ascending lexicographic order.
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
    pows = [np.array([pow(int(v), k, p) for v in x], dtype=np.int64) for k in range(s - 1, 1, -1)]
    uppers = _cartesian(range(p), repeat=s - 2)
    rows = _block_rows(p)
    best = -1.0
    best_coeffs: tuple[int, ...] = ()
    while block := list(islice(uppers, rows)):
        coeffs = np.array(block, dtype=np.int64)
        phase = np.zeros((len(block), p), dtype=np.int64)
        for j, pw in enumerate(pows):
            phase += coeffs[:, j:j + 1] * pw
        g = f.values * char[(-phase) % p]
        gh = np.abs(fourier_transform(g)) / p
        a1 = np.argmax(gh, axis=1)
        vals = gh[np.arange(len(block)), a1]
        # the first row reaching the block maximum is the one a strict > scan keeps
        i = int(np.argmax(vals))
        if vals[i] > best:
            best = float(vals[i])
            best_coeffs = block[i] + (int(a1[i]),)
    return BiasReport(best, s, best_coeffs)
