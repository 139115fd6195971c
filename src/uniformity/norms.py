"""Uniformity norms of degree s and polynomial-phase bias norms.

Three evaluation routes for the degree-s norm:

* ``naive``     -- direct average of the 2^s-fold product over all
                   (x, h_1, ..., h_s), cost p^(s+1) * 2^s.
* ``recursive`` -- peels one differencing parameter at a time via
                   ||f||^(2^s) = E_h ||f(.+h) conj f||^(2^(s-1)) with the
                   degree-2 base case done through the Fourier identity
                   ||f||^4 = sum_xi |fhat(xi)|^4; the last level transforms
                   all p shifts in blocks of at most _CHUNK entries.
* ``fourier``   -- the recursion's degree-2 base case alone (s = 2 only).

The bias norm of degree s maximizes |E_x f(x) e_p(-(a_(s-1) x^(s-1) + ... + a_1 x))|
over all coefficient tuples; note the minus sign, so the maximizer for
f = e_p(3x^2 + x) is reported as (3, 1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from itertools import product as _cartesian

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import CostError, ValidationError
from .field import FieldFn, fourier_transform

__all__ = ["NormReport", "BiasReport", "gowers_norm", "bias_norm", "u2_via_fourier"]

_NAIVE_OP_BUDGET = 4e9
_BIAS_OP_BUDGET = 1e9
# Complex entries per block of rows handed to one batched transform.
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


@lru_cache(maxsize=8)
def _naive_bases(p: int, s: int):
    # grid over (x, h_1..h_(s-1)); the last differencing parameter is looped.
    axes = np.indices((p,) * s).reshape(s, -1).astype(np.int64)
    x, hs = axes[0], axes[1:]
    bases = []
    for w in _cartesian([0, 1], repeat=s - 1):
        b = x.copy()
        for wk, h in zip(w, hs):
            if wk:
                b = b + h
        bases.append(((b % p).astype(np.int32), sum(w) & 1))
    return tuple(bases)


def _pow_naive(values: np.ndarray, s: int, p: int) -> float:
    if s == 1:
        total = math.fsum(
            (np.roll(values, -h) * np.conj(values)).sum().real for h in range(p)
        )
        return total / p**2
    bases = _naive_bases(p, s)
    ext = np.concatenate([values, values])
    prod = None
    for base, parity in bases:
        g = np.conj(ext[base]) if parity & 1 else ext[base]
        prod = g if prod is None else prod * g
    # factors with w_last = 1 are exactly conj(prod) translated by h_last in x
    grid = prod.reshape(p, -1)  # axis 0 is x
    reals = [
        (grid * np.conj(np.roll(grid, -h_last, axis=0))).sum().real
        for h_last in range(p)
    ]
    return math.fsum(reals) / p ** (s + 1)


def _block_rows(p: int) -> int:
    """Rows of length p per batched transform: at most _CHUNK entries, at least one row."""
    return max(1, _CHUNK // p)


def _u2_powers(rows: np.ndarray, p: int) -> np.ndarray:
    """sum_xi |fhat(xi)|^4 for every row, via one batched transform."""
    a = np.abs(fourier_transform(rows) / p)
    return np.sum(a**4, axis=-1)


def _pow_recursive(values: np.ndarray, s: int, p: int) -> float:
    if s == 1:
        m = values.mean()
        return (m * np.conj(m)).real
    if s == 2:
        return float(_u2_powers(values, p))
    if s == 3:
        # row h of the window view is x -> f(x + h); each block of rows is one transform
        shifted = sliding_window_view(np.concatenate([values, values[:-1]]), p)
        cv = np.conj(values)
        rows = _block_rows(p)
        parts = []
        for h0 in range(0, p, rows):
            parts.extend(_u2_powers(shifted[h0:h0 + rows] * cv, p).tolist())
    else:
        parts = [
            _pow_recursive(np.roll(values, -h) * np.conj(values), s - 1, p)
            for h in range(p)
        ]
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
        power = _pow_recursive(f.values, 2, p)
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
        power = _pow_recursive(f.values, s, p)
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
