"""Exact rational linear algebra: reduced row echelon form and null spaces.

Elimination is fraction-free (the idea of Bareiss 1968): every row is
scaled to coprime integers and divided by its content after each update, so
Gauss-Jordan runs on Python ints, and Fractions appear only when the
finished rows are divided by their pivots.  Arithmetic is exact, so no
pivoting heuristics are needed and the reduced echelon form is canonical.
"""
from __future__ import annotations

import math
from fractions import Fraction

__all__ = ["echelon", "rref", "nullspace", "solve", "integer_primitive"]


def _integer_row(row) -> list[int]:
    """The row scaled by a positive rational to coprime integers."""
    row = list(row)
    if all(type(v) is int for v in row):
        g = math.gcd(*row)
        return [v // g for v in row] if g > 1 else row
    vals = [v if type(v) is int else Fraction(v) for v in row]
    L = math.lcm(*[v.denominator for v in vals])
    ints = [v.numerator * (L // v.denominator) for v in vals]
    g = math.gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def echelon(rows):
    """Fraction-free reduced row echelon form.

    Returns (integer_rows, pivot_columns): the nonzero rows of the reduced
    echelon form, each scaled to coprime integers with a positive pivot.
    Every row is zero at the pivot columns of the other rows, so dividing
    each row by its pivot entry gives the canonical rational form.
    """
    mat = [r for r in map(_integer_row, rows) if any(r)]
    pivots = []
    if not mat:
        return [], pivots
    gcd = math.gcd
    r = 0
    for c in range(len(mat[0])):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        prow = mat[pivot]
        mat[pivot] = mat[r]
        if prow[c] < 0:
            prow = [-v for v in prow]
        mat[r] = prow
        a = prow[c]
        # row_i <- (a/g) row_i - (b/g) row_r, then divide out the row's content
        for i, row in enumerate(mat):
            b = row[c]
            if b and i != r:
                g = gcd(a, b)
                ag, bg = a // g, b // g
                new = [ag * x - bg * y for x, y in zip(row, prow)]
                g = gcd(*new)
                mat[i] = [v // g for v in new] if g > 1 else new
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def rref(rows):
    """Reduced row echelon form.

    Returns (reduced_nonzero_rows, pivot_columns).  Rows are tuples of
    Fractions; zero rows are dropped.
    """
    ints, pivots = echelon(rows)
    return [tuple(Fraction(v, row[c]) for v in row) for row, c in zip(ints, pivots)], pivots


def nullspace(rows, ncols: int):
    """Canonical basis of {v : A v = 0} for A with ncols columns, one vector per free column.

    Each basis vector has entry 1 at its free column and the reduced
    solution values at the pivot columns; vectors are ordered by free column.
    """
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in zip(red, pivots):
            v[pc] = -r[fc]
        basis.append(tuple(v))
    return basis


def solve(rows, rhs):
    """One exact solution of A v = rhs, or None if inconsistent."""
    if not rows:
        return None
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    if ncols in pivots:
        return None
    v = [Fraction(0)] * ncols
    for r, pc in zip(red, pivots):
        v[pc] = r[-1]
    return tuple(v)


def integer_primitive(vec):
    """Scale a rational vector to coprime integers with first nonzero entry > 0."""
    ints = _integer_row(vec)
    lead = next((v for v in ints if v), 0)
    if lead < 0:
        ints = [-v for v in ints]
    return tuple(ints)
