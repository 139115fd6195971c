"""Exact rational linear algebra: reduced row echelon form and null spaces.

Elimination is fraction-free (the idea of Bareiss 1968) and runs row by
row: each input row is scaled to coprime integers and reduced against a basis
that is kept in reduced echelon form.  Every basis row is zero at the other
pivots, so a reduced row is zero at all of them and only its free columns
are computed; only a row that adds a pivot is eliminated from the basis.
Rows are divided by their content after each update, so the arithmetic is
on Python ints, and Fractions appear only when the finished rows are divided
by their pivots.  Arithmetic is exact, so no pivoting heuristics are needed,
and the reduced echelon form is canonical: it does not depend on row order.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .errors import ValidationError

__all__ = ["echelon", "rref", "nullspace", "solve", "integer_primitive"]

_INT = {int}


def _integer_row(row) -> list[int]:
    """The row scaled by a positive rational to coprime integers."""
    row = list(row)
    if set(map(type, row)) <= _INT:
        g = math.gcd(*row)
        return [v // g for v in row] if g > 1 else row
    vals = [v if type(v) is int else Fraction(v) for v in row]
    L = math.lcm(*[v.denominator for v in vals])
    ints = [v.numerator * (L // v.denominator) for v in vals]
    g = math.gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def echelon(rows):
    """Fraction-free reduced row echelon form, built one row at a time.

    Returns (integer_rows, pivot_columns): the nonzero rows of the reduced
    echelon form, each scaled to coprime integers with a positive pivot.
    Every row is zero at the pivot columns of the other rows, so dividing
    each row by its pivot entry gives the canonical rational form.

    The basis is kept reduced and stored on the free columns (those without
    a pivot) only.  An input row v is zero at every pivot once it is reduced
    by the basis, so lam*v - sum of mu_k*b_k, with lam the smallest integer
    that makes every mu_k = lam*v[c_k]/b_k[c_k] integral, is computed on the
    free columns alone.  A row that reduces to zero, or repeats an earlier
    row, is dropped; any other row takes a pivot at its first nonzero free
    column and is eliminated from the basis rows that are nonzero there.
    Rows of different lengths raise ValidationError before any work.
    """
    rows = list(rows)
    if len(set(map(len, rows))) > 1:
        raise ValidationError("matrix rows differ in length")
    n = len(rows[0]) if rows else 0
    gcd, lcm = math.gcd, math.lcm
    free = list(range(n))  # the columns without a pivot, ascending
    basis = {}  # pivot column -> [pivot entry, entries at the free columns]
    seen = set()
    for v in map(_integer_row, rows):
        if not free:
            break
        key = tuple(v)
        if key in seen:
            continue
        seen.add(key)
        if basis:
            w = [v[f] for f in free]
            hits = [(v[c], b) for c, b in basis.items() if v[c]]
            if hits:
                lam = 1
                for x, (a, _) in hits:
                    lam = lcm(lam, a // gcd(a, x))
                w = [lam * x for x in w]
                for x, (a, bf) in hits:
                    mu = lam * x // a
                    w = [y - mu * z for y, z in zip(w, bf)]
        else:
            w = v
        g = gcd(*w)
        if not g:
            continue
        k = 0
        while not w[k]:
            k += 1
        if w[k] < 0:
            g = -g
        if g != 1:
            w = [x // g for x in w]
        c = free.pop(k)
        a = w.pop(k)
        # b <- (a/g) b - (e/g) w on the remaining free columns, then divide out b's content
        for b in basis.values():
            e = b[1].pop(k)
            if e:
                g = gcd(a, e)
                ag, eg = a // g, e // g
                own = ag * b[0]
                new = [ag * y - eg * x for y, x in zip(b[1], w)]
                g = gcd(own, *new)
                if g != 1:
                    own //= g
                    new = [y // g for y in new]
                b[0], b[1] = own, new
        basis[c] = [a, w]
    pivots = sorted(basis)
    out = []
    for c in pivots:
        a, bf = basis[c]
        row = [0] * n
        row[c] = a
        for f, x in zip(free, bf):
            row[f] = x
        out.append(row)
    return out, pivots


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
    # only the free-column entries of each reduced row are read, so they are
    # divided by the pivot from echelon's integer rows, not whole rows via rref
    ints, pivots = echelon(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(ints, pivots):
            v[pc] = -Fraction(row[fc], row[pc])
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
