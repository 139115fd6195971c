"""Rational coefficient-space ladders attached to a polynomial map.

For a map P with t components, the space P_{i,j} is spanned by the
per-component coefficient vectors of C(P, l) (1 <= l <= i) at all
multi-indices of total degree >= j.  The enlarged ladder Q_{i,j} closes
P_{i,j} under coordinatewise products:

    Q_{i,j} = P_{i,j} + sum over i1+i2=i, j1+j2=j of Q_{i1,j1} * Q_{i2,j2}.

The product condition ``P_{i1,j1} * P_{i2,j2} inside P_{i1+i2,j1+j2}``
forces P = Q by induction; when it fails, the first witness in canonical
order is reported.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import ratlin
from .binpoly import IntPoly, PolyMap, binom_powers
from .errors import CostError, ValidationError

__all__ = [
    "RatSubspace",
    "SpaceLadder",
    "p_space",
    "q_space",
    "filtration_condition",
    "FiltrationReport",
    "linear_psi_spaces",
    "flag_condition",
]

_LADDER_BUDGET = 4000


class RatSubspace:
    """A subspace of Q^t in canonical (reduced row echelon) form.

    ``rows`` is the canonical rational basis.  Alongside it the subspace
    keeps the same basis fraction-free (primitive integer rows and their
    pivot columns), which membership tests and products reduce on.
    """

    __slots__ = ("ambient", "rows", "_ints", "_pivots")

    def __init__(self, ambient: int, rows=()):
        self.ambient = ambient
        rows = list(rows)
        if any(len(r) != ambient for r in rows):
            raise ValidationError("vector length does not match the ambient dimension")
        ints, pivots = ratlin.echelon(rows)
        self._ints = tuple(ints)
        self._pivots = tuple(pivots)
        self.rows = tuple(tuple(Fraction(v, r[c]) for v in r) for r, c in zip(ints, pivots))

    @classmethod
    def zero(cls, ambient: int) -> "RatSubspace":
        return cls(ambient, ())

    @classmethod
    def full(cls, ambient: int) -> "RatSubspace":
        eye = [[Fraction(int(i == j)) for j in range(ambient)] for i in range(ambient)]
        return cls(ambient, eye)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def is_zero(self) -> bool:
        return not self.rows

    @property
    def is_full(self) -> bool:
        return self.dim == self.ambient

    def contains(self, vec) -> bool:
        v = ratlin.integer_primitive(vec)
        if len(v) != self.ambient:
            raise ValidationError("vector length does not match the ambient dimension")
        for row, c in zip(self._ints, self._pivots):
            b = v[c]
            if b:
                a = row[c]
                v = [a * x - b * y for x, y in zip(v, row)]
        return not any(v)

    def contains_space(self, other: "RatSubspace") -> bool:
        return all(self.contains(r) for r in other._ints)

    def add(self, other: "RatSubspace") -> "RatSubspace":
        if other.ambient != self.ambient:
            raise ValidationError("ambient mismatch")
        return RatSubspace(self.ambient, self._ints + other._ints)

    def product(self, other: "RatSubspace") -> "RatSubspace":
        """Span of all coordinatewise products of basis vectors."""
        if other.ambient != self.ambient:
            raise ValidationError("ambient mismatch")
        prods = [
            [a * b for a, b in zip(u, v)] for u in self._ints for v in other._ints
        ]
        return RatSubspace(self.ambient, prods)

    def __eq__(self, other):
        if not isinstance(other, RatSubspace):
            return NotImplemented
        return self.ambient == other.ambient and self.rows == other.rows

    def __hash__(self):
        return hash((self.ambient, self.rows))

    def __repr__(self):
        return f"RatSubspace(dim {self.dim} of {self.ambient})"

    def to_json_dict(self):
        return {
            "ambient": self.ambient,
            "dim": self.dim,
            "basis": [[str(x) for x in r] for r in self.rows],
        }


def _graded_vectors(P: PolyMap, imax: int):
    """For each l <= imax, coefficient vectors of C(P, l) keyed by total degree."""
    out = []
    for Pl in binom_powers(P, imax)[1:]:
        by_deg: dict[int, list] = {}
        for m, vec in Pl.coefficient_vectors().items():
            if any(vec):
                by_deg.setdefault(sum(m), []).append(vec)
        out.append(by_deg)
    return out


class SpaceLadder:
    """All P_{i,j} (and on demand Q_{i,j}) for 1 <= i <= imax, 1 <= j <= jmax."""

    def __init__(self, P: PolyMap, imax: int | None = None, jmax: int | None = None):
        if imax is None:
            imax = P.degree + 2
        if jmax is None:
            jmax = imax * max(1, P.degree)
        if any(isinstance(b, bool) or not isinstance(b, int) or b < 1 for b in (imax, jmax)):
            raise ValidationError("ladder bounds must be positive integers")
        if imax * jmax > _LADDER_BUDGET:
            raise CostError(f"ladder of {imax}x{jmax} cells exceeds the budget")
        self.P = P
        self.imax = imax
        self.jmax = jmax
        t = P.t
        graded = _graded_vectors(P, imax)
        self._p: dict[tuple[int, int], RatSubspace] = {}
        # within one i, descend in j: each space extends the one above it by
        # the vectors of exact degree j, and is that same object when it is
        # already full or there are none
        merged: dict[int, list] = {}
        for i in range(1, imax + 1):
            for d, vs in graded[i - 1].items():
                merged.setdefault(d, []).extend(vs)
            upper = RatSubspace(
                t, [v for d, vs in merged.items() if d > jmax for v in vs]
            )
            for j in range(jmax, 0, -1):
                vs = merged.get(j)
                if vs and not upper.is_full:
                    upper = RatSubspace(t, upper._ints + tuple(vs))
                self._p[(i, j)] = upper
        self._q: dict[tuple[int, int], RatSubspace] | None = None

    def p(self, i: int, j: int) -> RatSubspace:
        self._check(i, j)
        return self._p[(i, j)]

    def _check(self, i, j):
        if not (1 <= i <= self.imax and 1 <= j <= self.jmax):
            raise ValidationError(f"(i, j) = ({i}, {j}) outside ladder bounds")

    def _build_q(self):
        if self._q is not None:
            return
        q: dict[tuple[int, int], RatSubspace] = {}
        for total in range(2, self.imax + self.jmax + 1):
            for i in range(1, self.imax + 1):
                j = total - i
                if not 1 <= j <= self.jmax:
                    continue
                sp = self._p[(i, j)]
                for i1 in range(1, i):
                    for j1 in range(1, j):
                        a = q.get((i1, j1))
                        b = q.get((i - i1, j - j1))
                        if a is None or b is None or a.is_zero or b.is_zero:
                            continue
                        sp = sp.add(a.product(b))
                q[(i, j)] = sp
        self._q = q

    def q(self, i: int, j: int) -> RatSubspace:
        self._check(i, j)
        self._build_q()
        return self._q[(i, j)]

    def filtration(self) -> "FiltrationReport":
        """Check P_{i1,j1} * P_{i2,j2} inside P_{i1+i2,j1+j2} across the ladder.

        Cells are scanned in lexicographic (i1, j1, i2, j2) order and basis
        vectors in canonical row order, so the reported witness is
        deterministic.
        """
        imax, jmax = self.imax, self.jmax
        for i1 in range(1, imax):
            for j1 in range(1, jmax):
                a = self._p[(i1, j1)]
                if a.is_zero:
                    continue
                for i2 in range(1, imax - i1 + 1):
                    for j2 in range(1, jmax - j1 + 1):
                        b = self._p[(i2, j2)]
                        if b.is_zero:
                            continue
                        target = self._p[(i1 + i2, j1 + j2)]
                        if target.is_full:  # it contains every product
                            continue
                        # the integer rows are primitive with a positive pivot,
                        # so they already are the integer_primitive witnesses
                        for v in a._ints:
                            for w in b._ints:
                                vw = [x * y for x, y in zip(v, w)]
                                if not target.contains(vw):
                                    witness = FiltrationWitness(
                                        i1, j1, i2, j2, tuple(v), tuple(w), ratlin.integer_primitive(vw)
                                    )
                                    return FiltrationReport(False, imax, jmax, witness)
        return FiltrationReport(True, imax, jmax, None)

    def to_json_dict(self):
        cells = {}
        for i in range(1, self.imax + 1):
            for j in range(1, self.jmax + 1):
                cells[f"{i},{j}"] = self.p(i, j).to_json_dict()
        return {"imax": self.imax, "jmax": self.jmax, "t": self.P.t, "p_cells": cells}


def p_space(P: PolyMap, i: int, j: int) -> RatSubspace:
    return SpaceLadder(P, imax=i, jmax=max(j, 1)).p(i, j)


def q_space(P: PolyMap, i: int, j: int) -> RatSubspace:
    return SpaceLadder(P, imax=i, jmax=max(j, 1)).q(i, j)


@dataclass(frozen=True)
class FiltrationWitness:
    i1: int
    j1: int
    i2: int
    j2: int
    v: tuple
    w: tuple
    vw: tuple


@dataclass(frozen=True)
class FiltrationReport:
    passed: bool
    imax: int
    jmax: int
    witness: FiltrationWitness | None


def filtration_condition(P: PolyMap, imax: int | None = None, jmax: int | None = None) -> FiltrationReport:
    """Check P_{i1,j1} * P_{i2,j2} inside P_{i1+i2,j1+j2} across the ladder."""
    return SpaceLadder(P, imax, jmax).filtration()


def linear_psi_spaces(Psi: PolyMap, imax: int) -> list[RatSubspace]:
    """The flag spaces of a linear map: span of the componentwise i-th powers.

    Returns [V_1, ..., V_imax] where V_i is spanned by the coefficient
    vectors of (Psi_1^i, ..., Psi_t^i).
    """
    if Psi.degree > 1 or not Psi.has_zero_constants:
        raise ValidationError("expected a linear map with zero constant terms")
    t = Psi.t
    out = []
    for i in range(1, imax + 1):
        powered = PolyMap(Psi.variables, [c**i for c in Psi.components])
        vecs = [v for v in powered.coefficient_vectors().values() if any(v)]
        out.append(RatSubspace(t, vecs))
    return out


def flag_condition(Psi: PolyMap, imax: int) -> bool:
    """Whether the power spaces of a linear map form an increasing flag."""
    spaces = linear_psi_spaces(Psi, imax)
    return all(
        spaces[i + 1].contains_space(spaces[i]) for i in range(len(spaces) - 1)
    )
