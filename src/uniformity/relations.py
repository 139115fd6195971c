"""Algebraic relations among the components of a polynomial map.

A relation is a tuple (Q_1, ..., Q_t) of univariate integer-valued
polynomials with zero constant term such that

    Q_1(P_1(x)) + ... + Q_t(P_t(x)) = 0   identically.

Finding all relations up to outer degree ``cap`` is exact linear algebra:
expand each C(P_i, l) in the binomial basis and take the null space of the
resulting coefficient matrix over the rationals.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import ratlin
from .binpoly import IntPoly, PolyMap, binom_powers, compose
from .counting import lambda_P
from .errors import CostError, ValidationError
from .field import PrimeField, phase_fn
from .norms import NormReport, gowers_norm

__all__ = [
    "Relation",
    "IndependenceReport",
    "WitnessReport",
    "find_relations",
    "independence_report",
    "weyl_witness",
]

_UNKNOWN_BUDGET = 20000


@dataclass(frozen=True)
class Relation:
    """One null-space vector, presented as outer polynomials per component."""

    outer: tuple[IntPoly, ...]

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(0 if q.is_zero else q.degree for q in self.outer)

    def verify(self, P: PolyMap) -> bool:
        total = IntPoly.constant(P.variables, 0)
        for q, comp in zip(self.outer, P.components):
            total = total + compose(q, comp)
        return total.is_zero

    def coeff_vector(self, cap: int) -> tuple[Fraction, ...]:
        out = []
        for q in self.outer:
            for l in range(1, cap + 1):
                out.append(q.coeff((l,)))
        return tuple(out)


@dataclass(frozen=True)
class IndependenceReport:
    cap: int
    n_relations: int
    max_degrees: tuple[int, ...]  # m_i: largest outer degree hitting component i
    lower_bounds: tuple[int, ...]  # implied per-index complexity lower bound

    @classmethod
    def from_relations(cls, P: PolyMap, rels, cap: int | None = None) -> "IndependenceReport":
        """The report for relations already found by ``find_relations(P, cap)``."""
        if cap is None:
            cap = max(1, 2 * P.degree)
        degs = tuple(max((r.outer[i].degree for r in rels), default=0) for i in range(P.t))
        return cls(cap, len(rels), degs, degs)


@dataclass(frozen=True)
class WitnessReport:
    lam: complex
    norms: tuple[NormReport, ...]


def find_relations(P: PolyMap, cap: int | None = None) -> list[Relation]:
    """Canonical basis of the relation space with outer degrees <= cap.

    Default cap is twice the degree of the map, and 1 for a constant map.
    The basis is the canonical null-space basis of the coefficient matrix
    (one vector per free unknown, ordered), scaled to coprime integers with
    positive leading entry.
    """
    if cap is None:
        cap = max(1, 2 * P.degree)
    if isinstance(cap, bool) or not isinstance(cap, int) or cap < 1:
        raise ValidationError("cap must be an integer >= 1")
    t = P.t
    if t * cap > _UNKNOWN_BUDGET:
        raise CostError(f"{t * cap} unknowns exceeds the relation-search budget")
    # unknown (i, l) -> column i*cap + (l-1); its column holds the binomial
    # coefficients of C(P_i, l).  The null space does not depend on the row
    # order, but elimination runs fastest with the rows in reverse lex order,
    # where the high powers of the first variable, the sparsest rows, come first.
    powers = binom_powers(P, cap)[1:]
    cols = [Pl.components[i] for i in range(t) for Pl in powers]
    vecs = PolyMap(P.variables, cols).coefficient_vectors()
    rows = [vecs[m] for m in sorted(vecs, reverse=True)]
    basis = ratlin.nullspace(rows, ncols=len(cols))
    out = []
    for vec in basis:
        ints = ratlin.integer_primitive(vec)
        outer = []
        for i in range(t):
            terms = {}
            for l in range(1, cap + 1):
                c = ints[i * cap + l - 1]
                if c:
                    terms[(l,)] = Fraction(c)
            outer.append(IntPoly(("y",), terms))
        rel = Relation(tuple(outer))
        if not rel.verify(P):
            raise ArithmeticError("recovered relation failed exact re-verification")
        out.append(rel)
    return out


def independence_report(P: PolyMap, cap: int | None = None) -> IndependenceReport:
    """Per-component degree profile of the relation space.

    A relation hitting component i with outer degree m forces any uniformity
    control at that index to use degree >= m, so m_i doubles as a complexity
    lower bound.
    """
    return IndependenceReport.from_relations(P, find_relations(P, cap), cap)


def weyl_witness(
    P: PolyMap,
    rel: Relation,
    field: PrimeField,
    norm_degrees: dict[int, int] | None = None,
) -> WitnessReport:
    """Exponential-phase functions built from a relation.

    With f_i = e_p(Q_i(.)) the averaged product over the map equals 1
    exactly, while individual f_i can still have small uniformity norms;
    ``norm_degrees`` maps component index -> degree s to evaluate.  C(u, l)
    is p-periodic mod p only for l < p, so ``grid_values`` rejects an exponent
    of Q_i or P at or above p.  An average more than 1e-9 from 1 raises
    ArithmeticError.
    """
    if len(rel.outer) != P.t:
        raise ValidationError("relation shape does not match the map")
    fs = [phase_fn(field, q) for q in rel.outer]
    lam = lambda_P(P, fs)
    if abs(lam - 1) > 1e-9:
        raise ArithmeticError(f"witness average {lam} is not 1 within 1e-9")
    reports = []
    for i, s in sorted((norm_degrees or {}).items()):
        reports.append(gowers_norm(fs[i], s))
    return WitnessReport(lam, tuple(reports))
