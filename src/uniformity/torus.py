"""Polynomial sequences on tori with 1/p-rational Taylor coefficients.

A sequence g(n) = sum_i g_i C(n, i) mod 1 on the m-torus carries one
filtration level per coordinate and one depth marker per Taylor
coefficient (coefficient i lives in the subgroup spanned by coordinates
of level >= depth(i); the default depth is i).  Characters are integer
vectors k acting by x -> k . x with modulus |k| = sum |k_j|.

Composing with an integer-valued polynomial map lifts the sequence to a
product torus (``LiftedSeq``); a ``TorusSeq`` is its own lift along the
identity map.  All lift arithmetic is exact, so statements like "this
character annihilates the lifted sequence" (its phase k . seq has no
nonzero Taylor coefficient mod p) are decided symbolically, with the
exponential-sum defect only confirming them numerically.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import counting
from .binpoly import IntPoly, PolyMap, binom_int, binom_power, binom_powers, grid_values, parse_polymap
from .errors import CostError, ValidationError
from .field import PrimeField, _char_table, is_prime

__all__ = [
    "TorusSeq",
    "LiftedSeq",
    "CharacterZ",
    "IrrationalityReport",
    "DefectReport",
    "irrationality_check",
    "lift_gP",
    "character_sum",
    "weyl_defect",
    "verify_section11",
]

_ENUM_BUDGET = 2_000_000


@dataclass(frozen=True)
class CharacterZ:
    coeffs: tuple[int, ...]

    @property
    def modulus(self) -> int:
        return sum(abs(c) for c in self.coeffs)

    @property
    def is_trivial(self) -> bool:
        return not any(self.coeffs)


class LiftedSeq:
    """g(n) = sum_i g_i C(n, i) mod 1 on the dim-torus, n in nvars parameters.

    ``taylor`` maps each multi-index i to the numerators of g_i over p."""

    __slots__ = ("p", "nvars", "dim", "taylor")

    def __init__(self, p: int, nvars: int, dim: int, taylor):
        self.p = p
        self.nvars = nvars
        self.dim = dim
        self.taylor = dict(taylor)


class TorusSeq(LiftedSeq):
    """g(n) = sum_i g_i C(n, i) mod 1 with g_i in (1/p) Z^m: one parameter, taylor = {(i,): g_i}."""

    __slots__ = ("m", "numerators", "levels", "depth")

    def __init__(self, p: int, numerators, levels=None, depth=None):
        if not isinstance(p, int) or p < 2:
            raise ValidationError("denominator prime must be >= 2")
        nums = tuple(tuple(int(v) for v in row) for row in numerators)
        if not nums:
            raise ValidationError("need at least the constant coefficient")
        m = len(nums[0])
        if not m:
            raise ValidationError("coefficient vectors need at least one coordinate")
        if any(len(r) != m for r in nums):
            raise ValidationError("coefficient vectors have inconsistent length")
        super().__init__(p, 1, m, {(i,): row for i, row in enumerate(nums)})
        self.m = m
        self.numerators = nums
        self.levels = tuple(levels) if levels is not None else (self.degree,) * m
        if len(self.levels) != m:
            raise ValidationError("need one level per coordinate")
        self.depth = tuple(depth) if depth is not None else tuple(range(len(nums)))
        if len(self.depth) != len(nums):
            raise ValidationError("need one depth marker per coefficient")
        for i in range(1, len(nums)):
            for c in range(m):
                if self.levels[c] < self.depth[i] and nums[i][c] % p:
                    raise ValidationError(
                        f"coefficient {i} has depth {self.depth[i]} but touches "
                        f"coordinate {c} of level {self.levels[c]}"
                    )

    @property
    def degree(self) -> int:
        return len(self.numerators) - 1

    def __call__(self, n: int):
        out = []
        for c in range(self.m):
            tot = sum(row[c] * binom_int(n, i) for i, row in enumerate(self.numerators))
            out.append(Fraction(tot % self.p, self.p))
        return tuple(out)


@dataclass(frozen=True)
class IrrationalityReport:
    bound: int
    passed: bool
    witness_level: int | None
    witness: CharacterZ | None


@dataclass(frozen=True)
class DefectReport:
    value: float
    argmax: CharacterZ
    bound: int
    n_characters: int


def _l1_ball(dim: int, K: int):
    """All integer vectors of length dim with sum |k_j| <= K."""
    if dim == 0:
        return [()]
    return [(v,) + rest for v in range(-K, K + 1) for rest in _l1_ball(dim - 1, K - abs(v))]


def _modulus_lex(k: tuple[int, ...]):
    return (sum(abs(v) for v in k), k)


def _enumerate_characters(dim: int, K: int):
    """Nonzero integer vectors with |k| <= K, by modulus then lexicographic."""
    if (2 * K + 1) ** dim > _ENUM_BUDGET:
        raise CostError(f"character enumeration of size (2K+1)^{dim} too large")
    return sorted((k for k in _l1_ball(dim, K) if any(k)), key=_modulus_lex)


def _level_characters(seq: TorusSeq, level: int, K: int) -> list[tuple[int, ...]]:
    """The characters of modulus <= K on the coordinates of one level, in the full torus, by modulus then lexicographic."""
    block = [c for c in range(seq.m) if seq.levels[c] == level]
    out = []
    for k in _enumerate_characters(len(block), K):
        full = [0] * seq.m
        for c, kc in zip(block, k):
            full[c] = kc
        out.append(tuple(full))
    return out


def irrationality_check(g: TorusSeq, A: int) -> IrrationalityReport:
    """No character of modulus <= A on the depth-i level block kills g_i.

    Scans i = 1..deg(g); the block for coefficient i is the set of
    coordinates whose level equals depth(i).
    """
    if A < 1:
        raise ValidationError("irrationality bound must be >= 1")
    for i in range(1, g.degree + 1):
        for k in _level_characters(g, g.depth[i], A):
            if sum(kc * v for kc, v in zip(k, g.numerators[i])) % g.p == 0:
                return IrrationalityReport(A, False, i, CharacterZ(k))
    return IrrationalityReport(A, True, None, None)


def lift_gP(g: TorusSeq, P: PolyMap) -> LiftedSeq:
    """Taylor data of n -> (g(P_1(n)), ..., g(P_t(n))) on the t*m-torus.

    Coordinate (component k, torus coordinate c) sits at flat index k*m + c.
    """
    if not P.is_integer_valued:
        raise ValidationError("the map must be integer valued")
    t, m, p = P.t, g.m, g.p
    taylor: dict[tuple[int, ...], list[int]] = {}
    # C(P, 0) = 1, so g_0 lands in every component's constant term
    for gi, Ci in zip(g.numerators, binom_powers(P, g.degree)):
        for k, comp in enumerate(Ci.components):
            if not comp.is_integer_valued:
                raise ArithmeticError("binomial power of an integer map must be integral")
            for midx, coeff in comp.numerators.items():
                row = taylor.setdefault(midx, [0] * (t * m))
                for c in range(m):
                    row[k * m + c] += coeff * gi[c]
    taylor = {
        midx: tuple(v % p for v in row)
        for midx, row in taylor.items()
        if any(v % p for v in row)
    }
    return LiftedSeq(p, P.nvars, t * m, taylor)


def _phase(seq: LiftedSeq, k: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """{i: numerator mod p} of the nonzero Taylor coefficients of n -> k . seq(n)."""
    phase = {}
    for midx, row in seq.taylor.items():
        n = sum(kc * v for kc, v in zip(k, row)) % seq.p
        if n:
            phase[midx] = n
    return phase


# Bytes per block of first-parameter rows: the coordinate tables, the phase
# values and the gathered e_p values of a block take no more than the int64
# values and complex products of one ``counting._GENERIC_BLOCK`` (2^21 grid
# points) of the generic scan.
_BLOCK_BYTES = 24 << 21
# Entries of the periodic e_p table, no more than the complex products of
# one generic block; it also keeps the phase values below 2^31.
_TILE_ENTRIES = 1 << 21


def _character_sums(seq: LiftedSeq, chars) -> list[complex]:
    """[E_n e(k . seq(n)) for k in chars], n over [0, p)^D, each k a tuple of ints.

    A character whose phase k . seq has no nonzero Taylor coefficient mod p
    gives exactly 1.  The others share one table per torus coordinate c that
    some of them use: B_c holds coordinate c of seq mod p on a block of rows
    of the first parameter (``grid_values``; a term C(n, i) with i >= p
    vanishes on [0, p) and is left out), in int16 below p = 2^15 and in
    int32 from there.  The phase values are Phi_k = sum_c k_c B_c, which lie
    strictly between -K p and K p for K the largest modulus, so e_p(Phi_k) is
    read from 2K + 1 periods of the e_p table at Phi_k + K p, in int32 and
    with no reduction mod p.  When those
    periods would exceed ``_TILE_ENTRIES``, Phi_k is reduced mod p term by
    term in int64 and read from one period.  Each sum is taken row by row
    and then over the p row sums, the order of ``counting._scan_generic``,
    so it depends neither on the block size nor on the other characters.
    """
    p, D = seq.p, seq.nvars
    phases = [_phase(seq, k) for k in chars]
    out = [1.0 + 0.0j] * len(chars)
    live = [(j, [(c, kc) for c, kc in enumerate(k) if kc % p]) for j, k in enumerate(chars) if phases[j]]
    if not live:
        return out
    if not is_prime(p):
        raise ValidationError(f"p = {p} is not prime")
    if D > 2:
        raise CostError("character sums implemented for at most two parameters")
    if D < 1:
        raise ValidationError("character sums need at least one parameter")
    if p**D > counting._GRID_BUDGET:
        raise CostError(f"grid of size p^{D} exceeds the scan budget")
    kmax = max(max(idx) for phase in phases for idx in phase)
    if kmax >= p:
        raise ValidationError(f"exponent {kmax} >= p = {p}: binomial tables mod p need k < p")
    variables = tuple(f"n{j}" for j in range(D))
    coords = {}  # coordinate -> its Taylor polynomial mod p on the grid
    for c in sorted({c for _, k in live for c, _ in k}):
        terms = {midx: row[c] % p for midx, row in seq.taylor.items() if max(midx) < p}
        coords[c] = IntPoly._new(variables, terms)
    K = max(sum(abs(kc) for _, kc in k) for _, k in live)
    wide = (2 * K + 1) * p > _TILE_ENTRIES
    itype = np.dtype(np.int16 if p < 2**15 else np.int32)
    # PrimeField rejects p = 2, so the table comes straight from _char_table
    lut = _char_table(p) if wide else np.tile(_char_table(p), 2 * K + 1)
    # per grid point: the coordinate tables, the phase values and one product, the e_p values
    per_row = p ** (D - 1) * (len(coords) * itype.itemsize + 2 * (8 if wide else 4) + 16)
    rows = max(1, _BLOCK_BYTES // per_row)

    def values(k, tables):
        if wide:
            phi = np.zeros_like(tables[k[0][0]], dtype=np.int64)
            for c, kc in k:
                phi += np.multiply(tables[c], kc % p, dtype=np.int64)
                phi %= p
        else:
            (c, kc), *rest = k
            phi = np.multiply(tables[c], kc, dtype=np.int32)
            for c, kc in rest:
                phi += np.multiply(tables[c], kc, dtype=np.int32)
            phi += K * p
        return np.take(lut, phi)

    def tables(lo):
        return {c: grid_values(poly, p, lo, lo + rows).astype(itype) for c, poly in coords.items()}

    group = max(1, _BLOCK_BYTES // (16 * p))  # characters whose p row sums are held at a time
    for g in range(0, len(live), group):
        part = live[g : g + group]
        sums = np.empty((len(part), p), dtype=complex)
        for lo in range(0, p, rows):
            block = tables(lo)
            for s, (_, k) in zip(sums, part):
                np.sum(values(k, block), axis=1, out=s[lo : lo + rows])
        for s, (j, _) in zip(sums, part):
            out[j] = complex(np.sum(s)) / p**D
    return out


def character_sum(seq, k: CharacterZ | tuple) -> complex:
    """E_n e(k . seq(n)) with n ranging over [0, p)^(number of parameters).

    One character of ``_character_sums``: composite p and a phase exponent
    >= p raise ValidationError, more than two parameters or p^D above the
    scan budget CostError, and an empty phase gives exactly 1.
    """
    if not isinstance(k, CharacterZ):
        k = CharacterZ(tuple(int(v) for v in k))
    if not isinstance(seq, LiftedSeq) or len(k.coeffs) != seq.dim:
        raise ValidationError("character length does not match the torus dimension")
    return _character_sums(seq, [k.coeffs])[0]


def weyl_defect(seq, K: int, level_respecting: bool = False) -> DefectReport:
    """Largest |E e(k . seq)| over nontrivial characters of modulus <= K.

    With ``level_respecting`` (plain sequences only) the search is limited
    to characters supported on a single filtration-level block.  All sums
    come from one ``_character_sums`` call, so each torus coordinate's table
    is built once per block, and each sum has the bits that ``character_sum``
    gives for its character alone.  The report names the first character
    in (modulus, lex) order whose computed magnitude is largest, so when
    several sums have the same exact magnitude, rounding picks the winner.
    For the Section-11 lift at p = 211 and K = 2, 38 of the 144 characters
    have magnitude exactly 1/sqrt(p); their computed values spread over 7
    ulps, and the report names (0, 0, 0, 0, 0, 1, 0, 0), not the first of
    them, (0, -1, 0, 0, 0, 0, 0, 0).
    """
    if K < 1:
        raise ValidationError("modulus bound must be >= 1")
    if level_respecting:
        if not isinstance(seq, TorusSeq):
            raise ValidationError("level-respecting search needs a plain torus sequence")
        cands = sorted((k for lev in set(seq.levels) for k in _level_characters(seq, lev, K)), key=_modulus_lex)
    else:
        cands = _enumerate_characters(seq.dim, K)
    best = -1.0
    best_k = None
    for k, s in zip(cands, _character_sums(seq, cands)):
        v = abs(s)
        if v > best:
            best = v
            best_k = k
    return DefectReport(best, CharacterZ(best_k), K, len(cands))


def verify_section11(p: int) -> dict:
    """End-to-end check of the quadratic annihilation example at prime p.

    Builds g(n) = (alpha n, alpha C(n,2)) with alpha = floor(sqrt p)/p on the
    2-torus with levels (1, 2), lifts it along (x, x+y, x+2y, x+y^2), and
    verifies: A-irrationality at A = floor(sqrt p); exact annihilation by the
    character (x1 - z1) + (x2 - 2 y2 + u2); failure for a one-sign
    modification; the cross-level cancellation in the C(y,2) coefficient; and
    defect 1 of the annihilating character.
    """
    PrimeField(p)  # validates primality
    a = math.isqrt(p)
    g = TorusSeq(p, [(0, 0), (a, 0), (0, a)], levels=(1, 2))
    irr = irrationality_check(g, a)
    P = parse_polymap("x, x+y, x+2*y, x+y^2")
    lifted = lift_gP(g, P)
    # level-1 weights (1, 0, 0, -1): the y-coefficient they produce cancels
    # the stray linear term that C(x+2y, 2) contributes at level 2
    eta = CharacterZ((1, 1, 0, -2, 0, 1, -1, 0))
    eta_mod = CharacterZ((1, 1, 0, -2, 0, -1, -1, 0))
    sym = not _phase(lifted, eta.coeffs)
    sym_mod = not _phase(lifted, eta_mod.coeffs)
    # cross-level transfer at the C(y,2) coefficient: the first-level part
    # and the second-level part are separately nonzero but cancel
    eta1, eta2 = eta.coeffs[0::2], eta.coeffs[1::2]
    c1 = sum(e * int(c.coeff((0, 2))) for e, c in zip(eta1, P.components)) * a
    C2 = binom_power(P, 2)
    c2 = sum(e * int(c.coeff((0, 2))) for e, c in zip(eta2, C2.components)) * a
    transfer = {
        "level1_part": c1,
        "level2_part": c2,
        "parts_nonzero": c1 % p != 0 and c2 % p != 0,
        "sum_vanishes": (c1 + c2) % p == 0,
    }
    defect = abs(character_sum(lifted, eta))
    passed = (
        irr.passed
        and sym
        and not sym_mod
        and transfer["parts_nonzero"]
        and transfer["sum_vanishes"]
        and abs(defect - 1.0) <= 1e-9
    )
    return {
        "p": p,
        "alpha_numerator": a,
        "irrationality": irr,
        "annihilator": eta,
        "annihilator_symbolic_zero": sym,
        "modified_symbolic_zero": sym_mod,
        "transfer": transfer,
        "defect_at_annihilator": defect,
        "passed": passed,
    }
