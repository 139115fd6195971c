"""Averaged products over polynomial configurations, set counts, and energy.

The workhorse is a blocked grid scan: for a map P = (P_1, ..., P_t) in D
parameters it walks the first D-1 coordinates in vectorized blocks and keeps
the last coordinate as a dense numpy axis.  Maps whose components all have
the shape P_i = x + c_i(rest), in two or three parameters, take the window
kernel instead: it gathers whole rows f_i(x + c_i) from a window view of the
doubled value table, with no modular reduction in the inner loop.  Scans run
on one thread; the ``threads`` keyword is accepted for compatibility and
ignored.

Linear systems are canonicalized by the Hermite form of their coefficient
lattice before dispatch: the averaged product is invariant under an
invertible integer change of the parameters, so the two systems with closed
Fourier forms (the three-parameter cube and the pair of three-term
progressions sharing a start) are recognized in any parametrization.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import ratlin
from .binpoly import IntPoly, PolyMap, binom_table_mod
from .errors import CostError, ValidationError
from .field import FieldFn, PrimeField, fourier_transform

__all__ = [
    "SetF",
    "CountReport",
    "lambda_P",
    "count_in_set",
    "additive_energy",
    "lambda_linear",
    "verify_asymptotic",
    "decompose_via_linear",
]

_GRID_BUDGET = 2e9


def _spec_number(kind, text: str, spec: str):
    try:
        return kind(text)
    except ValueError:
        raise ValidationError(f"bad number {text!r} in set spec {spec!r}") from None


class SetF:
    """A subset of F_p."""

    __slots__ = ("field", "members")

    def __init__(self, field: PrimeField, members):
        self.field = field
        self.members = tuple(sorted({int(x) % field.p for x in members}))

    @classmethod
    def from_spec(cls, field: PrimeField, spec: str) -> "SetF":
        """Parse 'random:<seed>:<density>', 'residues:<k>', 'interval:<a>:<b>' or 'members:<a>,<b>,...'."""
        parts = spec.split(":")
        kind = parts[0]
        p = field.p
        if kind == "random" and len(parts) == 3:
            seed = _spec_number(int, parts[1], spec)
            density = _spec_number(float, parts[2], spec)
            if seed < 0:
                raise ValidationError("seed must be >= 0")
            if not 0 <= density <= 1:
                raise ValidationError("density must lie in [0, 1]")
            rng = np.random.Generator(np.random.Philox(seed))
            mask = rng.random(p) < density
            return cls(field, np.nonzero(mask)[0].tolist())
        if kind == "residues" and len(parts) == 2:
            k = _spec_number(int, parts[1], spec)
            if k < 1:
                raise ValidationError("residue power must be >= 1")
            return cls(field, {pow(x, k, p) for x in range(1, p)})
        if kind == "interval" and len(parts) == 3:
            a, b = _spec_number(int, parts[1], spec), _spec_number(int, parts[2], spec)
            if b < a:
                raise ValidationError("interval needs a <= b")
            return cls(field, range(a, b + 1))
        if kind == "members" and len(parts) == 2:
            return cls(field, [_spec_number(int, v, spec) for v in parts[1].split(",")])
        raise ValidationError(f"unrecognized set spec {spec!r}")

    @property
    def density(self) -> float:
        return len(self.members) / self.field.p

    def __len__(self):
        return len(self.members)

    def __contains__(self, x):
        x = int(x) % self.field.p
        i = bisect_left(self.members, x)
        return i < len(self.members) and self.members[i] == x

    def indicator(self) -> FieldFn:
        return FieldFn.indicator(self.field, self.members)

    def bool_table(self) -> np.ndarray:
        t = np.zeros(self.field.p, dtype=bool)
        t[list(self.members)] = True
        return t


@dataclass(frozen=True)
class CountReport:
    p: int
    lhs_count: int
    rhs_model: float
    residual: float


# ----------------------------------------------------------------------
# grid scan machinery

# Grid elements handled per block by the window kernel.
_WINDOW_BLOCK = 1 << 15


def _grid_values(poly: IntPoly, p: int) -> np.ndarray:
    """Values of ``poly`` mod p on the grid F_p^k, flattened in C order."""
    k = poly.nvars
    ctab = binom_table_mod(p, poly.degree)
    out = np.zeros((p,) * k, dtype=np.int64)
    for idx, c in poly.terms.items():
        term = np.int64(int(c) % p)
        for axis, e in enumerate(idx):
            if e:
                term = term * ctab[e].reshape((p,) + (1,) * (k - 1 - axis)) % p
        out += term
        out %= p
    return out.ravel()


def _window_shifts(P: PolyMap, p: int):
    """Shift tables c_i(rest) mod p if every component is x + c_i(rest), else None.

    Here x is the first variable: its only term must be x itself, with
    coefficient 1.
    """
    unit = (1,) + (0,) * (P.nvars - 1)
    shifts = []
    for comp in P.components:
        if {idx: c for idx, c in comp.terms.items() if idx[0]} != {unit: 1}:
            return None
        rest = {idx[1:]: c for idx, c in comp.terms.items() if not idx[0]}
        shifts.append(_grid_values(IntPoly(P.variables[1:], rest), p))
    return shifts


def _total(acc, count_mode: bool):
    return int(np.count_nonzero(acc)) if count_mode else complex(acc.sum())


def _combine(parts, count_mode: bool):
    if count_mode:
        return sum(parts)
    return complex(math.fsum(v.real for v in parts), math.fsum(v.imag for v in parts))


def _scan_window(shifts, p: int, tables, count_mode: bool):
    """Sum over x and rest of prod_i f_i(x + c_i(rest)), gathering whole rows.

    Row c of the window view of the doubled table [f, f] is f(x + c) for
    x = 0..p-1, so one gather per rest point fetches the whole x-axis.
    """
    windows = [
        np.lib.stride_tricks.sliding_window_view(np.concatenate([tab, tab]), p) for tab in tables
    ]
    rows = max(1, _WINDOW_BLOCK // p)
    op = np.logical_and if count_mode else np.multiply
    parts = []
    # Each gathered block is folded into acc at once: keeping a second
    # gathered block alive (say, through a generator) measured several times
    # slower in product mode, as freed blocks went back to the OS.
    for lo in range(0, shifts[0].size, rows):
        acc = windows[0][shifts[0][lo : lo + rows]]
        for win, sh in zip(windows[1:], shifts[1:]):
            op(acc, win[sh[lo : lo + rows]], out=acc)
        parts.append(_total(acc, count_mode))
    return _combine(parts, count_mode)


def _scan_generic(P: PolyMap, p: int, tables, count_mode: bool):
    """Blocked over the outer assignments, dense over the last axis.

    Each component is split as P_i = sum_a prod_o C(x_o, a_o) * q_{i,a}(y);
    patterns[i] lists the (a, table of q_{i,a} mod p) pairs.
    """
    outer = P.nvars - 1
    patterns = [
        [(oidx, q.eval_mod_table(p)) for oidx, q in sorted(comp.split_outer(outer).items())]
        for comp in P.components
    ]
    amax = [
        max((o[j] for pats in patterns for o, _ in pats), default=0)
        for j in range(outer)
    ]
    ctabs = [binom_table_mod(p, a) for a in amax]
    grid = np.indices((p,) * outer).reshape(outer, -1).T  # (p^outer, outer)
    block = max(8, (1 << 21) // p)

    def values(O, pats, tab):
        val = np.zeros((O.shape[0], p), dtype=np.int64)
        for oidx, itab in pats:
            w = np.ones(O.shape[0], dtype=np.int64)
            for j, a in enumerate(oidx):
                if a:
                    w = w * ctabs[j][a][O[:, j]] % p
            val += w[:, None] * itab[None, :]
        return tab[val % p]

    op = np.logical_and if count_mode else np.multiply
    parts = []
    for lo in range(0, grid.shape[0], block):
        O = grid[lo : lo + block]
        acc = values(O, patterns[0], tables[0])
        for pats, tab in zip(patterns[1:], tables[1:]):
            op(acc, values(O, pats, tab), out=acc)
        parts.append(_total(acc, count_mode))
    return _combine(parts, count_mode)


def _scan_blocks(P: PolyMap, p: int, tables, count_mode: bool):
    D = P.nvars
    t = P.t
    if not 1 <= D <= 3:
        raise ValidationError("grid scans support 1 to 3 parameters")
    if p**D * t > _GRID_BUDGET:
        raise CostError(f"grid of size p^{D} * {t} exceeds the scan budget")
    if not P.is_integer_valued:
        raise ValidationError("components must be integer valued")
    if D == 1:
        op = np.logical_and if count_mode else np.multiply
        acc = tables[0][P.components[0].eval_mod_table(p)]
        for comp, tab in zip(P.components[1:], tables[1:]):
            op(acc, tab[comp.eval_mod_table(p)], out=acc)
        return _total(acc, count_mode)
    shifts = _window_shifts(P, p)
    if shifts is not None:
        return _scan_window(shifts, p, tables, count_mode)
    return _scan_generic(P, p, tables, count_mode)


def lambda_P(P: PolyMap, fs, threads: int | None = None) -> complex:
    """E_x f_1(P_1(x)) ... f_t(P_t(x)) over x in F_p^D.

    ``threads`` is accepted for compatibility and ignored: scans run on one
    thread.
    """
    fs = list(fs)
    if len(fs) != P.t:
        raise ValidationError(f"need {P.t} functions, got {len(fs)}")
    p = fs[0].p
    if any(f.p != p for f in fs):
        raise ValidationError("functions live over different primes")
    if P.degree >= p:
        raise ValidationError("map degree must be smaller than p")
    raw = _scan_blocks(P, p, [f.values for f in fs], count_mode=False)
    return raw / p**P.nvars


def count_in_set(P: PolyMap, A: SetF, threads: int | None = None) -> int:
    """Exact number of x in F_p^D with every P_i(x) in A (``threads`` is ignored)."""
    p = A.field.p
    if P.degree >= p:
        raise ValidationError("map degree must be smaller than p")
    tab = A.bool_table()
    return _scan_blocks(P, p, [tab] * P.t, count_mode=True)


def additive_energy(A: SetF) -> int:
    """|{(x, y, u, z) in A^4 : x + y = u + z}| = sum_s r(s)^2, exactly.

    r(s) = #{(a, b) in A^2 : a + b = s} comes from squaring the transform of
    1_A and transforming back; each r(s) <= |A| is rounded on its own, so no
    single float rounding decides the sum.  Raises ArithmeticError if some
    r(s) lands more than 0.25 from an integer.
    """
    p = A.field.p
    ind = np.zeros(p, dtype=np.complex128)
    ind[list(A.members)] = 1.0
    ih = fourier_transform(ind)
    # fourier_transform(ih^2)[n] = p * r(-n); the sum of squares ignores the sign.
    raw = fourier_transform(ih * ih).real / p
    r = np.rint(raw)
    if np.max(np.abs(raw - r), initial=0.0) > 0.25:
        raise ArithmeticError(f"sum counts of the set are not near integers at p = {p}")
    return sum(v * v for v in r.astype(np.int64).tolist())


# ----------------------------------------------------------------------
# linear systems

_CUBE = ((1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1))
_TWO_APS = ((1, 0, 0), (1, 1, 0), (1, 2, 0), (1, 0, 1), (1, 0, 2))


def _linear_matrix(Psi: PolyMap):
    rows = []
    for comp in Psi.components:
        if comp.degree > 1 or comp.constant_term:
            raise ValidationError("expected a linear map with zero constant terms")
        row = [0] * Psi.nvars
        for idx, c in comp.terms.items():
            if c.denominator != 1:
                raise ValidationError("linear map needs integer coefficients")
            row[idx.index(1)] = int(c)
        rows.append(tuple(row))
    return tuple(rows)


def _row_hermite(rows):
    """Hermite form of an integer matrix under unimodular row operations."""
    mat = [list(r) for r in rows]
    if not mat:
        return ()
    m, ncols = len(mat), len(mat[0])
    r = 0
    for c in range(ncols):
        while True:
            nz = [i for i in range(r, m) if mat[i][c]]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda i: abs(mat[i][c]))
            i0 = nz[0]
            for i in nz[1:]:
                q = mat[i][c] // mat[i0][c]
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[i0])]
        nz = [i for i in range(r, m) if mat[i][c]]
        if not nz:
            continue
        mat[r], mat[nz[0]] = mat[nz[0]], mat[r]
        if mat[r][c] < 0:
            mat[r] = [-a for a in mat[r]]
        for i in range(r):
            q = mat[i][c] // mat[r][c]
            mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
        r += 1
        if r == m:
            break
    return tuple(tuple(row) for row in mat[:r])


def _lattice_signature(V):
    # Hermite form of the transpose: canonical under reparametrization of
    # the inner variables by GL_r(Z), which leaves the average unchanged.
    cols = tuple(tuple(row[j] for row in V) for j in range(len(V[0])))
    return _row_hermite(cols)


def lambda_linear(Psi: PolyMap, fs, threads: int | None = None) -> complex:
    """Averaged product over a system of linear forms.

    The cube system and the shared-start pair of 3-term progressions are
    evaluated through closed Fourier identities; anything else in at most
    three parameters falls back to the grid scan.  ``threads`` is ignored.
    """
    fs = list(fs)
    if len(fs) != Psi.t:
        raise ValidationError(f"need {Psi.t} functions, got {len(fs)}")
    p = fs[0].p
    V = _linear_matrix(Psi)
    sig = _lattice_signature(V)
    if len(V) == 4 and sig == _lattice_signature(_CUBE):
        hats = fourier_transform(np.stack([f.values for f in fs])) / p
        neg = (-np.arange(p)) % p
        return complex(np.sum(hats[0] * hats[1][neg] * hats[2][neg] * hats[3]))
    if len(V) == 5 and sig == _lattice_signature(_TWO_APS):
        hats = fourier_transform(np.stack([f.values for f in fs])) / p
        neg2 = (-2 * np.arange(p)) % p
        g1, g2 = fourier_transform(np.stack([hats[1][neg2] * hats[2], hats[3][neg2] * hats[4]]))
        return complex(np.mean(fs[0].values * g1 * g2))
    if Psi.nvars > 3:
        raise CostError("generic linear systems supported for at most 3 parameters")
    return lambda_P(Psi, fs)


def decompose_via_linear(P: PolyMap):
    """Write P(x) = Psi(Q_1(x), ..., Q_r(x)) with Psi linear.

    Groups the binomial coefficient vectors of P by direction: parallel
    vectors share an inner polynomial.  Returns (Psi, Qs).
    """
    vecs = P.coefficient_vectors()
    dirs: list[tuple[int, ...]] = []
    inners: list[dict] = []
    for m, b in vecs.items():
        if not any(b):
            continue
        prim = ratlin.integer_primitive(b)
        k = next((i for i, d in enumerate(dirs) if d == prim), None)
        if k is None:
            dirs.append(prim)
            inners.append({})
            k = len(dirs) - 1
        j = next(i for i, v in enumerate(prim) if v)
        inners[k][m] = Fraction(b[j], prim[j])
    r = len(dirs)
    variables = tuple(f"y{i + 1}" for i in range(r))
    comps = []
    for i in range(P.t):
        terms = {}
        for j, d in enumerate(dirs):
            if d[i]:
                idx = [0] * r
                idx[j] = 1
                terms[tuple(idx)] = Fraction(d[i])
        comps.append(IntPoly(variables, terms))
    Psi = PolyMap(variables, comps)
    Qs = [IntPoly(P.variables, terms) for terms in inners]
    return Psi, Qs


def verify_asymptotic(
    P: PolyMap, A: SetF, Psi: PolyMap | None = None, threads: int | None = None
) -> CountReport:
    """Compare the configuration count in A against its linear-system model.

    The model predicts count(P in A)/p^D ~ count(Psi in A)/p^r; the report
    carries the difference of the two normalized densities as ``residual``.
    ``threads`` is ignored.
    """
    p = A.field.p
    if Psi is None:
        Psi, _ = decompose_via_linear(P)
    V = _linear_matrix(Psi)
    # exact certificate that P factors through Psi
    rows = [[Fraction(v) for v in row] for row in V]
    for m, b in P.coefficient_vectors().items():
        if any(b) and ratlin.solve(rows, b) is None:
            raise ValidationError("map does not factor through the given linear system")
    lhs = count_in_set(P, A)
    lam = lambda_linear(Psi, [A.indicator()] * Psi.t)
    rhs = lam.real * float(p) ** Psi.nvars
    residual = lhs / p**P.nvars - lam.real
    return CountReport(p, lhs, rhs, residual)
