"""Averaged products over polynomial configurations, set counts, and energy.

The workhorse is a blocked grid scan over F_p^D, D = 1, 2 or 3, with two
kernels.  A map P = (P_1, ..., P_t) takes the window kernel when some
variable v (tried in order, first variable first) makes every component
either a row component P_i = v + c_i(rest) or a column component
P_i = c_i(rest), with at least one row component.  The kernel gathers whole
rows f_i(v + c_i) from a window view of the doubled value table and
broadcasts each column value f_i(c_i) along its row, with no modular
reduction in the inner loop.  This covers the progressions x + c_i(y), the
cube, ``cs_system`` and maps such as ``x, x+3`` or ``x, x+y, x^2+y``
(window on y).  Maps with no such variable, such as ``x, x^2``,
``x*y, x+C(y,2), y`` or ``x, x+y, x^2+y^2``, take the generic kernel, which
walks the first variable in blocks of rows and evaluates every component
mod p on those rows of the grid with ``binpoly.grid_values``.  It sums a
product row by row and then over the p row sums.  Bool tables
(``count_in_set``) are combined by logical and into an exact int count,
other tables are multiplied into a complex sum.  Every component, window
rest tables included, goes through ``grid_values``, which needs each
binomial exponent below p; the total degree may reach p.
``torus.character_sum`` is the average of one function, e_p, along its
phase, so it runs on this scan too.  Scans run on one thread; the
``threads`` keyword is accepted for compatibility and ignored.

The averaged product over a system of linear forms is the average over its
image W in F_p^t, so by Fourier duality it is the sum over the annihilator
W^perp of prod_i fhat_i(xi_i), the linear-forms setting of Green and Tao.
``lambda_linear`` reads an F_p basis of W^perp off one elimination mod p, in
any parametrization and at any rank mod p.  It gathers the transforms along
W^perp when W^perp has dimension at most 1, or dimension 2 with at most one
coordinate on which both basis rows are nonzero (a cyclic convolution);
other systems take the grid scan.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import ratlin
from .binpoly import IntPoly, PolyMap, grid_values
from .errors import CostError, ValidationError
from .field import FieldFn, PrimeField, fourier_transform, self_convolution

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
# Largest m with m * m < 2**63: residues mod p multiply in int64 while p - 1 <= m.
_INT64_SQRT = math.isqrt(2**63 - 1)


def _spec_number(kind, text: str, spec: str):
    try:
        return kind(text)
    except ValueError:
        raise ValidationError(f"bad number {text!r} in set spec {spec!r}") from None


def _pow_mod(x: np.ndarray, k: int, p: int) -> np.ndarray:
    """x^k mod p elementwise by square-and-multiply.

    x is an int64 array with entries in [0, p), and p - 1 <= _INT64_SQRT.
    """
    out = np.ones_like(x)
    base = x.copy()
    while k:
        if k & 1:
            np.multiply(out, base, out=out)
            np.remainder(out, p, out=out)
        k >>= 1
        if k:
            np.multiply(base, base, out=base)
            np.remainder(base, p, out=base)
    return out


class SetF:
    """A subset of F_p, held as one read-only boolean table of length p."""

    __slots__ = ("field", "_table", "_size")

    def __init__(self, field: PrimeField, members):
        self.field = field
        table = np.zeros(field.p, dtype=bool)
        if isinstance(members, np.ndarray) and members.dtype.kind in "iu":
            table[members % field.p] = True
        else:
            table[np.array([int(x) % field.p for x in members], dtype=np.int64)] = True
        table.setflags(write=False)
        self._table = table
        self._size = int(np.count_nonzero(table))

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
            return cls(field, np.flatnonzero(rng.random(p) < density))
        if kind == "residues" and len(parts) == 2:
            k = _spec_number(int, parts[1], spec)
            if k < 1:
                raise ValidationError("residue power must be >= 1")
            if p - 1 > _INT64_SQRT:
                raise CostError(f"residue sets need (p - 1)^2 < 2^63, got p = {p}")
            # x^k = x^(k mod (p-1)) for every unit x (Fermat)
            return cls(field, _pow_mod(np.arange(1, p, dtype=np.int64), k % (p - 1), p))
        if kind == "interval" and len(parts) == 3:
            a, b = _spec_number(int, parts[1], spec), _spec_number(int, parts[2], spec)
            if b < a:
                raise ValidationError("interval needs a <= b")
            # an interval of p or more integers covers F_p
            return cls(field, a % p + np.arange(min(b - a + 1, p), dtype=np.int64))
        if kind == "members" and len(parts) == 2:
            return cls(field, [_spec_number(int, v, spec) for v in parts[1].split(",")])
        raise ValidationError(f"unrecognized set spec {spec!r}")

    @property
    def members(self) -> tuple[int, ...]:
        """The elements in increasing order, as Python ints."""
        return tuple(np.flatnonzero(self._table).tolist())

    @property
    def density(self) -> float:
        return self._size / self.field.p

    def __len__(self):
        return self._size

    def __contains__(self, x):
        return bool(self._table[int(x) % self.field.p])

    def indicator(self) -> FieldFn:
        return FieldFn(self.field, self._table)

    def bool_table(self) -> np.ndarray:
        """The read-only membership table: entry x is True iff x is in the set."""
        return self._table


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
# Grid elements handled per block by the generic kernel (at least one row).
_GENERIC_BLOCK = 1 << 21


def _window_plan(P: PolyMap, p: int):
    """Window layout (v, rows, cols) of an integer-valued P, or None.

    v is the first variable in which every component is either a row
    component v + c_i(rest) (its only v term is v itself, coefficient 1) or a
    column component c_i(rest) (no v term), with at least one row component.
    rows and cols list (i, table of c_i mod p on the rest grid) in component
    order.
    """
    if not P.is_integer_valued:
        return None
    D = P.nvars
    for v in range(D):
        unit = tuple(int(j == v) for j in range(D))
        vterms = [{idx: c for idx, c in comp.numerators.items() if idx[v]} for comp in P.components]
        if not any(vterms) or any(t and t != {unit: 1} for t in vterms):
            continue
        rest_vars = P.variables[:v] + P.variables[v + 1 :]
        rows, cols = [], []
        for i, (comp, t) in enumerate(zip(P.components, vterms)):
            rest = {idx[:v] + idx[v + 1 :]: c for idx, c in comp.numerators.items() if not idx[v]}
            (rows if t else cols).append((i, grid_values(IntPoly._new(rest_vars, rest), p).ravel()))
        return v, rows, cols
    return None


def _scan_window(rows, cols, p: int, tables):
    """Sum over v and rest of prod_i f_i(P_i), gathering whole rows.

    Row c of the window view of the doubled table [f, f] is f(v + c) for
    v = 0..p-1, so one gather per rest point fetches a row component's whole
    v-axis; a column component's value f_i(c_i(rest)) is gathered once per
    rest point and broadcast along the row.
    """
    (win0, sh0), *windows = [
        (np.lib.stride_tricks.sliding_window_view(np.concatenate([tables[i], tables[i]]), p), sh)
        for i, sh in rows
    ]
    cols = [(tables[i], c) for i, c in cols]
    step = max(1, _WINDOW_BLOCK // p)
    count = win0.dtype == bool
    op = np.logical_and if count else np.multiply
    parts = []
    # Each gathered block is folded into acc at once: keeping a second
    # gathered block alive (say, through a generator or a local name)
    # measured several times slower, as freed blocks went back to the OS.
    for lo in range(0, sh0.size, step):
        acc = win0[sh0[lo : lo + step]]
        for win, sh in windows:
            op(acc, win[sh[lo : lo + step]], out=acc)
        for tab, c in cols:
            op(acc, tab[c[lo : lo + step], None], out=acc)
        parts.append(int(np.count_nonzero(acc)) if count else complex(acc.sum()))
    if count:
        return sum(parts)
    return complex(math.fsum(v.real for v in parts), math.fsum(v.imag for v in parts))


def _scan_generic(P: PolyMap, p: int, tables):
    """Blocked over rows of the first variable, dense over the rest of the grid.

    A product is summed row by row and then over the p row sums, so the
    order of the sum does not depend on the block size.
    """
    rows = max(1, _GENERIC_BLOCK // p ** (P.nvars - 1))
    count = tables[0].dtype == bool
    op = np.logical_and if count else np.multiply
    total = 0
    sums = np.empty(p, dtype=complex)
    for lo in range(0, p, rows):
        acc = tables[0][grid_values(P.components[0], p, lo, lo + rows)]
        for comp, tab in zip(P.components[1:], tables[1:]):
            op(acc, tab[grid_values(comp, p, lo, lo + rows)], out=acc)
        if count:
            total += int(np.count_nonzero(acc))
        else:
            np.sum(acc, axis=1, out=sums[lo : lo + rows])
    return total if count else complex(np.sum(sums))


def _scan_blocks(P: PolyMap, p: int, tables):
    D = P.nvars
    t = P.t
    if not 1 <= D <= 3:
        raise ValidationError("grid scans support 1 to 3 parameters")
    if p**D * t > _GRID_BUDGET:
        raise CostError(f"grid of size p^{D} * {t} exceeds the scan budget")
    if not P.is_integer_valued:
        raise ValidationError("components must be integer valued")
    plan = _window_plan(P, p)
    if plan is not None:
        _, rows, cols = plan
        return _scan_window(rows, cols, p, tables)
    return _scan_generic(P, p, tables)


def _functions(fs, t: int):
    """The list of t functions over one prime p, and p."""
    fs = list(fs)
    if len(fs) != t:
        raise ValidationError(f"need {t} functions, got {len(fs)}")
    p = fs[0].p
    if any(f.p != p for f in fs):
        raise ValidationError("functions live over different primes")
    return fs, p


def lambda_P(P: PolyMap, fs, threads: int | None = None) -> complex:
    """E_x f_1(P_1(x)) ... f_t(P_t(x)) over x in F_p^D, each binomial exponent of P below p.

    ``threads`` is accepted for compatibility and ignored: scans run on one
    thread.
    """
    fs, p = _functions(fs, P.t)
    # the scan multiplies every table into a block gathered from the first, in
    # place, so all share one dtype: float64 when every table is real (set
    # indicators), else complex128
    dtype = np.result_type(*[f.values for f in fs])
    return _scan_blocks(P, p, [f.values.astype(dtype, copy=False) for f in fs]) / p**P.nvars


def count_in_set(P: PolyMap, A: SetF, threads: int | None = None) -> int:
    """Exact number of x in F_p^D with every P_i(x) in A, each binomial exponent of P below p.

    One scan of A's bool table; ``threads`` is ignored.
    """
    return _scan_blocks(P, A.field.p, [A.bool_table()] * P.t)


def additive_energy(A: SetF) -> int:
    """|{(x, y, u, z) in A^4 : x + y = u + z}| = sum_s r(s)^2, exactly.

    r(s) = #{(a, b) in A^2 : a + b = s} is the self-convolution of 1_A mod p
    (``field.self_convolution``, one real FFT pair); each r(s) <= |A| is
    rounded on its own, so no single float rounding decides the sum.  The
    squares are summed in int64 when |A|^3, which bounds the sum, is below
    2^63, and in Python ints otherwise.  Raises ArithmeticError if some r(s)
    lands more than 0.25 from an integer, or if the rounded r(s) do not sum
    to |A|^2.
    """
    p = A.field.p
    raw = self_convolution(A.bool_table())
    r = np.rint(raw)
    if np.max(np.abs(raw - r), initial=0.0) > 0.25:
        raise ArithmeticError(f"sum counts of the set are not near integers at p = {p}")
    counts = r.astype(np.int64)
    n = len(A)
    if int(counts.sum()) != n * n:
        raise ArithmeticError(f"sum counts of the set do not add up to |A|^2 at p = {p}")
    if n**3 < 2**63:
        return int(np.dot(counts, counts))
    return sum(v * v for v in counts.tolist())


# ----------------------------------------------------------------------
# linear systems

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


def _annihilator(V, p: int) -> list[list[int]]:
    """F_p basis of W^perp = {xi : xi . V = 0 mod p}, W the column span of V mod p.

    Gauss-Jordan elimination of V^T mod p; each basis row is 1 on its own
    free coordinate and 0 on the other free coordinates.
    """
    t = len(V)
    R, pivots = [[row[j] % p for row in V] for j in range(len(V[0]))], []
    for col in range(t):
        k = len(pivots)
        piv = next((i for i in range(k, len(R)) if R[i][col]), None)
        if piv is not None:
            R[k], R[piv] = R[piv], R[k]
            inv = pow(R[k][col], -1, p)
            R[k] = [x * inv % p for x in R[k]]
            for i, row in enumerate(R):
                if i != k and row[col]:
                    R[i] = [(x - row[col] * y) % p for x, y in zip(row, R[k])]
            pivots.append(col)
    free = [j for j in range(t) if j not in pivots]
    return [[-R[pivots.index(j)][f] % p if j in pivots else int(j == f) for j in range(t)] for f in free]


def _repivot(U, j: int, k: int, p: int):
    """The basis (u, v) of U's span with (u_j, u_k) = (1, 0) and (v_j, v_k) = (0, 1), or None."""
    a, b, c, d = U[0][j], U[0][k], U[1][j], U[1][k]
    if det := (a * d - b * c) % p:
        inv = pow(det, -1, p)
        cols = list(zip(*U))
        return [[(d * x - b * y) * inv % p for x, y in cols], [(a * y - c * x) * inv % p for x, y in cols]]
    return None


def _mixed(U) -> list[int]:
    """The coordinates on which both rows of U are nonzero."""
    return [i for i, (x, y) in enumerate(zip(*U)) if x and y]


def lambda_linear(Psi: PolyMap, fs, threads: int | None = None) -> complex:
    """Averaged product over a system of linear forms.

    It is the sum over xi in W^perp of prod_i fhat_i(xi_i), W the image mod p.
    For a basis U of W^perp of size c: c = 0 gives prod_i fhat_i(0); c = 1
    sums over the line U spans; c = 2 renormalizes U on the pivot pair that
    leaves the fewest mixed coordinates (both rows nonzero), and with none
    the sum factors, with one it is a cyclic convolution.  Anything else is
    the ``lambda_P`` scan, in at most three parameters.  ``threads`` is ignored.
    """
    t = Psi.t
    fs, p = _functions(fs, t)
    U = _annihilator(_linear_matrix(Psi), p)
    if len(U) == 2:
        pairs = (_repivot(U, j, k, p) for j in range(t) for k in range(j + 1, t))
        U = min([U, *filter(None, pairs)], key=lambda B: len(_mixed(B)))
    if len(U) > 2 or len(U) == 2 and len(_mixed(U)) > 1:
        if Psi.nvars > 3:
            raise CostError("generic linear systems supported for at most 3 parameters")
        return lambda_P(Psi, fs)
    # one transform per distinct function: verify_asymptotic passes one indicator t times
    distinct = {id(f): f for f in fs}
    slot = {key: k for k, key in enumerate(distinct)}
    hats = (fourier_transform(np.stack([f.values for f in distinct.values()])) / p)[[slot[id(f)] for f in fs]]
    a = np.arange(p)

    def line(u, coords):
        # prod over coords i of fhat_i(u_i * a), for every a in F_p
        return math.prod(hats[i][u[i] * a % p] for i in coords)

    if len(U) < 2:
        return complex(np.sum(line(U[0], range(t))) if U else np.prod(hats[:, 0]))
    (u, v), mixed = U, _mixed(U)
    F = line(u, [i for i in range(t) if not v[i]])
    G = line(v, [i for i in range(t) if v[i] and not u[i]])
    if not mixed:
        return complex(np.sum(F) * np.sum(G))
    # sum_{a,b} F(a) G(b) fhat_m(u_m a + v_m b) = E_x f_m(x) FT(F)(u_m x) FT(G)(v_m x)
    (m,) = mixed
    g1, g2 = fourier_transform(np.stack([F, G]))
    return complex(np.mean(fs[m].values * g1[u[m] * a % p] * g2[v[m] * a % p]))


def decompose_via_linear(P: PolyMap):
    """Write P(x) = Psi(Q_1(x), ..., Q_r(x)) with Psi linear.

    Groups the binomial coefficient vectors of P by direction: parallel
    vectors share an inner polynomial.  Returns (Psi, Qs).
    """
    inners: dict[tuple[int, ...], dict] = {}  # primitive direction -> terms of its inner polynomial
    for m, b in P.coefficient_vectors().items():
        if any(b):
            prim = ratlin.integer_primitive(b)
            j = next(i for i, v in enumerate(prim) if v)
            inners.setdefault(prim, {})[m] = Fraction(b[j], prim[j])
    dirs = list(inners)
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
    Qs = [IntPoly(P.variables, terms) for terms in inners.values()]
    return Psi, Qs


def verify_asymptotic(
    P: PolyMap, A: SetF, Psi: PolyMap | None = None, threads: int | None = None
) -> CountReport:
    """Compare the configuration count in A against its linear-system model.

    The model predicts count(P in A)/p^D ~ count(Psi in A)/p^r; the report
    carries the difference of the two normalized densities as ``residual``.
    P factors through Psi when its coefficient vectors leave the rank of the
    columns of Psi's matrix unchanged.  The model runs before the p^D count,
    so a model over budget costs no scan.  ``threads`` is ignored.
    """
    p = A.field.p
    if Psi is None:
        Psi, _ = decompose_via_linear(P)
    cols = list(zip(*_linear_matrix(Psi)))
    vecs = list(P.coefficient_vectors().values())
    if len(ratlin.echelon(cols)[1]) != len(ratlin.echelon(cols + vecs)[1]):
        raise ValidationError("map does not factor through the given linear system")
    lam = lambda_linear(Psi, [A.indicator()] * Psi.t)
    lhs = count_in_set(P, A)
    rhs = lam.real * float(p) ** Psi.nvars
    residual = lhs / p**P.nvars - lam.real
    return CountReport(p, lhs, rhs, residual)
