"""Averaged products over polynomial configurations, set counts, and energy.

The workhorse is a blocked grid scan over F_p^D, D = 1, 2 or 3, with two
kernels.  A map P = (P_1, ..., P_t) takes the window kernel when some
variable v (tried in order, first variable first) makes every component
either a row component P_i = v + c_i(rest) or a column component
P_i = c_i(rest), with at least one row component.  The kernel gathers whole
rows f_i(v + c_i) from a window view of the doubled value table and
broadcasts each column value f_i(c_i) along its row, with no modular
reduction in the inner loop.  This covers the progressions x + c_i(y),
``cs_system`` and maps such as ``x, x+3`` or ``x, x+y, x^2+y`` (window on
y).  Maps with no such variable, such as ``x, x^2``,
``x*y, x+C(y,2), y`` or ``x, x+y, x^2+y^2``, take the generic kernel, which
walks the first variable in blocks of rows and evaluates every component
mod p on those rows of the grid with ``binpoly.grid_values``.  It sums a
product row by row and then over the p row sums.  Bool tables
(``count_in_set``) give an exact int count, other tables are multiplied into
a complex sum.  The window kernel packs each bool table once into uint64
words, one copy of the doubled table per bit offset that its row shifts use,
so a shifted row is one gather of ceil(p/64) words; it ANDs the rows and
counts the set bits by popcount.  The generic kernel combines bool tables by
logical and.  Every component, window rest tables included, goes through
``grid_values``, which needs each binomial exponent below p; the total
degree may reach p.  ``torus`` sums characters on its own phase tables, in
the generic kernel's row order.  Scans run on one thread; the ``threads``
keyword is accepted for compatibility and ignored.

``lambda_P`` and ``count_in_set`` choose the route from the map.  A linear
map with integer coefficients and zero constants is a system of linear forms,
whose average is the average over its image W in F_p^t, the linear-forms
setting of Green and Tao.  ``_dual_basis`` reads an F_p basis of W^perp off
one elimination mod p, in any parametrization and at any rank mod p.  When
W^perp has dimension at most 1, or dimension 2 with at most one coordinate on
which both basis rows are nonzero, one contraction (``_contract``) sums
prod_i f_i(w_i) over W from dilated tables and convolutions of the two halves
of each constraint; other systems, and every other map, take the grid scan.
As in the scan, the tables decide the arithmetic.  The int64 tables of a set
count exactly, each convolution rounded under one guard and checked against
its total, so ``count_in_set`` of such a system is the exact integer
|A^t cap W| * p^(D - dim W), the linear model that ``verify_asymptotic``
reports, and ``additive_energy`` is that count for x + y - u - z = 0.
``lambda_P`` passes complex tables, one per distinct function, which sum in
floats; ``lambda_linear`` is its alias for linear maps.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import ratlin
from .binpoly import IntPoly, PolyMap, grid_values
from .errors import CostError, ValidationError
from .field import FieldFn, PrimeField, _convolution, _membership_table, self_convolution

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
    """A subset of F_p, held as one read-only boolean table of length p.

    ``members`` lists the elements, read as integers mod p, or is a bool
    array, list or tuple of length p, read as the membership table.
    """

    __slots__ = ("field", "_table", "_size")

    def __init__(self, field: PrimeField, members):
        self.field = field
        table = _membership_table(field.p, members)
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
            return cls(field, rng.random(p) < density)
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
    """One prime's row of ``verify_asymptotic``.

    ``lhs_count`` is the exact count of P in A over F_p^D and ``rhs_model``
    the exact count of its linear system Psi in A over F_p^r, both ints;
    ``residual`` is lhs_count/p^D - rhs_model/p^r in exact fractions,
    rounded once to a float.
    """

    p: int
    lhs_count: int
    rhs_model: int
    residual: float


# ----------------------------------------------------------------------
# grid scan machinery

# Per block of the window kernel: uint64 words of packed rows for bool
# tables, grid elements for other tables (whose sum order it fixes).
_WINDOW_BLOCK = 1 << 15
# Grid elements handled per block by the generic kernel (at least one row).
_GENERIC_BLOCK = 1 << 21
_ONES = np.uint64(2**64 - 1)
# Set bits of each byte value, for popcounts without np.bitwise_count.
_BYTE_BITS = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def _popcount_bytes(words: np.ndarray) -> int:
    """Set bits in a C-contiguous uint64 array, by one table lookup per byte."""
    return int(_BYTE_BITS[words.view(np.uint8)].sum(dtype=np.int64))


def _popcount(words: np.ndarray) -> int:
    """Set bits in a C-contiguous uint64 array (np.bitwise_count needs numpy >= 2.0)."""
    if hasattr(np, "bitwise_count"):
        return int(np.bitwise_count(words).sum(dtype=np.int64))
    return _popcount_bytes(words)


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


def _packed_window(table: np.ndarray, offsets: np.ndarray, W: int, Q: int) -> tuple[np.ndarray, np.ndarray]:
    """Window view of W uint64 words over the doubled bool table [f, f], bit packed, and each copy's first view row.

    Each bit offset b marked in the 64 bools ``offsets`` gets copy number
    slot[b], holding bits b, b+1, ... of [f, f] in Q words (zero past its
    end), bit j of a word being its j-th bit; the copies lie end to end.
    View row start[b] + q = slot[b]*Q + q is words q..q+W-1 of copy b, the
    bits starting at c = 64*q + b, whose first p are f(v + c), v = 0..p-1.
    """
    p = table.size
    bits = np.zeros(64 * (Q + 1), dtype=bool)
    bits[:p] = table
    bits[p : 2 * p] = table
    doubled = np.packbits(bits, bitorder="little").view("<u8").astype(np.uint64)
    b = np.flatnonzero(offsets).astype(np.uint64)[:, None]
    # copy b's word k is bits b.. of word k and 0..b-1 of word k+1; the second
    # shift is split in two so that b = 0 shifts by 64 without overflow
    words = (doubled[:Q] >> b) | ((doubled[1:] << (np.uint64(63) - b)) << np.uint64(1))
    return np.lib.stride_tricks.sliding_window_view(words.ravel(), W), (np.cumsum(offsets) - 1) * Q


def _scan_window(rows, cols, p: int, tables):
    """Sum over v and rest of prod_i f_i(P_i), gathering whole rows.

    Row c of the window view of the doubled table [f, f] is f(v + c) for
    v = 0..p-1, so one gather per rest point fetches a row component's whole
    v-axis; a column component's value f_i(c_i(rest)) is gathered once per
    rest point and broadcast along the row.  Bool tables are counted on
    bit-packed rows (``_count_packed``); other tables are multiplied.
    """
    if tables[0].dtype == bool:
        return _count_packed(rows, cols, p, tables)
    (win0, sh0), *windows = [
        (np.lib.stride_tricks.sliding_window_view(np.concatenate([tables[i], tables[i]]), p), sh)
        for i, sh in rows
    ]
    cols = [(tables[i], c) for i, c in cols]
    step = max(1, _WINDOW_BLOCK // p)
    parts = []
    # Each gathered block is folded into acc at once: keeping a second
    # gathered block alive (say, through a generator or a local name)
    # measured several times slower, as freed blocks went back to the OS.
    for lo in range(0, sh0.size, step):
        acc = win0[sh0[lo : lo + step]]
        for win, sh in windows:
            np.multiply(acc, win[sh[lo : lo + step]], out=acc)
        for tab, c in cols:
            np.multiply(acc, tab[c[lo : lo + step], None], out=acc)
        parts.append(complex(acc.sum()))
    return complex(math.fsum(v.real for v in parts), math.fsum(v.imag for v in parts))


def _count_packed(rows, cols, p: int, tables) -> int:
    """Exact count of the grid points at which every bool table reads True.

    A row of p bits is W = ceil(p/64) uint64 words.  Each distinct table is
    packed once (``_packed_window``), at the bit offsets c & 63 of its row
    shifts c, so a row component's shifted row is one gather of view row
    start[c & 63] + (c >> 6).  A column component's value becomes a word of
    all ones or all zeros; the rows are ANDed, masked past bit p and
    popcounted.
    """
    W = -(-p // 64)
    Q = (p - 1) // 64 + W
    packed = {}  # id(table) -> (table, marked bit offsets)
    for i, sh in rows:
        table, offsets = packed.setdefault(id(tables[i]), (tables[i], np.zeros(64, dtype=bool)))
        offsets[sh & 63] = True
    views = {key: _packed_window(table, offsets, W, Q) for key, (table, offsets) in packed.items()}
    (win0, sh0), *others = [(views[id(tables[i])], sh) for i, sh in rows]
    cols = [(tables[i], c) for i, c in cols]
    tail = np.uint64((1 << (p - 64 * (W - 1))) - 1)
    step = max(1, _WINDOW_BLOCK // W)

    # view rows per block: whole-scan index arrays, fresh rest-grid-sized allocations, measured slower
    def gather(win, sh, lo):
        view, start = win
        s = sh[lo : lo + step]
        return view[start[s & 63] + (s >> 6)]

    total = 0
    for lo in range(0, sh0.size, step):
        acc = gather(win0, sh0, lo)
        for win, sh in others:
            np.bitwise_and(acc, gather(win, sh, lo), out=acc)
        for tab, c in cols:
            np.bitwise_and(acc, tab[c[lo : lo + step], None].astype(np.uint64) * _ONES, out=acc)
        acc[:, -1] &= tail
        total += _popcount(acc)
    return total


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

    A linear map whose W^perp ``_dual_basis`` contracts is the ``_contract``
    of complex tables, one per distinct function, over |W| = p^(t - c), W
    the image of P mod p and c the dimension of W^perp; any other map is the
    grid scan, in at most three parameters.  ``threads`` is accepted for
    compatibility and ignored: scans run on one thread.
    """
    fs, p = _functions(fs, P.t)
    U = _dual_basis(P, p)
    if U is not None:
        wide = {id(f): f.values.astype(np.complex128, copy=False) for f in fs}
        return complex(_contract([wide[id(f)] for f in fs], U)) / p ** (P.t - len(U))
    # the scan multiplies every table into a block gathered from the first, in
    # place, so all share one dtype: float64 when every table is real (set
    # indicators), else complex128
    dtype = np.result_type(*[f.values for f in fs])
    return _scan_blocks(P, p, [f.values.astype(dtype, copy=False) for f in fs]) / p**P.nvars


def count_in_set(P: PolyMap, A: SetF, threads: int | None = None) -> int:
    """Exact number of x in F_p^D with every P_i(x) in A, each binomial exponent of P below p.

    A linear map whose W^perp ``_dual_basis`` contracts is counted as
    |A^t cap W| * p^(D - dim W), the first factor the ``_contract`` of 1_A in
    int64; any other map is one scan of A's bool table.  ``threads`` is
    ignored.
    """
    p = A.field.p
    U = _dual_basis(P, p)
    if U is None:
        return _scan_blocks(P, p, [A.bool_table()] * P.t)
    return _contract([A.bool_table().astype(np.int64)] * P.t, U) * p ** (P.nvars - P.t + len(U))


def additive_energy(A: SetF) -> int:
    """|{(x, y, u, z) in A^4 : x + y = u + z}| = sum_s r(s)^2, exactly.

    It is the exact count of the system x + y - u - z = 0 in A (see
    ``_contract``): both halves of the constraint are r(s) = #{(a, b) in A^2 :
    a + b = s}, one ``field.self_convolution`` of 1_A, rounded entry by entry
    and checked against sum_s r(s) = |A|^2, so no single float rounding decides
    the sum.  Raises ArithmeticError if that check fails.
    """
    p = A.field.p
    return _contract([A.bool_table().astype(np.int64)] * 4, [[1, 1, p - 1, p - 1]])


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


def _dual_basis(Psi: PolyMap, p: int):
    """A basis U of W^perp that the annihilator routes contract, or None for the grid scan.

    W is the image of Psi mod p and c = len(U).  c <= 1 is contracted, and so
    is c = 2 once U is renormalized on the pivot pair that leaves the fewest
    mixed coordinates, if that leaves at most one.  A map that is not linear
    with integer coefficients and zero constants returns None; other linear
    systems return None, or raise CostError beyond three parameters, which
    the scan cannot take.
    """
    try:
        V = _linear_matrix(Psi)
    except ValidationError:
        return None
    t = Psi.t
    U = _annihilator(V, p)
    if len(U) == 2:
        pairs = (_repivot(U, j, k, p) for j in range(t) for k in range(j + 1, t))
        U = min([U, *filter(None, pairs)], key=lambda B: len(_mixed(B)))
    if len(U) > 2 or len(U) == 2 and len(_mixed(U)) > 1:
        if Psi.nvars > 3:
            raise CostError("generic linear systems supported for at most 3 parameters")
        return None
    return U


def _rounded(raw: np.ndarray, total: int, p: int) -> np.ndarray:
    """The int64 counts r that a float convolution of counts over A^k stands for, summing to total = |A|^k.

    Raises ArithmeticError if some entry lies more than 0.25 from an integer,
    or if the rounded r do not sum to total.
    """
    r = np.rint(raw)
    if np.max(np.abs(raw - r), initial=0.0) > 0.25:
        raise ArithmeticError(f"sum counts of the set are not near integers at p = {p}")
    counts = r.astype(np.int64)
    if int(counts.sum()) != total:
        raise ArithmeticError(f"sum counts of the set do not add up to |A|^k = {total} at p = {p}")
    return counts


def _dot(x: np.ndarray, y: np.ndarray):
    """sum_s x(s) y(s); nonnegative int64 counts stay in int64 while max(x) * sum(y) < 2^63 bounds it."""
    if x.dtype != np.int64 or int(x.max(initial=0)) * int(y.sum()) < 2**63:
        return np.dot(x, y).item()
    return sum(map(operator.mul, x.tolist(), y.tolist()))


def _contract(tables, U):
    """sum over w in F_p^t with u . w = 0 mod p for every row u of U of prod_i tables[i][w_i].

    U is a basis of W^perp as ``_dual_basis`` gives it.  r_c(s), the sum of
    prod_i f_i(w_i) over sum_i c_i w_i = s, is the dilated table f(s / c) for
    one coefficient, else the convolution of the r of the two halves of c,
    keyed by sorted (coefficient, distinct table) pairs so that each distinct
    half is convolved once.  A constraint u is sum_s r_L(s) r_R(s), its
    support sorted and split into L and the negated rest R.  Two constraints
    multiply, or with one mixed coordinate m are sum_a f_m(a) r_u'(-u_m a)
    r_v'(-v_m a), u' and v' the rows without m.  Each coordinate outside
    every support is a factor sum_x f_i(x).

    The tables decide the arithmetic: complex tables sum in floats, and int64
    tables (1_A) count exactly, each convolution (``field.self_convolution``
    when the halves agree) rounded under a 0.25 guard and checked against
    the product of the half's table sums, |A|^k.  That needs |A|^k < 2^53,
    so that float64 holds every count exactly and the guard can see an
    error; past it, CostError is raised before the convolution.
    """
    p = tables[0].size
    exact = tables[0].dtype == np.int64
    slot = {}
    of = [slot.setdefault(id(f), len(slot)) for f in tables]  # each coordinate's distinct table
    distinct = list({id(f): f for f in tables}.values())

    @functools.cache
    def total(k: int):  # sum_x f(x) of a distinct table, taken only where it is used
        return distinct[k].sum().item()

    def key(u, skip=None) -> tuple[tuple[int, int], ...]:
        return tuple(sorted((c, of[i]) for i, c in enumerate(u) if c and i != skip))

    @functools.cache
    def r(c: tuple[tuple[int, int], ...]) -> np.ndarray:
        if len(c) == 1:  # r(s) = f(s / c)
            ((a, k),) = c
            return distinct[k] if a == 1 else distinct[k][pow(a, -1, p) * np.arange(p) % p]
        h = (len(c) + 1) // 2
        if not exact:
            return _convolution(r(c[:h]), r(c[h:]))
        size = math.prod(total(k) for _, k in c)
        if size >= 2**53:
            raise CostError(f"counts of {len(c)}-term sums in A reach 2^53, past float64's exact integers")
        x, y = r(c[:h]), r(c[h:])
        return _rounded(self_convolution(x) if x is y else _convolution(x, y), size, p)

    def constraint(u):
        c = key(u)
        if len(c) == 1:  # u_i w_i = 0 means w_i = 0
            return distinct[c[0][1]][0].item()
        h = (len(c) + 1) // 2
        return _dot(r(c[:h]), r(tuple(sorted((-a % p, k) for a, k in c[h:]))))

    support = {i for u in U for i, c in enumerate(u) if c}
    free = math.prod(total(k) for i, k in enumerate(of) if i not in support)
    mixed = _mixed(U) if len(U) == 2 else []
    if not mixed:
        return free * math.prod(map(constraint, U))
    (u, v), (m,) = U, mixed
    a = np.arange(p)
    return free * _dot(tables[m] * r(key(u, m))[-u[m] * a % p], r(key(v, m))[-v[m] * a % p])


def lambda_linear(Psi: PolyMap, fs, threads: int | None = None) -> complex:
    """``lambda_P`` of a map that must be linear with integer coefficients and zero constants.

    Kept as a public alias; ``threads`` is ignored.
    """
    _linear_matrix(Psi)
    return lambda_P(Psi, fs)


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
    carries count(Psi in A) as the int ``rhs_model``, counted exactly by
    ``count_in_set``, and the difference of the two normalized counts,
    taken in exact fractions and rounded once, as ``residual``.  P factors
    through Psi when its coefficient vectors leave the rank of the columns
    of Psi's matrix unchanged.  The model runs before the p^D count, so a
    model over budget costs no scan.  ``threads`` is ignored.
    """
    p = A.field.p
    if Psi is None:
        Psi, _ = decompose_via_linear(P)
    if Psi.t != P.t:
        raise ValidationError(f"the linear system has {Psi.t} components, the map {P.t}")
    cols = list(zip(*_linear_matrix(Psi)))
    vecs = list(P.coefficient_vectors().values())
    if len(ratlin.echelon(cols)[1]) != len(ratlin.echelon(cols + vecs)[1]):
        raise ValidationError("map does not factor through the given linear system")
    model = count_in_set(Psi, A)
    lhs = count_in_set(P, A)
    return CountReport(p, lhs, model, float(Fraction(lhs, p**P.nvars) - Fraction(model, p**Psi.nvars)))
