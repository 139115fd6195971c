"""Exact multivariate polynomial algebra in the binomial-coefficient basis.

Polynomials are stored as rational linear combinations of products
C(x_1, i_1) * ... * C(x_D, i_D).  A polynomial maps integer points to
integers exactly when every stored coefficient is an integer, which is
the property the rest of the package leans on.  Each polynomial keeps
Python-int numerators over one common denominator in lowest terms, so all
arithmetic runs exactly on integers and the denominator is 1 exactly for
integer-valued polynomials; ``terms`` gives the coefficients as
``fractions.Fraction``.  Nothing in this module touches floats.

``binom_powers`` gives C(P, 0..l) from two exact identities, and runs the
recurrence C(P, r) = C(P, r-1) * (P - r + 1) / r only on the parts they
cannot split.  First, from l = 4 on (below it the recurrence on all of P is
faster), a P with at least two groups of terms that share no variable is
its constant plus those groups; each part runs the recurrence on its own
(the constant as a polynomial in no variables), and the powers of a sum
A + B of such parts are C(A + B, l) = sum_a C(A, a) * C(B, l - a)
(Vandermonde), where each product of polynomials in disjoint variables only
adds multi-indices.
Second, in a polynomial map, C(x, k) vanishes at x = 0 for k >= 1, so a
component that is another component at zero on the variables it lacks
takes that component's powers at zero there; every component of
``cs_system`` is such a restriction of the all-ones component.  Every power
keeps the normal form, so it is the same state that the recurrence alone
gives.

``grid_values`` is the package's one evaluator of a polynomial mod p on the
grid F_p^k, in blocks of rows of the first variable; the grid scans and the
torus character sums both go through it.
"""
from __future__ import annotations

import ast
import math
import re
from fractions import Fraction
from functools import lru_cache
from itertools import product as _cartesian
from operator import itemgetter

import numpy as np

from .errors import ValidationError

__all__ = [
    "binom_int",
    "IntPoly",
    "PolyMap",
    "parse_poly",
    "parse_polymap",
    "binom_power",
    "binom_powers",
    "compose",
    "cs_system",
    "binom_table_mod",
    "grid_values",
]


def binom_int(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) for any integer n and k >= 0.

    Negative n uses C(n, k) = (-1)^k C(k - n - 1, k).
    """
    if k < 0:
        return 0
    if n >= 0:
        return math.comb(n, k)
    return (-1) ** k * math.comb(k - n - 1, k)


@lru_cache(maxsize=None)
def _univ_product(a: int, b: int) -> tuple[tuple[int, int], ...]:
    # C(x,a) * C(x,b) = sum_k C(k,a) * C(a, k-b) * C(x,k), max(a,b) <= k <= a+b
    out = []
    for k in range(max(a, b), a + b + 1):
        c = math.comb(k, a) * math.comb(a, k - b)
        if c:
            out.append((k, c))
    return tuple(out)


@lru_cache(maxsize=None)
def _multi_product(i: tuple[int, ...], j: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    partials = [((), 1)]
    for a, b in zip(i, j):
        rule = _univ_product(a, b)
        partials = [(idx + (k,), c * m) for idx, c in partials for k, m in rule]
    return tuple(partials)


def _add_product(acc: dict, x: dict, y: dict) -> dict:
    """Add the product of the binomial-basis numerator dicts x and y into acc, in place, and return acc."""
    get = acc.get
    for i, a in x.items():
        for j, b in y.items():
            w = a * b
            for idx, m in _multi_product(i, j):
                acc[idx] = get(idx, 0) + w * m
    return acc


def _graded(keys) -> list[tuple[int, ...]]:
    """Multi-indices by total degree, then in descending lexicographic order."""
    return sorted(sorted(keys, reverse=True), key=sum)


class IntPoly:
    """A polynomial over named variables, held in the binomial basis.

    The state is in normal form: ``numerators`` maps each multi-index to a
    nonzero Python int, over one positive ``denominator``, and the
    denominator shares no factor with all the numerators.  So the
    denominator is 1 exactly when the polynomial is integer valued, and
    equal polynomials have equal state.  Treat both as read-only.
    """

    __slots__ = ("variables", "numerators", "denominator", "_terms")

    def __init__(self, variables, terms):
        variables = tuple(variables)
        clean: dict[tuple[int, ...], Fraction] = {}
        nv = len(variables)
        for idx, c in terms.items():
            idx = tuple(int(e) for e in idx)
            if len(idx) != nv or any(e < 0 for e in idx):
                raise ValidationError(f"bad exponent index {idx} for {nv} variables")
            clean[idx] = clean.get(idx, 0) + Fraction(c)
        den = math.lcm(*(c.denominator for c in clean.values()))
        self._set(variables, {i: c.numerator * (den // c.denominator) for i, c in clean.items()}, den)

    def _set(self, variables, numerators, denominator):
        """Store sum_idx numerators[idx] / denominator * C(x, idx) in normal form."""
        num = {i: c for i, c in numerators.items() if c}
        if denominator != 1:
            g = math.gcd(denominator, *num.values())
            if g > 1:
                num = {i: c // g for i, c in num.items()}
                denominator //= g
        self.variables = variables
        self.numerators = num
        self.denominator = denominator
        self._terms = None
        return self

    @classmethod
    def _new(cls, variables, numerators, denominator=1) -> "IntPoly":
        return object.__new__(cls)._set(variables, numerators, denominator)

    # -- constructors ------------------------------------------------
    @classmethod
    def zero(cls, variables):
        return cls._new(tuple(variables), {})

    @classmethod
    def constant(cls, variables, c):
        variables = tuple(variables)
        c = Fraction(c)
        return cls._new(variables, {(0,) * len(variables): c.numerator}, c.denominator)

    @classmethod
    def variable(cls, variables, name):
        variables = tuple(variables)
        if name not in variables:
            raise ValidationError(f"unknown variable {name!r}")
        idx = [0] * len(variables)
        idx[variables.index(name)] = 1
        return cls._new(variables, {tuple(idx): 1})

    # -- basic queries -----------------------------------------------
    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        """{multi-index: Fraction coefficient}, built on first use; read-only."""
        if self._terms is None:
            den = self.denominator
            self._terms = {i: Fraction(c, den) for i, c in self.numerators.items()}
        return self._terms

    @property
    def nvars(self) -> int:
        return len(self.variables)

    @property
    def degree(self) -> int:
        """Total degree; 0 for the zero or constant polynomial."""
        return max((sum(i) for i in self.numerators), default=0)

    @property
    def is_zero(self) -> bool:
        return not self.numerators

    @property
    def is_integer_valued(self) -> bool:
        return self.denominator == 1

    @property
    def constant_term(self) -> Fraction:
        return self.coeff((0,) * self.nvars)

    def coeff(self, idx) -> Fraction:
        return Fraction(self.numerators.get(tuple(idx), 0), self.denominator)

    def sorted_terms(self):
        """Terms by total degree, then in descending lexicographic order."""
        terms = self.terms
        return [(i, terms[i]) for i in _graded(terms)]

    # -- arithmetic --------------------------------------------------
    def _check_compatible(self, other: "IntPoly"):
        if self.variables != other.variables:
            raise ValidationError(
                f"variable mismatch: {self.variables} vs {other.variables}"
            )

    def _plus(self, other, sign: int) -> "IntPoly":
        """self + sign * other over the least common denominator."""
        if isinstance(other, (int, Fraction)):
            other = IntPoly.constant(self.variables, other)
        self._check_compatible(other)
        den = math.lcm(self.denominator, other.denominator)
        a = den // self.denominator
        b = sign * (den // other.denominator)
        out = {i: c * a for i, c in self.numerators.items()} if a != 1 else dict(self.numerators)
        for i, c in other.numerators.items():
            out[i] = out.get(i, 0) + c * b
        return IntPoly._new(self.variables, out, den)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return IntPoly._new(self.variables, {i: -c for i, c in self.numerators.items()}, self.denominator)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def _scaled(self, n: int, d: int) -> "IntPoly":
        """self * n / d for integers n and d > 0."""
        num = {i: c * n for i, c in self.numerators.items()} if n != 1 else self.numerators
        return IntPoly._new(self.variables, num, self.denominator * d)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return self._scaled(c.numerator, c.denominator)
        self._check_compatible(other)
        out = _add_product({}, self.numerators, other.numerators)
        return IntPoly._new(self.variables, out, self.denominator * other.denominator)

    __rmul__ = __mul__

    def __truediv__(self, other):
        c = Fraction(other)
        if not c:
            raise ValidationError("division by zero")
        if c < 0:
            return self._scaled(-c.denominator, -c.numerator)
        return self._scaled(c.denominator, c.numerator)

    def __pow__(self, e: int):
        if isinstance(e, bool) or not isinstance(e, int) or e < 0:
            raise ValidationError("exponents must be nonnegative integers")
        out = IntPoly.constant(self.variables, 1)
        for _ in range(e):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, IntPoly):
            return NotImplemented
        return (
            self.variables == other.variables
            and self.denominator == other.denominator
            and self.numerators == other.numerators
        )

    def __hash__(self):
        return hash((self.variables, self.denominator, frozenset(self.numerators.items())))

    # -- evaluation --------------------------------------------------
    def __call__(self, *point) -> Fraction:
        if len(point) == 1 and isinstance(point[0], (tuple, list)):
            point = tuple(point[0])
        if len(point) != self.nvars:
            raise ValidationError(f"expected {self.nvars} coordinates")
        total = 0
        for idx, c in self.numerators.items():
            for x, i in zip(point, idx):
                c *= binom_int(int(x), i)
            total += c
        return Fraction(total, self.denominator)

    def eval_mod_table(self, p: int) -> np.ndarray:
        """Values of the polynomial mod p at x = 0..p-1 (univariate only)."""
        if self.nvars != 1:
            raise ValidationError("eval_mod_table needs a univariate polynomial")
        return grid_values(self, p).ravel()

    def split_outer(self, outer: int):
        """Group terms by the exponents of the first ``outer`` variables.

        Returns {outer_index_tuple: IntPoly in the remaining variables}.
        """
        if not 0 < outer < self.nvars:
            raise ValidationError("outer must leave at least one inner variable")
        inner_vars = self.variables[outer:]
        groups: dict[tuple[int, ...], dict] = {}
        for idx, c in self.numerators.items():
            o, i = idx[:outer], idx[outer:]
            groups.setdefault(o, {})[i] = c
        return {o: IntPoly._new(inner_vars, t, self.denominator) for o, t in groups.items()}

    # -- basis conversion --------------------------------------------
    def monomial_coeffs(self) -> dict[tuple[int, ...], Fraction]:
        """Coefficients in the ordinary power basis x^e."""
        out: dict[tuple[int, ...], Fraction] = {}
        for idx, c in self.terms.items():
            factors = [_binom_monomial(i) for i in idx]
            for combo in _cartesian(*[range(len(f)) for f in factors]):
                w = c
                for f, e in zip(factors, combo):
                    w *= f[e]
                if w:
                    out[combo] = out.get(combo, Fraction(0)) + w
        return {k: v for k, v in out.items() if v}

    @classmethod
    def from_monomials(cls, variables, coeffs) -> "IntPoly":
        variables = tuple(variables)
        out = cls.zero(variables)
        gens = [cls.variable(variables, v) for v in variables]
        for idx, c in coeffs.items():
            term = cls.constant(variables, c)
            for g, e in zip(gens, idx):
                term = term * g ** e
            out = out + term
        return out

    # -- serialization -----------------------------------------------
    def to_json_dict(self):
        return {
            "vars": list(self.variables),
            "terms": [[list(i), f"{c.numerator}/{c.denominator}"] for i, c in self.sorted_terms()],
        }

    @classmethod
    def from_json_dict(cls, d) -> "IntPoly":
        terms = {tuple(i): Fraction(c) for i, c in d["terms"]}
        return cls(tuple(d["vars"]), terms)

    def __repr__(self):
        if self.is_zero:
            return "0"
        bits = []
        for idx, c in self.sorted_terms():
            factors = []
            if c != 1 or not any(idx):
                factors.append(str(c))
            for v, e in zip(self.variables, idx):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"C({v},{e})")
            bits.append("*".join(factors))
        return " + ".join(bits)


@lru_cache(maxsize=None)
def _binom_monomial(i: int) -> tuple[Fraction, ...]:
    """Power-basis coefficients (constant first) of the univariate C(y, i)."""
    coeffs = [Fraction(1)]
    for r in range(i):
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for e, c in enumerate(coeffs):
            nxt[e + 1] += c
            nxt[e] -= c * r
        coeffs = nxt
    f = math.factorial(i)
    return tuple(c / f for c in coeffs)


def binom_powers(P, lmax: int) -> list:
    """[C(P, 0), ..., C(P, lmax)] for a polynomial or, componentwise, a polynomial map.

    Each power is the polynomial that the recurrence gives; the module
    docstring says which parts run it and how they combine.
    """
    if isinstance(lmax, bool) or not isinstance(lmax, int) or lmax < 0:
        raise ValidationError("binomial power needs an integer l >= 0")
    if isinstance(P, PolyMap):
        return [PolyMap(P.variables, comps) for comps in zip(*_map_powers(P, lmax))]
    return _poly_powers(P, lmax)


def _support(P: IntPoly) -> frozenset[int]:
    """Positions of the variables that occur in P."""
    return frozenset(k for idx in P.numerators for k, e in enumerate(idx) if e)


def _at_zero(P: IntPoly, positions) -> IntPoly:
    """P with the variables at ``positions`` set to 0: its terms with zero exponent there."""
    if not positions:
        return P
    get = itemgetter(*positions)
    zero = get((0,) * P.nvars)
    return IntPoly._new(P.variables, {i: c for i, c in P.numerators.items() if get(i) == zero}, P.denominator)


def _map_powers(P: PolyMap, lmax: int) -> list[list[IntPoly]]:
    """Per component, its powers C(P_i, 0..lmax), restricted from another's where it can.

    Components go from the widest support down, so each one looks for a
    source among those already done, the narrowest first.
    """
    supports = [_support(c) for c in P.components]
    done: dict[int, list[IntPoly]] = {}
    for i in sorted(range(P.t), key=lambda i: -len(supports[i])):
        comp, s = P.components[i], supports[i]
        for j in reversed(done):
            drop = supports[j] - s
            if s <= supports[j] and _at_zero(P.components[j], drop) == comp:
                done[i] = [_at_zero(Q, drop) for Q in done[j]]
                break
        else:
            done[i] = _poly_powers(comp, lmax)
    return [done[i] for i in range(P.t)]


# From this l on P is split; below it the recurrence on all of P is faster,
# since the split has a fixed cost of some tens of microseconds.  On a 2-core
# Xeon VM with Python 3.11, whole against split: x + 2*y at l = 2 took 8 us
# against 31 us; at l = 4, x + y^3 took 88 us against 106 us, but the
# all-ones component of cs_system(3, 2) 4.1 ms against 3.1 ms; and at l = 8,
# x + y^3 took 0.73 ms against 0.37 ms.
_SPLIT_FROM = 4


def _poly_powers(P: IntPoly, lmax: int) -> list[IntPoly]:
    """C(P, 0..lmax): the recurrence per group of variable-disjoint terms and on the constant, combined by Vandermonde."""
    if lmax < _SPLIT_FROM:
        return _recurrence(P, lmax)
    nv = P.nvars
    root = list(range(nv))  # union-find over the variable positions that share a term

    def find(k):
        while root[k] != k:
            root[k] = k = root[root[k]]
        return k

    supports = []
    for idx in P.numerators:
        sup = [k for k, e in enumerate(idx) if e]
        supports.append(sup)
        for k in sup[1:]:
            root[find(k)] = find(sup[0])
    groups: dict[int, tuple[set, dict]] = {}
    for (idx, c), sup in zip(P.numerators.items(), supports):
        if sup:
            pos, terms = groups.setdefault(find(sup[0]), (set(), {}))
            pos.update(sup)
            terms[idx] = c
    if len(groups) < 2:
        return _recurrence(P, lmax)
    # each part is a polynomial in its own variables, the constant in none
    parts = []
    c = P.numerators.get((0,) * nv, 0)
    if c:
        parts.append(([], _recurrence(IntPoly._new((), {(): c}, P.denominator), lmax)))
    for pos, terms in groups.values():
        pos = sorted(pos)
        G = IntPoly._new(
            tuple(P.variables[k] for k in pos), {tuple(idx[k] for k in pos): v for idx, v in terms.items()}, P.denominator
        )
        parts.append((pos, _recurrence(G, lmax)))
    powers = parts[0][1]
    for _, B in parts[1:]:
        powers = _vandermonde(powers, B, lmax)
    # the powers are over the parts' variables in turn; put them back in P's
    # order, with zero exponents on the variables P does not use
    order = [k for pos, _ in parts for k in pos]
    if order == list(range(nv)):
        return powers
    rest = [k for k in range(nv) if k not in order]
    pad = (0,) * len(rest)
    order += rest
    place = itemgetter(*(order.index(k) for k in range(nv))) if nv > 1 else tuple
    return [IntPoly._new(P.variables, {place(i + pad): v for i, v in Q.numerators.items()}, Q.denominator) for Q in powers]


def _recurrence(P: IntPoly, lmax: int) -> list[IntPoly]:
    """[C(P, 0), ..., C(P, lmax)] from C(P, r) = C(P, r-1) * (P - r + 1) / r."""
    variables, den = P.variables, P.denominator
    out = [IntPoly._new(variables, {(0,) * len(variables): 1})]
    for r in range(1, lmax + 1):
        Q = out[-1]
        # Q * (P - (r - 1)) over the denominator Q.denominator * den
        acc = {i: -(r - 1) * den * c for i, c in Q.numerators.items()}
        _add_product(acc, Q.numerators, P.numerators)
        out.append(IntPoly._new(variables, acc, Q.denominator * den * r))
    return out


def _vandermonde(A: list[IntPoly], B: list[IntPoly], lmax: int) -> list[IntPoly]:
    """[sum_a A[a] * B[l - a] for l = 0..lmax], A and B in disjoint variables.

    The products are over A's variables followed by B's, so each product
    term is one concatenated multi-index; each level sums into one dict
    over the common denominator of its products.
    """
    variables = A[0].variables + B[0].variables
    out = []
    for l in range(lmax + 1):
        pairs = [(A[a], B[l - a]) for a in range(l + 1)]
        den = math.lcm(*[Qa.denominator * Qb.denominator for Qa, Qb in pairs])
        acc: dict[tuple[int, ...], int] = {}
        get = acc.get
        for Qa, Qb in pairs:
            s = den // (Qa.denominator * Qb.denominator)
            nb = Qb.numerators.items()
            for i, ca in Qa.numerators.items():
                w = ca * s
                for j, cb in nb:
                    k = i + j
                    acc[k] = get(k, 0) + w * cb
        out.append(IntPoly._new(variables, acc, den))
    return out


def binom_power(P, l: int):
    """C(P, l) for a polynomial or, componentwise, a polynomial map."""
    return binom_powers(P, l)[-1]


def compose(Q: IntPoly, P: IntPoly) -> IntPoly:
    """Q(P) for univariate Q, written in the binomial basis of Q."""
    if Q.nvars != 1:
        raise ValidationError("compose expects a univariate outer polynomial")
    powers = binom_powers(P, Q.degree)
    out = IntPoly.zero(P.variables)
    for (l,), c in Q.numerators.items():
        out = out + powers[l] * c
    return out._scaled(1, Q.denominator)


# ----------------------------------------------------------------------
# text parsing


_H_RE = re.compile(r"^h(\d+)$")


def _canonical_var_order(names):
    def key(n):
        if n == "x":
            return (0, 0, n)
        if n == "y":
            return (1, 0, n)
        m = _H_RE.match(n)
        if m:
            return (2, int(m.group(1)), n)
        return (3, 0, n)

    return tuple(sorted(set(names), key=key))


def _eval_node(node, variables) -> IntPoly:
    if isinstance(node, ast.Expression):
        return _eval_node(node.body, variables)
    if isinstance(node, ast.Constant):
        if isinstance(node.value, int):
            return IntPoly.constant(variables, node.value)
        raise ValidationError(f"unsupported literal {node.value!r}")
    if isinstance(node, ast.Name):
        return IntPoly.variable(variables, node.id)
    if isinstance(node, ast.UnaryOp):
        v = _eval_node(node.operand, variables)
        if isinstance(node.op, ast.USub):
            return -v
        if isinstance(node.op, ast.UAdd):
            return v
        raise ValidationError("unsupported unary operator")
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Pow):
            base = _eval_node(node.left, variables)
            if not isinstance(node.right, ast.Constant) or not isinstance(node.right.value, int):
                raise ValidationError("exponents must be integer literals")
            return base ** node.right.value
        left = _eval_node(node.left, variables)
        right = _eval_node(node.right, variables)
        if isinstance(node.op, ast.Add):
            return left + right
        if isinstance(node.op, ast.Sub):
            return left - right
        if isinstance(node.op, ast.Mult):
            return left * right
        if isinstance(node.op, ast.Div):
            if right.degree > 0:
                raise ValidationError("division only by nonzero constants")
            c = right.constant_term
            if not c:
                raise ValidationError("division by zero")
            return left * (Fraction(1) / c)
        raise ValidationError("unsupported operator")
    if isinstance(node, ast.Call):
        if not (isinstance(node.func, ast.Name) and node.func.id == "C"):
            raise ValidationError("only the C(expr, k) call is supported")
        if len(node.args) != 2 or node.keywords:
            raise ValidationError("C takes exactly two arguments")
        inner = _eval_node(node.args[0], variables)
        karg = node.args[1]
        if not isinstance(karg, ast.Constant) or not isinstance(karg.value, int) or karg.value < 0:
            raise ValidationError("second argument of C must be a nonnegative integer literal")
        return binom_power(inner, karg.value)
    raise ValidationError(f"unsupported syntax: {ast.dump(node)}")


def _parse_tree(text: str):
    """The expression tree of the text, and the names that the compiler lists for it."""
    try:
        tree = ast.parse(text.replace("^", "**"), mode="eval")
        return tree, compile(tree, "<polynomial>", "eval").co_names
    except SyntaxError as e:
        raise ValidationError(f"cannot parse polynomial text: {e}") from None


def _variables(names, variables) -> tuple[str, ...]:
    """The given variables, or the names in the text but C in canonical order (x alone if none)."""
    if variables is None:
        variables = _canonical_var_order(n for n in names if n != "C") or ("x",)
    return tuple(variables)


def parse_poly(text: str, variables=None) -> IntPoly:
    """Parse a single polynomial from text (ops + - * / ^, calls C(expr, k))."""
    tree, names = _parse_tree(text)
    if isinstance(tree.body, ast.Tuple):
        raise ValidationError("expected a single polynomial, got a comma-separated list")
    return _eval_node(tree.body, _variables(names, variables))


def parse_polymap(text: str, variables=None) -> "PolyMap":
    """Parse a comma-separated list of polynomials sharing one variable set."""
    tree, names = _parse_tree(text)
    parts = tree.body.elts if isinstance(tree.body, ast.Tuple) else [tree.body]
    variables = _variables(names, variables)
    return PolyMap(variables, [_eval_node(p, variables) for p in parts])


class PolyMap:
    """A tuple of polynomials over a shared variable set."""

    __slots__ = ("variables", "components")

    def __init__(self, variables, components):
        self.variables = tuple(variables)
        comps = []
        for c in components:
            if not isinstance(c, IntPoly):
                raise ValidationError("components must be IntPoly")
            if c.variables != self.variables:
                raise ValidationError("component variable mismatch")
            comps.append(c)
        if not comps:
            raise ValidationError("a polynomial map needs at least one component")
        self.components = tuple(comps)

    @property
    def t(self) -> int:
        return len(self.components)

    @property
    def nvars(self) -> int:
        return len(self.variables)

    @property
    def degree(self) -> int:
        return max(c.degree for c in self.components)

    @property
    def has_zero_constants(self) -> bool:
        return all(not c.constant_term for c in self.components)

    @property
    def is_integer_valued(self) -> bool:
        return all(c.is_integer_valued for c in self.components)

    def coefficient_vectors(self) -> dict[tuple[int, ...], tuple]:
        """Map each multi-index to its vector of per-component coefficients.

        The keys are in graded order: by total degree, then descending lex.
        The entries are ints when every component is integer valued, and
        Fractions otherwise.
        """
        t = self.t
        ints = self.is_integer_valued
        zero = 0 if ints else Fraction(0)
        rows: dict[tuple[int, ...], list] = {}
        for k, c in enumerate(self.components):
            for m, v in (c.numerators if ints else c.terms).items():
                row = rows.get(m)
                if row is None:
                    row = rows[m] = [zero] * t
                row[k] = v
        return {m: tuple(rows[m]) for m in _graded(rows)}

    def __call__(self, *point):
        return tuple(c(*point) for c in self.components)

    def __eq__(self, other):
        if not isinstance(other, PolyMap):
            return NotImplemented
        return self.variables == other.variables and self.components == other.components

    def __hash__(self):
        return hash((self.variables, self.components))

    def to_json_dict(self):
        return {
            "vars": list(self.variables),
            "components": [c.to_json_dict() for c in self.components],
        }

    @classmethod
    def from_json_dict(cls, d) -> "PolyMap":
        comps = [IntPoly.from_json_dict(c) for c in d["components"]]
        return cls(tuple(d["vars"]), comps)

    def __repr__(self):
        return "(" + ", ".join(repr(c) for c in self.components) + ")"


def cs_system(m: int, d: int) -> PolyMap:
    """The 2^m-component system x + (y + sum_i w_i h_i)^d - sum_i (i-1) w_i h_i.

    Components are ordered by w in {0,1}^m with the last bit varying fastest.
    """
    if m < 1 or d < 1:
        raise ValidationError("cs_system needs m >= 1 and d >= 1")
    variables = ("x", "y") + tuple(f"h{i}" for i in range(1, m + 1))
    x = IntPoly.variable(variables, "x")
    y = IntPoly.variable(variables, "y")
    hs = [IntPoly.variable(variables, f"h{i}") for i in range(1, m + 1)]
    comps = []
    for w in _cartesian([0, 1], repeat=m):
        shift = y
        corr = IntPoly.constant(variables, 0)
        for i, (wi, h) in enumerate(zip(w, hs), start=1):
            if wi:
                shift = shift + h
                corr = corr + (i - 1) * h
        comps.append(x + shift ** d - corr)
    return PolyMap(variables, comps)


def binom_table_mod(p: int, kmax: int) -> np.ndarray:
    """Array of shape (kmax+1, p) with row k holding C(x, k) mod p, x = 0..p-1."""
    if kmax >= p:
        raise ValidationError("binomial tables mod p need k < p")
    return _binom_rows(np.arange(p, dtype=np.int64), p, kmax)


def _binom_rows(x: np.ndarray, p: int, kmax: int) -> np.ndarray:
    """Rows C(x, k) mod p for k = 0..kmax at residues x in [0, p), kmax < p."""
    tab = np.empty((kmax + 1, x.size), dtype=np.int64)
    tab[0] = 1
    for k in range(1, kmax + 1):
        # C(x, k) = C(x, k-1) * ((x - k + 1) / k); both factors are reduced below p
        np.multiply(tab[k - 1], (x - k + 1) * pow(k, -1, p) % p, out=tab[k])
        tab[k] %= p
    return tab


def grid_values(poly: IntPoly, p: int, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Values mod p of an integer-valued poly on rows lo..hi-1 of the grid F_p^k.

    Row x lists poly(x, rest) for rest in F_p^(k-1) in C order, so the shape
    is (hi - lo, p^(k-1)); hi defaults to p and is clipped to p.  A
    polynomial in no variables gives shape (1, 1).  Terms are grouped by
    their rest exponents: each group folds into one weight per row, reduced
    mod p term by term, and adds one product with its rest table.
    """
    if not poly.is_integer_valued:
        raise ValidationError("polynomial is not integer valued")
    k = poly.nvars
    if not k:
        return np.full((1, 1), poly.numerators.get((), 0) % p, dtype=np.int64)
    hi = p if hi is None else min(hi, p)
    kmax = max((max(idx) for idx in poly.numerators), default=0)
    if kmax >= p:
        raise ValidationError(f"exponent {kmax} >= p = {p}: binomial tables mod p need k < p")
    # the first variable only on the requested rows, so its table stays block
    # sized; the other variables on all of F_p, the same table when lo..hi is all of it
    first = _binom_rows(np.arange(lo, hi, dtype=np.int64), p, kmax)
    tab = binom_table_mod(p, kmax) if k > 1 and hi - lo < p else first
    weights: dict[tuple[int, ...], np.ndarray] = {}
    for idx, c in poly.numerators.items():
        w = weights.get(idx[1:], 0) + (c % p) * first[idx[0]]
        weights[idx[1:]] = w % p
    out = np.zeros((hi - lo,) + (p,) * (k - 1), dtype=np.int64)
    for rest, w in weights.items():
        table = np.int64(1)
        for axis, e in enumerate(rest):
            if e:
                table = table * tab[e].reshape((p,) + (1,) * (k - 2 - axis)) % p
        out += w.reshape((-1,) + (1,) * (k - 1)) * table
    out %= p
    return out.reshape(hi - lo, p ** (k - 1))
