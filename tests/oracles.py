"""Slow, independent reference implementations used to check the library.

Everything here is written in the most literal way possible — nested Python
loops, cmath, collections — deliberately sharing no code paths with the
package under test.
"""
import cmath
import math
from collections import Counter
from fractions import Fraction
from itertools import product


def brute_dft(values):
    """X[k] = sum_n x[n] exp(-2 pi i n k / N), quadratic time."""
    n = len(values)
    out = []
    for k in range(n):
        s = 0j
        for j in range(n):
            s += values[j] * cmath.exp(-2j * cmath.pi * j * k / n)
        out.append(s)
    return out


def brute_gowers_power(values, s, p):
    """The 2^s-th power of the degree-s uniformity norm, from the definition."""
    total = 0j
    for point in product(range(p), repeat=s + 1):
        x, hs = point[0], point[1:]
        prod = 1 + 0j
        for w in product((0, 1), repeat=s):
            v = values[(x + sum(wi * hi for wi, hi in zip(w, hs))) % p]
            prod *= v.conjugate() if sum(w) % 2 else v
        total += prod
    return (total / p ** (s + 1)).real


def brute_gowers(values, s, p):
    return max(brute_gowers_power(values, s, p), 0.0) ** (1.0 / 2**s)


def brute_convolution(xs, ys, p):
    """r(s) = sum over a + b = s mod p of xs[a] * ys[b], by a double loop."""
    out = [0.0] * p
    for a in range(p):
        for b in range(p):
            out[(a + b) % p] += xs[a] * ys[b]
    return out


def brute_self_convolution(values, p):
    """r(s) = sum over a + b = s mod p of values[a] * values[b]."""
    return brute_convolution(values, values, p)


def brute_energy(members, p):
    """Quadruples (x, y, u, z) in A^4 with x + y = u + z mod p."""
    sums = Counter((x + y) % p for x in members for y in members)
    return sum(v * v for v in sums.values())


def brute_average(fns, comps, p, D):
    """E over the grid of prod_i fns[i][comps[i](point) mod p].

    ``comps`` are plain Python callables taking D integer arguments.
    """
    total = 0j
    for point in product(range(p), repeat=D):
        prod = 1 + 0j
        for f, c in zip(fns, comps):
            prod *= f[c(*point) % p]
        total += prod
    return total / p**D


def brute_count(members, comps, p, D):
    """Number of grid points with every component value landing in the set."""
    A = set(members)
    n = 0
    for point in product(range(p), repeat=D):
        if all(c(*point) % p in A for c in comps):
            n += 1
    return n


def brute_bias(values, s, p):
    """Max over phase coefficients of |E f(x) e_p(-(a_{s-1} x^{s-1}+...+a_1 x))|."""
    best = -1.0
    for coeffs in product(range(p), repeat=s - 1):
        t = 0j
        for x in range(p):
            ph = sum(a * x**k for a, k in zip(coeffs, range(s - 1, 0, -1)))
            t += values[x] * cmath.exp(-2j * cmath.pi * ph / p)
        best = max(best, abs(t) / p)
    return best


def brute_character_sum(taylor, k, p, nvars):
    """E over n in [0, p)^nvars of e(k . g(n)), g(n) = sum_i g_i C(n, i) with g_i = taylor[i] / p.

    Each point's phase numerator is summed in Python ints with math.comb and
    reduced mod p once, then exponentiated with cmath.
    """
    total = 0j
    for n in product(range(p), repeat=nvars):
        num = 0
        for idx, row in taylor.items():
            weight = math.prod(math.comb(a, i) for a, i in zip(n, idx))
            num += weight * sum(kc * v for kc, v in zip(k, row))
        total += cmath.exp(2j * cmath.pi * (num % p) / p)
    return total / p**nvars


def eval_binom(n, k):
    """C(n, k) for any integer n, via the falling-factorial definition."""
    num = 1
    for r in range(k):
        num *= n - r
    return num // math.factorial(k)


def brute_rref(rows):
    """Reduced row echelon form by Gauss-Jordan elimination on Fractions.

    Returns (nonzero rows as tuples of Fractions, pivot columns).
    """
    mat = [[Fraction(v) for v in r] for r in rows]
    pivots = []
    r = 0
    for c in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return [tuple(row) for row in mat[:r]], pivots


# Polynomials in the binomial basis as plain dicts {multi-index: Fraction},
# with zero coefficients dropped: sum of c * C(x_1, i_1) ... C(x_D, i_D).


def frac_poly_add(f, g, sign=1):
    """f + sign * g, coefficient by coefficient."""
    out = dict(f)
    for idx, c in g.items():
        out[idx] = out.get(idx, Fraction(0)) + sign * c
    return {idx: c for idx, c in out.items() if c}


def frac_poly_scale(f, c):
    c = Fraction(c)
    return {idx: v * c for idx, v in f.items() if v * c}


def _binom_product_coeff(a, b, k):
    """Coefficient of C(x, k) in C(x, a) C(x, b): the k-th forward difference at 0."""
    return sum((-1) ** (k - j) * math.comb(k, j) * math.comb(j, a) * math.comb(j, b) for j in range(k + 1))


def frac_poly_mul(f, g):
    """f * g, expanding each product of basis elements variable by variable."""
    out = {}
    for i, ci in f.items():
        for j, cj in g.items():
            partial = [((), ci * cj)]
            for a, b in zip(i, j):
                partial = [
                    (idx + (k,), w * _binom_product_coeff(a, b, k))
                    for idx, w in partial
                    for k in range(max(a, b), a + b + 1)
                ]
            for idx, w in partial:
                out[idx] = out.get(idx, Fraction(0)) + w
    return {idx: c for idx, c in out.items() if c}


def frac_poly_pow(f, e, nvars):
    out = {(0,) * nvars: Fraction(1)}
    for _ in range(e):
        out = frac_poly_mul(out, f)
    return out
