"""The benchmark's workloads: the operations each task runs and the checks on their outputs.

Every operation but one is a call of ``uniformity.cli.main(argv)`` in this
process, so argument parsing, set-spec building and the JSON report are all
timed.  The exception is the torus defect search, which no subcommand reaches.
``--threads`` is always given, so ``GF_THREADS`` cannot change the load.

Checks run outside the timed region.  Outputs that depend on the seed are
checked against references computed here with plain numpy, sharing no code
with the package; the ``exact`` workload has no random input and is checked
against the outputs recorded in ``golden_exact.json``.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from uniformity import binpoly, cli, torus

# Relative (and, near zero, absolute) tolerance for float outputs: norms,
# averages, model values and defects.
FLOAT_TOL = 1e-9

GOLDEN = Path(__file__).with_name("golden_exact.json")

SCAN_MAP = "x, x+y, x+y^2, x+y+y^2"
RELATIONS_MAP = "x, x+y, x+2*y, x+y^3, x+2*y^3"
DEFECT_P = 211
DEFECT_MAP = "x, x+y, x+2*y, x+y^2"


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check`` is not and returns None when the output is right."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Task:
    name: str
    ops: list[Op]


def _memo_check(check):
    """Check each distinct output once; repeated passes give the same outputs."""
    seen: dict[str, str | None] = {}

    def checked(doc):
        key = json.dumps(doc, sort_keys=True)
        if key not in seen:
            try:
                seen[key] = check(doc)
            except (KeyError, TypeError, ValueError, IndexError) as e:
                seen[key] = f"unreadable output ({type(e).__name__}: {e})"
        return seen[key]

    return checked


def cli_op(argv: list[str], check: Callable[[dict], str | None]) -> Op:
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        return rc, buf.getvalue()

    checked = _memo_check(check)

    def check_output(out):
        rc, text = out
        if rc != 0:
            return f"exit code {rc}"
        try:
            doc = json.loads(text)
        except ValueError:
            return "output is not JSON"
        doc.pop("timestamp", None)
        doc.pop("config", None)
        return checked(doc)

    sizes = [f"{k[2:]}={v}" for k, v in zip(argv[1::2], argv[2::2]) if k in ("--p", "--p-list", "--threads")]
    return Op(" ".join([argv[0], *sizes]), run, check_output)


# ----------------------------------------------------------------------
# comparisons


def close(got, want) -> bool:
    return abs(got - want) <= FLOAT_TOL * max(1.0, abs(want))


def expect(what: str, got, want) -> str | None:
    ok = close(got, want) if isinstance(want, float) else got == want
    return None if ok else f"{what}: got {got!r}, expected {want!r}"


def first_failure(*results) -> str | None:
    return next((r for r in results if r is not None), None)


def diff(got, want, path: str = "") -> str | None:
    """First difference between two JSON trees; floats compare within FLOAT_TOL."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return f"{path or 'output'}: keys differ"
        return first_failure(*(diff(got[k], want[k], f"{path}.{k}") for k in sorted(want)))
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{path}: length differs"
        return first_failure(*(diff(g, w, f"{path}[{i}]") for i, (g, w) in enumerate(zip(got, want))))
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return expect(path, float(got), want)
    return expect(path, got, want)


# ----------------------------------------------------------------------
# independent references


def random_set(p: int, seed: int, density: float = 0.5) -> np.ndarray:
    """The indicator that the set spec ``random:<seed>:<density>`` denotes."""
    rng = np.random.Generator(np.random.Philox(seed))
    return rng.random(p) < density


def random_bounded(p: int, seed: int) -> np.ndarray:
    """The function that ``norm --seed <seed>`` evaluates: uniform on the unit disc."""
    rng = np.random.Generator(np.random.Philox(seed))
    r = np.sqrt(rng.random(p))
    theta = rng.random(p) * 2 * np.pi
    return r * np.exp(1j * theta)


def energy_ref(A: np.ndarray) -> int:
    """Additive energy sum_s r(s)^2, with r(s) = #{(a, b) in A^2 : a + b = s}.

    r is a linear convolution folded mod p; each r(s) <= |A| is rounded on its
    own and the squares are summed in Python integers.
    """
    p = A.size
    n = 1 << (2 * p - 1).bit_length()
    fa = np.fft.rfft(A.astype(np.float64), n)
    conv = np.fft.irfft(fa * fa, n)
    r = conv[:p].copy()
    r[: p - 1] += conv[p : 2 * p - 1]
    ri = np.rint(r)
    if np.max(np.abs(r - ri)) > 0.25:
        raise ArithmeticError("representation counts are not near integers")
    return sum(v * v for v in ri.astype(np.int64).tolist())


def count_translates(A: np.ndarray, shifts: list[np.ndarray]) -> int:
    """#{(x, y) : x + c(y) in A for every shift table c}, for maps x + c_i(y)."""
    p = A.size
    ext = np.concatenate([A, A])
    x = np.arange(p)
    total = 0
    for lo in range(0, p, 128):
        acc = None
        for c in shifts:
            g = ext[c[lo : lo + 128, None] + x]
            acc = g if acc is None else acc & g
        total += int(np.count_nonzero(acc))
    return total


def scan_map_count(A: np.ndarray) -> int:
    """Count of x, x+y, x+y^2, x+y+y^2 in A."""
    p = A.size
    y = np.arange(p, dtype=np.int64)
    sq = y * y % p
    return count_translates(A, [np.zeros(p, dtype=np.int64), y, sq, (y + sq) % p])


def generic_map_count(A: np.ndarray) -> int:
    """Count of x, x+y, x^2+y in A: with u = x + y it is sum over x in A of R(x^2 - x),
    where R(d) = #{u : u, u + d in A}."""
    p = A.size
    R = np.array([np.count_nonzero(A & np.roll(A, -d)) for d in range(p)])
    x = np.nonzero(A)[0].astype(np.int64)
    return int(R[(x * x - x) % p].sum())


def gowers_power(g: np.ndarray, s: int) -> float:
    """||g||^(2^s) for s >= 3: E_h ||g(. + h) conj g||^(2^(s-1)), batching the last level."""
    p = g.size
    if s > 3:
        return math.fsum(gowers_power(np.roll(g, -h) * np.conj(g), s - 1) for h in range(p)) / p
    x = np.arange(p)
    total = 0.0
    for lo in range(0, p, 64):
        h = np.arange(lo, min(lo + 64, p))[:, None]
        G = g[(x + h) % p] * np.conj(g)
        total += float(np.sum((np.abs(np.fft.fft(G, axis=1)) / p) ** 4))
    return total / p


def bias3(f: np.ndarray):
    """Max over (a2, a1) of |E_x f(x) e_p(-(a2 x^2 + a1 x))|, lexicographically first argmax."""
    p = f.size
    x = np.arange(p, dtype=np.int64)
    x2 = x * x % p
    neg_char = np.exp(-2j * np.pi * np.arange(p) / p)
    best, arg = -1.0, None
    for lo in range(0, p, 64):
        a2 = np.arange(lo, min(lo + 64, p), dtype=np.int64)[:, None]
        mags = np.abs(np.fft.fft(f * neg_char[a2 * x2 % p], axis=1)) / p
        i = int(np.argmax(mags))
        if mags.flat[i] > best:
            best, arg = float(mags.flat[i]), (lo + i // p, i % p)
    return best, arg


def bias3_at(f: np.ndarray, a2: int, a1: int) -> float:
    p = f.size
    x = np.arange(p, dtype=np.int64)
    return float(abs(np.sum(f * np.exp(-2j * np.pi * ((a2 * x * x + a1 * x) % p) / p))) / p)


# ----------------------------------------------------------------------
# workloads


def _set_checks(doc, A: np.ndarray):
    p = A.size
    return first_failure(
        expect("set_size", doc["set_size"], int(A.sum())),
        expect("density", doc["density"], int(A.sum()) / p),
    )


def _count_check(A: np.ndarray, nvars: int, want: int):
    grid = A.size**nvars

    def check(doc):
        return first_failure(
            expect("count", doc["count"], want),
            _set_checks(doc, A),
            expect("normalized", doc["normalized"], want / grid),
            expect("lambda.re", doc["lambda"]["re"], want / grid),
            expect("lambda.im", doc["lambda"]["im"], 0.0),
        )

    return check


def scan(seed: int) -> list[Task]:
    spec = f"random:{seed}:0.5"

    def count(p, prog, threads):
        return ["count", "--p", str(p), "--progression", prog, "--set", spec, "--threads", str(threads)]

    sets = {p: random_set(p, seed) for p in (211, 2003, 3001, 4001, 8009)}
    affine = {p: scan_map_count(sets[p]) for p in (2003, 4001, 8009)}
    energies = {p: energy_ref(sets[p]) for p in (211, 2003, 4001, 8009)}
    affine_check = _count_check(sets[4001], 2, affine[4001])

    def asymptotic_check(doc):
        rows = doc["rows"]
        if [r["p"] for r in rows] != [2003, 4001, 8009]:
            return "rows: wrong primes"
        # The linear model of x, x+y, x+y^2, x+y+y^2 is a parametrization of the
        # cube, whose count in A is the additive energy of A.
        return first_failure(
            *(
                first_failure(
                    expect(f"p={r['p']} lhs_count", r["lhs_count"], affine[r["p"]]),
                    expect(f"p={r['p']} rhs_model", r["rhs_model"], float(energies[r["p"]])),
                    expect(
                        f"p={r['p']} residual",
                        r["residual"],
                        affine[r["p"]] / r["p"] ** 2 - energies[r["p"]] / r["p"] ** 3,
                    ),
                )
                for r in rows
            )
        )

    return [
        Task("count_affine", [cli_op(count(4001, SCAN_MAP, 1), affine_check)]),
        Task("count_affine_2t", [cli_op(count(4001, SCAN_MAP, 2), affine_check)]),
        Task(
            "count_generic",
            [cli_op(count(3001, "x, x+y, x^2+y", 1), _count_check(sets[3001], 2, generic_map_count(sets[3001])))],
        ),
        # x + (x+y+z) = (x+y) + (x+z): the cube count is the additive energy.
        Task("count_cube", [cli_op(count(211, "x, x+y, x+z, x+y+z", 1), _count_check(sets[211], 3, energies[211]))]),
        Task(
            "asymptotic",
            [
                cli_op(
                    ["asymptotic", "--p-list", "2003,4001,8009", "--progression", SCAN_MAP, "--set", spec, "--threads", "1"],
                    asymptotic_check,
                )
            ],
        ),
    ]


def _norm_check(f: np.ndarray, s: int):
    want = gowers_power(f, s) ** (1.0 / (1 << s))

    def check(doc):
        return first_failure(
            expect("degree", doc["degree"], s),
            expect("method", doc["method"], "recursive"),
            expect("value", doc["value"], want),
        )

    return check


def _bias_check(f: np.ndarray):
    want, arg = bias3(f)

    def check(doc):
        a2, a1 = doc["coeffs"]
        # A different argmax is accepted only as a float tie with the maximum.
        tie = (a2, a1) == arg or close(bias3_at(f, a2, a1), want)
        return first_failure(
            expect("value", doc["value"], want),
            None if tie else f"coeffs: got {[a2, a1]}, expected {list(arg)}",
        )

    return check


def spectral(seed: int) -> list[Task]:
    def norm(p, s, method):
        return ["norm", "--p", str(p), "--seed", str(seed), "--norm-degree", str(s), "--method", method]

    small, large = 50021, 1000003
    A = random_set(small, seed)
    want = energy_ref(A)

    def energy_check(doc):
        return first_failure(expect("energy", doc["energy"], want), _set_checks(doc, A))

    # ||1_A||_U2^4 = E(A) / p^3, so the exact energy reference checks the U^2 norm.
    # The large prime goes through the norm, not `energy`: `additive_energy`
    # returns a wrong energy there on every seed tried (see README.md).
    u2_want = (energy_ref(random_set(large, seed)) / large**3) ** 0.25

    def u2_check(doc):
        return first_failure(
            expect("degree", doc["degree"], 2),
            expect("method", doc["method"], "fourier"),
            expect("value", doc["value"], u2_want),
        )

    spec = f"random:{seed}:0.5"
    energy_ops = [
        cli_op(["energy", "--p", str(small), "--set", spec], energy_check),
        cli_op(["norm", "--p", str(large), "--set", spec, "--norm-degree", "2", "--method", "fourier"], u2_check),
    ]
    return [
        Task("u3", [cli_op(norm(2003, 3, "recursive"), _norm_check(random_bounded(2003, seed), 3))]),
        Task("u4", [cli_op(norm(101, 4, "recursive"), _norm_check(random_bounded(101, seed), 4))]),
        Task("bias", [cli_op(norm(3001, 3, "bias"), _bias_check(random_bounded(3001, seed)))]),
        Task("energy", energy_ops),
    ]


def _relations_hold(doc) -> str | None:
    """Re-verify each relation: sum_i q_i(P_i(x, y)) vanishes on a grid wide enough
    to force the polynomial (degree <= cap * 3 in each variable) to be zero."""
    comps = [lambda x, y: x, lambda x, y: x + y, lambda x, y: x + 2 * y, lambda x, y: x + y**3, lambda x, y: x + 2 * y**3]
    cap = doc["independence"]["cap"]
    side = 3 * cap + 1
    values = [[c(x, y) for c in comps] for x in range(side) for y in range(side)]
    binoms = [[[math.comb(n, l) for l in range(cap + 1)] for n in row] for row in values]
    for k, rel in enumerate(doc["relations"]):
        outer = [[(i[0], Fraction(c)) for i, c in q["terms"]] for q in rel["outer"]]
        for point in binoms:
            if sum(c * b[l] for q, b in zip(outer, point) for l, c in q):
                return f"relation {k} does not vanish"
    return None


def _golden_check(label: str, extra=None):
    want = json.loads(GOLDEN.read_text())[label]

    def check(doc):
        return first_failure(diff(doc, want), extra(doc) if extra else None)

    return check


def defect_search():
    """weyl_defect on the lifted Section-11 sequence at p = 211: 144 two-parameter character sums."""
    p = DEFECT_P
    a = math.isqrt(p)
    g = torus.TorusSeq(p, [(0, 0), (a, 0), (0, a)], levels=(1, 2))
    rep = torus.weyl_defect(torus.lift_gP(g, binpoly.parse_polymap(DEFECT_MAP)), 2)
    return {"argmax": list(rep.argmax.coeffs), "bound": rep.bound, "n_characters": rep.n_characters, "value": rep.value}


def exact(seed: int) -> list[Task]:
    """The exact workload has no random input: the seed is not used."""
    leibman_map = ", ".join(repr(c) for c in binpoly.cs_system(3, 2).components)
    relations = cli_op(
        ["relations", "--progression", RELATIONS_MAP, "--cap", "12", "--p", "101", "--norm-degree", "3"],
        _golden_check("relations", _relations_hold),
    )
    leibman = cli_op(["leibman", "--progression", leibman_map], _golden_check("leibman"))
    torus_cli = cli_op(["torus", "--p", "9973"], _golden_check("torus"))
    defect = Op(f"weyl_defect p={DEFECT_P}", defect_search, _memo_check(_golden_check("defect")))
    return [Task("relations", [relations]), Task("leibman", [leibman]), Task("torus", [torus_cli, defect])]


WORKLOADS = {"scan": scan, "spectral": spectral, "exact": exact}
