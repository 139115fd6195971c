"""Command-line surface.

Every run prints a single machine-readable report on standard output; the
report embeds the fully resolved configuration so a run can be reproduced
from its own output.  JSON output is deterministic for a fixed config and
seed (keys sorted, no float formatting surprises) apart from the
``timestamp`` field.  It is written by ``json`` itself, with one ``default``
hook for the package's types: report dataclasses, objects with a
``to_json_dict``, Fractions, complex numbers and numpy scalars.  CSV output is
a stable header plus data rows with no timestamp at all.

Exit codes: 0 success, 2 invalid input, 3 cost-budget rejection, 4 a
result failed its own integrity check (an ``ArithmeticError``: a count's
rounding guard, a norm's roundoff bound, a relation's re-verification).
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__
from .binpoly import parse_polymap
from .counting import SetF, additive_energy, count_in_set, verify_asymptotic
from .errors import CostError, ValidationError
from .field import FieldFn, PrimeField
from .leibman import SpaceLadder
from .norms import bias_norm, gowers_norm
from .relations import IndependenceReport, find_relations, weyl_witness
from .torus import verify_section11

__all__ = ["main"]

# Largest p for which a subcommand builds length-p tables.  Peak RSS grows
# about linearly in p; the largest measured (2 cores, numpy 2.4.6) is
# `norm --seed 1 --method bias --norm-degree 2`, at 229 MiB for
# p = 1,000,003 and 776 MiB for p = 4,000,037 over a 30 MiB interpreter:
# 199 and 186 bytes per point.  At 200 bytes per point, 2^23 points peak
# near 1.6 GiB.  The largest benchmark prime, 1,000,003, is well inside.
_TABLE_BUDGET = 2**23


def _encode(obj):
    """json.dump's ``default`` hook: the JSON form of a value that json cannot write itself."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if hasattr(obj, "to_json_dict"):
        return obj.to_json_dict()
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, complex):
        return {"im": obj.imag, "re": obj.real}
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _config(args: argparse.Namespace) -> dict:
    cfg = {k: v for k, v in vars(args).items() if k != "func"}
    cfg["version"] = __version__
    return cfg


def _emit(args, report: dict, csv_header, csv_rows) -> None:
    if args.format == "csv":
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(csv_header)
        for row in csv_rows:
            w.writerow(row)
        return
    report = dict(report)
    report["config"] = _config(args)
    report["timestamp"] = time.time()
    json.dump(report, sys.stdout, sort_keys=True, indent=2, default=_encode)
    sys.stdout.write("\n")


def _field(p: int) -> PrimeField:
    """F_p for a subcommand that builds length-p tables, checked against the table budget."""
    field = PrimeField(p)
    if p > _TABLE_BUDGET:
        raise CostError(f"tables of length p = {p} exceed the budget of {_TABLE_BUDGET} entries")
    return field


def _function(args, field: PrimeField) -> FieldFn:
    if args.set is not None:
        return SetF.from_spec(field, args.set).indicator()
    if args.seed is not None:
        rng = np.random.Generator(np.random.Philox(args.seed))
        return FieldFn.random_bounded(field, rng)
    raise ValidationError("provide a function via --set or --seed")


# ----------------------------------------------------------------------
# subcommands


def cmd_norm(args) -> None:
    field = _field(args.p)
    f = _function(args, field)
    s = args.norm_degree
    if args.method == "bias":
        rep = bias_norm(f, s)
        out = dataclasses.asdict(rep) | {"kind": "bias"}
        rows = [[args.p, rep.degree, "bias", rep.value]]
    else:
        rep = gowers_norm(f, s, method=args.method)
        out = dataclasses.asdict(rep) | {"kind": "uniformity"}
        rows = [[args.p, rep.degree, rep.method, rep.value]]
    _emit(args, out, ["p", "degree", "method", "value"], rows)


def cmd_count(args) -> None:
    field = _field(args.p)
    P = parse_polymap(args.progression)
    A = SetF.from_spec(field, args.set)
    n = count_in_set(P, A)
    grid = args.p**P.nvars
    # For a set indicator the product average lambda_P is the count over the grid.
    lam = complex(n / grid)
    out = {
        "count": n,
        "density": A.density,
        "lambda": lam,
        "normalized": n / grid,
        "set_size": len(A),
    }
    rows = [[args.p, n, n / grid, lam.real, lam.imag]]
    _emit(args, out, ["p", "count", "normalized", "lambda_re", "lambda_im"], rows)


def cmd_energy(args) -> None:
    field = _field(args.p)
    A = SetF.from_spec(field, args.set)
    e = additive_energy(A)
    out = {"density": A.density, "energy": e, "set_size": len(A)}
    _emit(args, out, ["p", "set_size", "energy"], [[args.p, len(A), e]])


def cmd_asymptotic(args) -> None:
    P = parse_polymap(args.progression)
    fields = [_field(p) for p in args.p_list]  # every prime is checked before the first row
    reports = [verify_asymptotic(P, SetF.from_spec(field, args.set)) for field in fields]
    out = {"rows": reports}
    rows = [[r.p, r.lhs_count, r.rhs_model, r.residual] for r in reports]
    _emit(args, out, ["p", "lhs_count", "rhs_model", "residual"], rows)


def cmd_relations(args) -> None:
    P = parse_polymap(args.progression)
    field = None if args.p is None else _field(args.p)
    rels = find_relations(P, args.cap)
    ind = IndependenceReport.from_relations(P, rels, args.cap)
    out = {
        "independence": ind,
        "n_relations": len(rels),
        "relations": rels,
    }
    rows = []
    cap = ind.cap
    for idx, r in enumerate(rels):
        flat = " ".join(str(c) for c in r.coeff_vector(cap))
        rows.append([idx, cap, " ".join(map(str, r.degrees)), flat])
    if field is not None:
        wits = []
        for r in rels:
            degs = {}
            if args.norm_degree is not None:
                degs = {i: args.norm_degree for i, q in enumerate(r.outer) if not q.is_zero}
            wits.append(weyl_witness(P, r, field, norm_degrees=degs))
        out["witnesses"] = wits
    _emit(args, out, ["relation", "cap", "degrees", "coeffs"], rows)


def _cell(key: str) -> tuple[tuple[int, int], str]:
    """Sort key of a ladder cell "i,j": (i, j), then the text."""
    try:
        i, j = (int(v) for v in key.split(","))
    except ValueError:
        raise ValidationError(f"golden ladder cell {key!r} is not of the form 'i,j'") from None
    return (i, j), key


def _read_golden(path: str) -> dict:
    """The "p_cells" object of a golden ladder file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            golden = json.load(fh)
    except (OSError, ValueError) as e:
        raise ValidationError(f"cannot read golden file {path!r}: {e}") from None
    if not isinstance(golden, dict) or not isinstance(golden.get("p_cells"), dict):
        raise ValidationError(
            f"golden file {path!r} must hold a ladder object with a \"p_cells\" object, "
            "such as the \"ladder\" object of a leibman report"
        )
    for key in golden["p_cells"]:
        _cell(key)
    return golden["p_cells"]


def cmd_leibman(args) -> None:
    P = parse_polymap(args.progression)
    golden = None if args.golden is None else _read_golden(args.golden)
    ladder = SpaceLadder(P, imax=args.cap, jmax=args.jmax)
    filt = ladder.filtration()
    ladder_json = ladder.to_json_dict()
    out = {"filtration": filt, "ladder": ladder_json}
    if golden is not None:
        computed = ladder_json["p_cells"]
        keys = sorted(set(golden) | set(computed), key=_cell)
        mismatch = next((key for key in keys if golden.get(key) != computed.get(key)), None)
        out["golden_match"] = mismatch is None
        out["golden_first_mismatch"] = mismatch
    rows = []
    for i in range(1, ladder.imax + 1):
        for j in range(1, ladder.jmax + 1):
            rows.append([i, j, ladder.p(i, j).dim])
    _emit(args, out, ["i", "j", "dim"], rows)


def cmd_torus(args) -> None:
    rep = verify_section11(args.p)
    out = dict(rep)
    rows = [[args.p, rep["passed"], rep["defect_at_annihilator"]]]
    _emit(args, out, ["p", "passed", "defect"], rows)


# ----------------------------------------------------------------------
# argument plumbing


def _p_list(text: str) -> list[int]:
    try:
        primes = [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        primes = []
    if not primes:
        raise argparse.ArgumentTypeError(f"bad prime list {text!r}")
    return primes


def _int_at_least(lo: int):
    """An argparse type: an integer >= lo."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = lo - 1
        if value < lo:
            raise argparse.ArgumentTypeError(f"expected an integer >= {lo}, got {text!r}")
        return value

    return parse


_SET_HELP = "random:<seed>:<density> | residues:<k> | interval:<a>:<b> | members:<a>,<b>,..."


def _add_common(sp, *, threads=False):
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    if threads:
        sp.add_argument("--threads", type=int, default=None, help="accepted for compatibility and ignored: scans run on one thread")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="uniformity", description=__doc__.splitlines()[0])
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("norm", help="uniformity or bias norm of one function")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--norm-degree", type=_int_at_least(1), default=2)
    sp.add_argument("--method", choices=("auto", "naive", "recursive", "fourier", "bias"), default="auto")
    source = sp.add_mutually_exclusive_group()
    source.add_argument("--set", default=None, help=_SET_HELP)
    source.add_argument("--seed", type=_int_at_least(0), default=None, help="random 1-bounded function instead of a set indicator")
    _add_common(sp)
    sp.set_defaults(func=cmd_norm)

    sp = sub.add_parser("count", help="configuration count and average inside a set")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--progression", required=True, help='e.g. "x, x+y, x+y^2, x+y+y^2"')
    sp.add_argument("--set", required=True, help=_SET_HELP)
    _add_common(sp, threads=True)
    sp.set_defaults(func=cmd_count)

    sp = sub.add_parser("energy", help="additive energy of a set")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--set", required=True, help=_SET_HELP)
    _add_common(sp)
    sp.set_defaults(func=cmd_energy)

    sp = sub.add_parser("asymptotic", help="count-vs-linear-model residual table over several primes")
    sp.add_argument("--p-list", type=_p_list, required=True, help="comma-separated primes")
    sp.add_argument("--progression", required=True)
    sp.add_argument("--set", required=True, help=_SET_HELP + " (instantiated per prime)")
    _add_common(sp, threads=True)
    sp.set_defaults(func=cmd_asymptotic)

    sp = sub.add_parser("relations", help="exact relation space of a progression")
    sp.add_argument("--progression", required=True)
    sp.add_argument("--cap", type=int, default=None, help="outer-degree cap (default 2*deg, at least 1)")
    sp.add_argument("--p", type=int, default=None, help="also build phase witnesses at this prime")
    sp.add_argument("--norm-degree", type=_int_at_least(1), default=None, help="norm degree for witness slots")
    _add_common(sp)
    sp.set_defaults(func=cmd_relations)

    sp = sub.add_parser("leibman", help="coefficient-space ladder and filtration check")
    sp.add_argument("--progression", required=True)
    sp.add_argument("--cap", type=int, default=None, help="ladder bound imax (default deg+2)")
    sp.add_argument("--jmax", type=int, default=None)
    sp.add_argument("--golden", default=None, help="JSON file of ladder cells to diff against")
    _add_common(sp)
    sp.set_defaults(func=cmd_leibman)

    sp = sub.add_parser("torus", help="quadratic annihilation example on the lifted torus")
    sp.add_argument("--p", type=int, required=True)
    _add_common(sp)
    sp.set_defaults(func=cmd_torus)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except CostError as e:
        print(f"cost rejection: {e}", file=sys.stderr)
        return 3
    except ArithmeticError as e:
        print(f"integrity error: {e}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
