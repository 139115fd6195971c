"""Span recorder for the traced run, and the per-layer metrics computed from its spans.

Spans are recorded from outside the package: every public function of every
``uniformity`` module is replaced, at every module attribute that binds it,
by a wrapper that records (name, start, end, parent).  Functions are imported
by name across modules (``cli.count_in_set``, ``norms.fourier_transform``), so
patching only the defining module would miss most calls.  A span's layer is
the module that defines the function.
"""
from __future__ import annotations

import functools
import math
import sys
import threading
import time
import types

import numpy as np

# Methods recorded besides the public functions: set-spec parsing, ladder
# construction, subspace membership and IntPoly arithmetic.
_EXTRA_METHODS = {
    "counting": {"SetF": ("from_spec",)},
    "leibman": {"SpaceLadder": ("__init__",), "RatSubspace": ("contains",)},
    "binpoly": {
        "IntPoly": ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__", "__pow__")
    },
}

LAYERS = ("cli", "field", "norms", "counting", "binpoly", "ratlin", "relations", "leibman", "torus")

# Unit of each per-layer metric that layer_metrics computes.
UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "field.transforms": "count",
    "field.points": "count",
    "field.padded_points": "count",
    "field.useful_ratio": "ratio",
    "norms.gowers.total_s": "s",
    "norms.bias.total_s": "s",
    "counting.scans": "count",
    "counting.grid_points": "count",
    "counting.grid_points_per_s": "1/s",
    "counting.energy.total_s": "s",
    "counting.setspec.total_s": "s",
    "binpoly.binom_power.calls": "count",
    "binpoly.compose.calls": "count",
    "ratlin.rref.calls": "count",
    "ratlin.rref.cells": "count",
    "relations.find.calls": "count",
    "leibman.ladders": "count",
    "leibman.contains.calls": "count",
    "torus.character_sums": "count",
    "torus.rows": "count",
}


def _padded(n: int) -> int:
    """Length the transform actually runs at: n itself, or the Bluestein 2^k >= 2n-1."""
    return n if n & (n - 1) == 0 else 1 << (2 * n - 1).bit_length()


def _transform_work(values, *_, **__):
    shape = np.shape(values)
    if not shape or not shape[-1]:
        return (0, 0, 0)
    n = shape[-1]
    rows = math.prod(shape) // n
    return (rows, rows * n, rows * _padded(n))


def _scan_work(P, A_or_fs, *_, **__):
    if isinstance(A_or_fs, (list, tuple)):
        p = A_or_fs[0].p
    elif hasattr(A_or_fs, "field"):
        p = A_or_fs.field.p
    else:  # a generator of functions: the size is unknown without consuming it
        return 0
    return p**P.nvars * P.t


def _rref_work(rows, *_, **__):
    if not isinstance(rows, list) or not rows:
        return 0
    return len(rows) * len(rows[0])


def _charsum_work(seq, *_, **__):
    return seq.p ** (seq.nvars - 1)


# Work counts computed from argument sizes, keyed by span name.
_WORK = {
    "field.fourier_transform": _transform_work,
    "counting.count_in_set": _scan_work,
    "counting.lambda_P": _scan_work,
    "ratlin.rref": _rref_work,
    "torus.character_sum": _charsum_work,
}


class Recorder:
    """Records spans while installed; ``restore`` puts every original binding back."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent span or None, work]
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans = self.spans
        local = self._local
        work_of = _WORK.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            work = work_of(*args, **kwargs) if work_of is not None else None
            span = [name, 0.0, 0.0, stack[-1] if stack else None, work]
            spans.append(span)
            stack.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> int:
        """Wrap every binding site; returns the number of sites patched."""
        mods = {n: m for n, m in sys.modules.items() if n == "uniformity" or n.startswith("uniformity.")}
        wrappers = {}
        for modname, mod in mods.items():
            layer = modname.rpartition(".")[2]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if isinstance(fn, types.FunctionType) and fn.__module__ == modname:
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                if isinstance(val, types.FunctionType) and val in wrappers:
                    self._patch(mod, attr, wrappers[val])
        for layer, classes in _EXTRA_METHODS.items():
            mod = mods[f"uniformity.{layer}"]
            for clsname, methods in classes.items():
                cls = getattr(mod, clsname)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    name = f"{layer}.{clsname}.{meth}"
                    if isinstance(raw, classmethod):
                        self._patch(cls, meth, classmethod(self._wrap(name, raw.__func__)))
                    else:
                        self._patch(cls, meth, self._wrap(name, raw))
        return len(self._patches)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval that its children cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s[3] is not None:
            children.setdefault(id(s[3]), []).append((s[1], s[2]))
    out = []
    for s in spans:
        covered = 0.0
        reach = s[1]
        for a, b in sorted(children.get(id(s), ())):
            a, b = max(a, reach), min(b, s[2])
            if b > a:
                covered += b - a
                reach = b
        out.append(s[2] - s[1] - covered)
    return out


def layer_metrics(spans) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""
    m = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for s, own in zip(spans, self_times(spans)):
        key = s[0].partition(".")[0] + ".self_s"
        m[key] = m.get(key, 0.0) + own

    def calls(*names):
        return sum(1 for s in spans if s[0] in names)

    def outer_total(name):
        total = 0.0
        for s in spans:
            if s[0] != name:
                continue
            up = s[3]
            while up is not None and up[0] != name:
                up = up[3]
            if up is None:
                total += s[2] - s[1]
        return total

    transforms = [s[4] for s in spans if s[0] == "field.fourier_transform"]
    m["field.transforms"] = sum(w[0] for w in transforms)
    m["field.points"] = sum(w[1] for w in transforms)
    m["field.padded_points"] = sum(w[2] for w in transforms)
    m["field.useful_ratio"] = m["field.points"] / m["field.padded_points"] if transforms else 0.0
    m["norms.gowers.total_s"] = outer_total("norms.gowers_norm")
    m["norms.bias.total_s"] = outer_total("norms.bias_norm")
    scans = [s for s in spans if s[0] in ("counting.count_in_set", "counting.lambda_P")]
    scan_s = sum(s[2] - s[1] for s in scans)
    m["counting.scans"] = len(scans)
    m["counting.grid_points"] = sum(s[4] for s in scans)
    m["counting.grid_points_per_s"] = m["counting.grid_points"] / scan_s if scan_s > 0 else 0.0
    m["counting.energy.total_s"] = outer_total("counting.additive_energy")
    m["counting.setspec.total_s"] = outer_total("counting.SetF.from_spec")
    m["binpoly.binom_power.calls"] = calls("binpoly.binom_power")
    m["binpoly.compose.calls"] = calls("binpoly.compose")
    m["ratlin.rref.calls"] = calls("ratlin.rref")
    m["ratlin.rref.cells"] = sum(s[4] for s in spans if s[0] == "ratlin.rref")
    m["relations.find.calls"] = calls("relations.find_relations")
    m["leibman.ladders"] = calls("leibman.SpaceLadder.__init__")
    m["leibman.contains.calls"] = calls("leibman.RatSubspace.contains")
    m["torus.character_sums"] = calls("torus.character_sum")
    m["torus.rows"] = sum(s[4] for s in spans if s[0] == "torus.character_sum")
    return m


def dump(spans) -> list[list]:
    """Spans as [name, start, end, parent index] rows, for writing out."""
    index = {id(s): i for i, s in enumerate(spans)}
    return [[s[0], s[1], s[2], index[id(s[3])] if s[3] is not None else -1] for s in spans]
