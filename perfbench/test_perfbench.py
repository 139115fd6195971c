"""Tests of the benchmark's own code: span arithmetic, wrapper installation and the references.

    PYTHONPATH=src python3 -m pytest perfbench
"""
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import oracles  # noqa: E402
import spans  # noqa: E402
import tasks  # noqa: E402
import uniformity  # noqa: E402
import uniformity.cli  # noqa: E402


def _span(name, start, end, parent=None):
    return [name, start, end, parent, None]


def test_self_time_arithmetic():
    root = _span("cli.main", 0.0, 10.0)
    a = _span("counting.SetF.from_spec", 1.0, 4.0, root)
    leaf = _span("field.is_prime", 1.5, 2.0, a)
    b = _span("counting.additive_energy", 6.0, 7.0, root)
    tree = [root, a, leaf, b]
    assert spans.self_times(tree) == pytest.approx([6.0, 2.5, 0.5, 1.0])
    m = spans.layer_metrics(tree)
    assert m["cli.self_s"] == pytest.approx(6.0)
    assert m["counting.self_s"] == pytest.approx(3.5)
    assert m["field.self_s"] == pytest.approx(0.5)
    assert m["counting.setspec.total_s"] == pytest.approx(3.0)
    assert m["counting.energy.total_s"] == pytest.approx(1.0)
    # self times partition the root span
    assert sum(m[f"{layer}.self_s"] for layer in spans.LAYERS) == pytest.approx(10.0)


def test_overlapping_children_are_covered_once():
    root = _span("torus.weyl_defect", 0.0, 10.0)
    tree = [root, _span("torus.character_sum", 1.0, 5.0, root), _span("torus.character_sum", 3.0, 6.0, root)]
    assert spans.self_times(tree)[0] == pytest.approx(5.0)


def _bindings():
    mods = [m for n, m in sys.modules.items() if n == "uniformity" or n.startswith("uniformity.")]
    classes = [
        getattr(sys.modules[f"uniformity.{layer}"], name)
        for layer, by_class in spans._EXTRA_METHODS.items()
        for name in by_class
    ]
    return [(owner, dict(vars(owner))) for owner in mods + classes]


def test_install_then_restore_leaves_every_binding_identical():
    before = _bindings()
    original = uniformity.counting.count_in_set
    rec = spans.Recorder()
    patched = rec.install()
    try:
        assert patched > 90
        # one wrapper serves every module that binds the function
        assert uniformity.cli.count_in_set is uniformity.counting.count_in_set is not original
        assert uniformity.cli.count_in_set.__wrapped__ is original
        uniformity.field.is_prime(101)
        uniformity.binpoly.parse_poly("x + 1") * 2
    finally:
        rec.restore()
    names = {s[0] for s in rec.spans}
    assert {"field.is_prime", "binpoly.parse_poly", "binpoly.IntPoly.__mul__"} <= names
    for owner, attrs in before:
        now = vars(owner)
        assert set(now) == set(attrs)
        for key, value in attrs.items():
            assert now[key] is value, f"{owner.__name__}.{key} was not restored"


@pytest.mark.parametrize("p", [3, 5, 31, 101])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_energy_reference_matches_brute_force(p, seed):
    A = tasks.random_set(p, seed, density=0.4)
    assert tasks.energy_ref(A) == oracles.brute_energy(np.nonzero(A)[0].tolist(), p)


@pytest.mark.parametrize("p", [5, 31])
def test_energy_reference_gives_the_u2_norm_of_the_indicator(p):
    A = tasks.random_set(p, 4)
    values = [complex(v) for v in A.astype(float)]
    assert tasks.energy_ref(A) / p**3 == pytest.approx(oracles.brute_gowers_power(values, 2, p), rel=1e-12)


@pytest.mark.parametrize("seed", [0, 3])
def test_count_references_match_brute_force(seed):
    p = 31
    A = tasks.random_set(p, seed)
    members = np.nonzero(A)[0].tolist()
    affine = [lambda x, y: x, lambda x, y: x + y, lambda x, y: x + y * y, lambda x, y: x + y + y * y]
    generic = [lambda x, y: x, lambda x, y: x + y, lambda x, y: x * x + y]
    cube = [lambda x, y, z: x, lambda x, y, z: x + y, lambda x, y, z: x + z, lambda x, y, z: x + y + z]
    assert tasks.scan_map_count(A) == oracles.brute_count(members, affine, p, 2)
    assert tasks.generic_map_count(A) == oracles.brute_count(members, generic, p, 2)
    assert tasks.energy_ref(A) == oracles.brute_count(members, cube, p, 3)


def test_norm_references_match_brute_force():
    f = tasks.random_bounded(7, 5)
    for s in (3, 4):
        assert tasks.gowers_power(f, s) == pytest.approx(oracles.brute_gowers_power(f.tolist(), s, 7), abs=1e-12)
    best, (a2, a1) = tasks.bias3(f)
    assert best == pytest.approx(oracles.brute_bias(f.tolist(), 3, 7), abs=1e-12)
    assert tasks.bias3_at(f, a2, a1) == pytest.approx(best, abs=1e-12)


def test_relation_recheck_catches_a_wrong_coefficient():
    doc = json.loads(tasks.GOLDEN.read_text())["relations"]
    assert tasks._relations_hold(doc) is None
    terms = next(q["terms"] for q in doc["relations"][0]["outer"] if q["terms"])
    terms[0][1] = str(Fraction(terms[0][1]) + 1)
    assert tasks._relations_hold(doc) == "relation 0 does not vanish"
