"""The benchmark's layer trace still finds and calls every traced layer.

`perfbench/layertrace.py` patches each traced function at the names its
callers look it up by.  These tests read that table (and change nothing
under `perfbench/`): every site must hold one and the same function, and
a tiny traced construction must call each layer of the split stage, with
`hinges_at` running exactly once per stage; with every stage checked,
`verify_stage` runs once per stage and `verify_factorization` once.
"""

import importlib
import os
import sys
from types import SimpleNamespace

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)
import layertrace  # noqa: E402

STAGE_LAYERS = (
    "detach.split_step",
    "wings.wing_decompositions",
    "laminar.build_wing_family",
    "laminar.build_cell_family",
    "laminar.equalized_select",
    "hypercore.ColoredMultiHypergraph.hinges_at",
    "hypercore.ColoredMultiHypergraph.move_hinges",
)


@pytest.fixture
def pkg():
    modules = {path.split(".")[0] for sites in layertrace.SITES.values() for path, _ in sites}
    return SimpleNamespace(**{m: importlib.import_module(f"hypfactor.{m}") for m in modules})


def test_every_site_resolves_to_one_function(pkg):
    for name, sites in layertrace.SITES.items():
        found = {getattr(layertrace._resolve(pkg, path), attr) for path, attr in sites}
        assert len(found) == 1, name
        assert callable(found.pop()), name


def test_traced_construction_calls_every_stage_layer(pkg):
    p = pkg.detach.Params(6, 3, 1, (2, 2, 2, 2, 2))
    tracer = layertrace.LayerTracer()
    tracer.install(pkg)
    try:
        f = pkg.detach.construct(p, seed=0, check_mode="off")
    finally:
        tracer.remove()
    assert pkg.verify.verify_factorization(f).overall
    _, calls = tracer.layer_times()
    stages = p.n - 1
    assert calls["detach.split_step"] == stages
    for name in STAGE_LAYERS:
        assert calls[name] >= 1, name
    assert calls["hypercore.ColoredMultiHypergraph.hinges_at"] == stages
    assert tracer.counts["laminar.ground_hinges"] > 0


def test_traced_full_check_verifies_each_stage_once(pkg):
    p = pkg.detach.Params(6, 3, 1, (2, 2, 2, 2, 2))
    tracer = layertrace.LayerTracer()
    tracer.install(pkg)
    try:
        pkg.detach.construct(p, seed=0, check_mode="full")
    finally:
        tracer.remove()
    _, calls = tracer.layer_times()
    assert calls["verify.verify_stage"] == p.n - 1
    assert calls["verify.verify_factorization"] == 1
