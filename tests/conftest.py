"""Shared fixtures for the test suite.

Everything here is deliberately small: unit tests exercise hand-built
channels and netlists; integration tests use generated circuits of a
few dozen cells so the whole suite stays fast.
"""

from __future__ import annotations

import importlib.util
import random
from pathlib import Path

import pytest

from repro.arch import (
    Architecture,
    FabricSpec,
    Technology,
    act1_like,
    mixed_segmentation,
    uniform_segmentation,
)
from repro.netlist import (
    Cell,
    CircuitSpec,
    Net,
    build_netlist,
    generate,
    tiny,
)
from repro.place import clustered_placement, random_placement
from repro.route import IncrementalRouter, RoutingState


@pytest.fixture
def rng():
    return random.Random(1234)


@pytest.fixture
def tech():
    return Technology()


@pytest.fixture
def tiny_netlist():
    """A 24-cell generated circuit (valid by construction)."""
    return tiny(seed=1)


@pytest.fixture
def small_netlist():
    """A 60-cell generated circuit for flow-level tests."""
    return generate(CircuitSpec("small", num_cells=60, seed=7, depth=5))


@pytest.fixture
def micro_netlist():
    """A tiny hand-built netlist: 2 PIs, 2 comb cells, 1 FF, 1 PO.

    Structure::

        pi0 -> c0 -> c1 -> po0
        pi1 ---^      \\-> ff0
    """
    cells = [
        Cell("pi0", "input"),
        Cell("pi1", "input"),
        Cell("c0", "comb", num_inputs=2),
        Cell("c1", "comb", num_inputs=1),
        Cell("ff0", "seq", num_inputs=1),
        Cell("po0", "output", num_inputs=1),
    ]
    nets = [
        Net("n_pi0", ("pi0", "pad_out"), (("c0", "i0"),)),
        Net("n_pi1", ("pi1", "pad_out"), (("c0", "i1"),)),
        Net("n_c0", ("c0", "y"), (("c1", "i0"),)),
        Net("n_c1", ("c1", "y"), (("po0", "pad_in"), ("ff0", "d"))),
    ]
    return build_netlist("micro", cells, nets)


#: Committed fixtures: golden traces, ledger, and observatory page.
DATA = Path(__file__).parent / "data"


def fixture_generator():
    """``data/make_ledger_fixture.py``, which wrote the ledger fixtures
    (its ``sim_config`` and ``fixture_design`` define those runs)."""
    spec = importlib.util.spec_from_file_location(
        "make_ledger_fixture", DATA / "make_ledger_fixture.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def architecture_for(netlist, tracks=16, vtracks=6, utilization=0.8) -> Architecture:
    return act1_like(
        num_io=len(netlist.cells_of_kind("input", "output")),
        num_logic=len(netlist.cells_of_kind("comb", "seq")),
        tracks_per_channel=tracks,
        vtracks_per_column=vtracks,
        utilization=utilization,
    )


@pytest.fixture
def tiny_arch(tiny_netlist):
    return architecture_for(tiny_netlist)


@pytest.fixture
def micro_arch(micro_netlist):
    return architecture_for(micro_netlist, tracks=8, vtracks=4)


@pytest.fixture
def routed_tiny(tiny_netlist, tiny_arch, rng):
    """(placement, routing state) of the tiny netlist, fully repaired."""
    fabric = tiny_arch.build()
    placement = clustered_placement(tiny_netlist, fabric, rng)
    state = RoutingState(placement)
    IncrementalRouter(state).route_all_from_scratch()
    return placement, state


@pytest.fixture
def random_routed_tiny(tiny_netlist, tiny_arch, rng):
    fabric = tiny_arch.build()
    placement = random_placement(tiny_netlist, fabric, rng)
    state = RoutingState(placement)
    IncrementalRouter(state).route_all_from_scratch()
    return placement, state


def make_spec(rows=4, cols=12, tracks=6, vtracks=4, io_cols=1, scheme=None):
    """A small FabricSpec for unit tests."""
    kwargs = {}
    if scheme is not None:
        kwargs["channel_scheme"] = scheme
    return FabricSpec(
        rows=rows,
        cols=cols,
        tracks_per_channel=tracks,
        vtracks_per_column=vtracks,
        io_cols=io_cols,
        **kwargs,
    )


def uniform_spec(rows=4, cols=12, tracks=6, seg_len=4):
    return make_spec(
        rows,
        cols,
        tracks,
        scheme=lambda width, t: uniform_segmentation(width, t, seg_len),
    )
