import struct

import numpy as np
import pytest

from snra import fsm, power
from snra.dbn import DbnModel
from snra.errors import DimensionError, UnknownTechnologyError


def test_utilization_rows_match_reference_power():
    table = power.load_reference()
    for record in table.utilization:
        milliwatts = power.topology_power(record.topology, power.SRAM, table)
        assert milliwatts == pytest.approx(record.reference_power_mw, rel=0.02)


@pytest.mark.parametrize("topology, pairs", [
    ("784x10", [(51, 0)]),
    ("784x500x10", [(1771, 1771)]),
    ("784x800x10", [(2421, 2421)]),
    ("784x500x500x10", [(1771, 1771), (1771, 0)]),
    ("784x800x800x10", [(2421, 2421), (2421, 0)]),
])
def test_stage_pairs_of_the_reference_rows(topology, pairs):
    # n RBMs count max(1, n - 1) stages; the first of two or more carries
    # one idle controller.  One stage per RBM would put 784x500x10 at
    # 25.08 mW, not the reference 14.2 mW.
    assert power.stage_pairs(power.parse_topology(topology)) == pairs


def test_comparison_rows_meet_the_abstracts_claims():
    # The SHE-MTJ fabric needs over 80% less power and at least 50% fewer
    # MOS devices than the SRAM fabric, for every reference topology.
    header, *rows = [line.split() for line in power.comparison_report().splitlines()]
    assert len(rows) == len(power.load_reference().utilization)
    for row in rows:
        cells = dict(zip(header, row))
        assert float(cells["power_reduction_pct"]) > 80
        assert float(cells["mos_reduction_pct"]) >= 50


def test_comparison_report_without_rows_is_its_header():
    assert power.comparison_report([]) == (
        "topology  sram_mw  she_mtj_mw  power_reduction_pct  "
        "sram_mos  she_mtj_mos  she_mtj_mtj  mos_reduction_pct")


@pytest.mark.parametrize("tech", ["SRAM", "she_mtj", "tape"])
def test_technologies_are_looked_up_by_exact_name(tech):
    with pytest.raises(UnknownTechnologyError):
        power.topology_power((784, 10), tech)


ENTRY_POINTS = {
    "DbnModel": DbnModel,
    "parse_topology": lambda t: fsm.parse_topology(power.format_topology(t)),
    "train_clock_budget": lambda t: fsm.train_clock_budget(t, 1, 1),
    "stage_pairs": power.stage_pairs,
    "largest_rbm": power.largest_rbm,
    "topology_power": lambda t: power.topology_power(t, power.SRAM),
    "record_for": lambda t: power.load_reference().record_for(t),
    "comparison_report": lambda t: power.comparison_report([t]),
}


@pytest.mark.parametrize("topology", [(), (784,), (784, 0), (784, 2**32, 10)])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_reject_bad_topologies(entry, topology):
    with pytest.raises(DimensionError):
        ENTRY_POINTS[entry](topology)


@pytest.mark.parametrize("topology", [
    pytest.param("784", id="digits"),
    pytest.param(b"784", id="bytes"),
    pytest.param("784x10", id="text"),
    pytest.param(784, id="int"),
    pytest.param((784.9, 10.2), id="floats"),
    pytest.param((np.float64(784.0), 10), id="numpy-float"),
    pytest.param(("784", "10"), id="strings"),
])
@pytest.mark.parametrize("entry", sorted(set(ENTRY_POINTS) - {"parse_topology"}))
def test_entry_points_reject_non_integer_topologies(entry, topology):
    # Only parse_topology reads text; no size is truncated.
    with pytest.raises(DimensionError):
        ENTRY_POINTS[entry](topology)


@pytest.mark.parametrize("topology", [
    pytest.param((np.int64(784), np.uint32(500), np.uint8(10)), id="numpy-scalars"),
    pytest.param(np.array([784, 500, 10]), id="numpy-array"),
    pytest.param(struct.unpack("<3I", struct.pack("<3I", 784, 500, 10)), id="struct"),
])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_take_numpy_and_struct_integers(entry, topology):
    assert fsm.layer_sizes(topology) == (784, 500, 10)
    results = [ENTRY_POINTS[entry](t) for t in (topology, (784, 500, 10))]
    if entry == "DbnModel":
        results = [(model.topology, model.fingerprint()) for model in results]
    assert results[0] == results[1]


def test_parse_topology():
    assert fsm.parse_topology(" 784X500x10 ") == (784, 500, 10)
    # The model file stores each size as u32.
    assert fsm.parse_topology("1x4294967295") == (1, 2**32 - 1)
    for bad in ("784x", "abc"):
        with pytest.raises(DimensionError):
            fsm.parse_topology(bad)


def test_largest_rbm_picks_most_synapses():
    assert power.largest_rbm((784, 500, 800, 10)) == (500, 800)
