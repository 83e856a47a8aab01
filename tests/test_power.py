import pytest

from snra import fsm, power
from snra.dbn import DbnModel
from snra.errors import DimensionError, UnknownTechnologyError


def test_utilization_rows_match_reference_power():
    table = power.load_reference()
    for record in table.utilization:
        milliwatts = power.topology_power(record.topology, power.SRAM, table)
        assert milliwatts == pytest.approx(record.reference_power_mw, rel=0.02)


def test_comparison_rows_meet_the_abstracts_claims():
    # The SHE-MTJ fabric needs over 80% less power and at least 50% fewer
    # MOS devices than the SRAM fabric, for every reference topology.
    header, *rows = [line.split() for line in power.comparison_report().splitlines()]
    assert len(rows) == len(power.load_reference().utilization)
    for row in rows:
        cells = dict(zip(header, row))
        assert float(cells["power_reduction_pct"]) > 80
        assert float(cells["mos_reduction_pct"]) >= 50


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


def test_parse_topology():
    assert fsm.parse_topology(" 784X500x10 ") == (784, 500, 10)
    # The model file stores each size as u32.
    assert fsm.parse_topology("1x4294967295") == (1, 2**32 - 1)
    for bad in ("784x", "abc"):
        with pytest.raises(DimensionError):
            fsm.parse_topology(bad)


def test_largest_rbm_picks_most_synapses():
    assert power.largest_rbm((784, 500, 800, 10)) == (500, 800)
