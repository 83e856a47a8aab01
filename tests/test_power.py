import pytest

from snra import fsm, power
from snra.dbn import DbnModel
from snra.errors import DimensionError


def test_utilization_rows_match_reference_power():
    table = power.load_reference()
    for record in table.utilization:
        milliwatts = power.topology_power(record.topology, power.SRAM, table)
        assert milliwatts == pytest.approx(record.reference_power_mw, rel=0.02)


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


@pytest.mark.parametrize("topology", [(), (784,), (784, 0)])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_reject_bad_topologies(entry, topology):
    with pytest.raises(DimensionError):
        ENTRY_POINTS[entry](topology)


def test_parse_topology():
    assert fsm.parse_topology(" 784X500x10 ") == (784, 500, 10)
    for bad in ("784x", "abc"):
        with pytest.raises(DimensionError):
            fsm.parse_topology(bad)


def test_largest_rbm_picks_most_synapses():
    assert power.largest_rbm((784, 500, 800, 10)) == (500, 800)
