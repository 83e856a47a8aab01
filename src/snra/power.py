"""Fabric resource and power model for the training controller.

Total power is summed over controller stages as A_i * p_read + I_i *
p_standby, where A_i and I_i count active and idle LUT-FF pairs.  The
stage accounting reconstructs the reference utilization table: controller
size follows the largest RBM of the topology, a network of n RBMs counts
max(1, n - 1) active stages, and with n >= 2 one controller's worth of
pairs sits idle while the (reconfigured) fabric trains the later stages.
(One stage per RBM would put 784x500x10 at 25.08 mW, not the reference
14.2 mW.)  Fabrics with gated idle storage pay no standby power at all.

All technology constants and utilization records live in the bundled
``data/lut_reference.txt``; nothing numeric is hard-coded here.  Only the
columns this model reads are parsed: the file also carries each LUT's
write power, delays and energies and each topology's slice registers,
which have no reader yet.  A technology is named exactly as in the file
(``SRAM`` is "sram", ``SHE_MTJ`` is "she-mtj"); any other name raises
``UnknownTechnologyError``.  Every function that takes a topology
validates it with ``fsm.layer_sizes``.
"""

import csv
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .errors import UnknownTechnologyError, UnknownTopologyError
from .fsm import layer_sizes, parse_topology

SRAM = "sram"
SHE_MTJ = "she-mtj"


@dataclass(frozen=True)
class LutTech:
    """Per-LUT device counts and electrical figures for one fabric."""

    name: str
    mos_count: int
    mtj_count: int
    read_uw: float
    static_uw: float
    gated_idle: bool

    @property
    def standby_uw(self):
        """Effective idle power: zero when idle LUTs are power-gated."""
        return 0.0 if self.gated_idle else self.static_uw


@dataclass(frozen=True)
class UtilizationRecord:
    """Synthesized controller utilization for one network topology."""

    topology: tuple
    slice_luts: int
    fully_used_lut_ffs: int
    reference_power_mw: float


class PowerTable:
    """Bundled technology constants plus utilization records."""

    def __init__(self, techs, utilization):
        self.techs = dict(techs)
        self.utilization = list(utilization)

    def tech(self, name):
        if name not in self.techs:
            known = ", ".join(sorted(self.techs))
            raise UnknownTechnologyError(f"unknown technology {name!r} (known: {known})")
        return self.techs[name]

    def record_for(self, topology):
        """Utilization record for a topology, by exact or largest-RBM match."""
        topology = layer_sizes(topology)
        for record in self.utilization:
            if record.topology == topology:
                return record
        wanted = largest_rbm(topology)
        for record in self.utilization:
            if largest_rbm(record.topology) == wanted:
                return record
        raise UnknownTopologyError(
            f"no utilization record for topology {format_topology(topology)} "
            f"(largest RBM {wanted[0]}x{wanted[1]})")


def format_topology(topology):
    return "x".join(str(int(n)) for n in topology)


def largest_rbm(topology):
    """The adjacent layer pair with the most synapses."""
    sizes = layer_sizes(topology)
    return max(zip(sizes[:-1], sizes[1:]), key=lambda p: p[0] * p[1])


def _parse_bool(token):
    if token in ("yes", "no"):
        return token == "yes"
    raise ValueError(f"expected yes/no, got {token!r}")


@lru_cache(maxsize=1)
def load_reference():
    """Parse the bundled reference data file once."""
    text = resources.files("snra").joinpath("data/lut_reference.txt").read_text()
    techs = {}
    utilization = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind = fields[0]
        if kind == "lut":
            techs[fields[1]] = LutTech(
                name=fields[1],
                mos_count=int(fields[2]),
                mtj_count=int(fields[3]),
                read_uw=float(fields[4]),
                static_uw=float(fields[6]),
                gated_idle=_parse_bool(fields[7]),
            )
        elif kind == "utilization":
            utilization.append(UtilizationRecord(
                topology=parse_topology(fields[1]),
                slice_luts=int(fields[3]),
                fully_used_lut_ffs=int(fields[4]),
                reference_power_mw=float(fields[5]),
            ))
        else:
            raise ValueError(f"unknown record type {kind!r} in reference data")
    return PowerTable(techs, utilization)


def stage_pairs(topology, table=None):
    """(active, idle) LUT-FF pair counts per controller stage.

    A network of n RBMs has max(1, n - 1) stages, each sized by the largest
    RBM's controller; with n >= 2 the first also counts one resident
    controller as idle, so 784x500x10 gives [(1771, 1771)].
    """
    table = table if table is not None else load_reference()
    topology = layer_sizes(topology)
    pairs = table.record_for(topology).fully_used_lut_ffs
    stages = len(topology) - 1
    if stages == 1:
        return [(pairs, 0)]
    return [(pairs, pairs)] + [(pairs, 0)] * (stages - 2)


def topology_power(topology, tech, table=None):
    """Total controller power for a topology on the named technology, in mW:
    A_i * p_read + I_i * p_standby summed over its stages."""
    table = table if table is not None else load_reference()
    pairs = stage_pairs(topology, table)
    record = table.tech(tech)
    total_uw = 0.0
    for active, idle in pairs:
        total_uw += active * record.read_uw + idle * record.standby_uw
    return total_uw / 1000.0


def comparison_report(topologies=None, csv_path=None, table=None):
    """SRAM vs gated-fabric comparison as aligned text; optional CSV copy."""
    table = table if table is not None else load_reference()
    if topologies is None:
        topologies = [record.topology for record in table.utilization]
    sram = table.tech(SRAM)
    alt = table.tech(SHE_MTJ)
    header = ["topology", "sram_mw", "she_mtj_mw", "power_reduction_pct",
              "sram_mos", "she_mtj_mos", "she_mtj_mtj", "mos_reduction_pct"]
    rows = []
    for topology in topologies:
        topology = layer_sizes(topology)
        sram_mw = topology_power(topology, SRAM, table)
        alt_mw = topology_power(topology, SHE_MTJ, table)
        luts = table.record_for(topology).slice_luts
        rows.append([
            format_topology(topology),
            f"{sram_mw:.2f}",
            f"{alt_mw:.2f}",
            f"{100.0 * (1.0 - alt_mw / sram_mw):.1f}",
            str(luts * sram.mos_count),
            str(luts * alt.mos_count),
            str(luts * alt.mtj_count),
            f"{100.0 * (1.0 - alt.mos_count / sram.mos_count):.1f}",
        ])
    if csv_path is not None:
        with open(csv_path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(rows)
    widths = [max(len(cell) for cell in column) for column in zip(header, *rows)]
    lines = ["  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip()
             for line in [header, *rows]]
    return "\n".join(lines)
