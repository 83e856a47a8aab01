"""Fabric resource and power model for the training controller.

Total power is summed over controller stages as A_i * p_read + I_i *
p_standby, where A_i and I_i count active and idle LUT-FF pairs.  The
stage accounting reconstructs the reference utilization table: controller
size follows the largest RBM of the topology, one stage is counted per
RBM, and for multi-stage networks one controller's worth of pairs sits
idle while the (reconfigured) fabric trains the later stages.  Fabrics
with gated idle storage pay no standby power at all.

All technology constants and utilization records live in the bundled
``data/lut_reference.txt``; nothing numeric is hard-coded here.  Every
function that takes a topology validates it with ``fsm.layer_sizes``.
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
    write_uw: float
    static_uw: float
    gated_idle: bool
    read_delay_ps: float
    write_delay_ns: float
    read_energy_aj: float
    write_energy_fj: float

    @property
    def standby_uw(self):
        """Effective idle power: zero when idle LUTs are power-gated."""
        return 0.0 if self.gated_idle else self.static_uw


@dataclass(frozen=True)
class UtilizationRecord:
    """Synthesized controller utilization for one network topology."""

    topology: tuple
    slice_registers: int
    slice_luts: int
    fully_used_lut_ffs: int
    reference_power_mw: float


class PowerTable:
    """Bundled technology constants plus utilization records."""

    def __init__(self, techs, utilization):
        self.techs = dict(techs)
        self.utilization = list(utilization)

    def tech(self, name):
        key = normalize_tech(name)
        if key not in self.techs:
            known = ", ".join(sorted(self.techs))
            raise UnknownTechnologyError(f"unknown technology {name!r} (known: {known})")
        return self.techs[key]

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


def normalize_tech(name):
    return str(name).strip().lower().replace("_", "-")


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
            name = normalize_tech(fields[1])
            techs[name] = LutTech(
                name=name,
                mos_count=int(fields[2]),
                mtj_count=int(fields[3]),
                read_uw=float(fields[4]),
                write_uw=float(fields[5]),
                static_uw=float(fields[6]),
                gated_idle=_parse_bool(fields[7]),
                read_delay_ps=float(fields[8]),
                write_delay_ns=float(fields[9]),
                read_energy_aj=float(fields[10]),
                write_energy_fj=float(fields[11]),
            )
        elif kind == "utilization":
            utilization.append(UtilizationRecord(
                topology=parse_topology(fields[1]),
                slice_registers=int(fields[2]),
                slice_luts=int(fields[3]),
                fully_used_lut_ffs=int(fields[4]),
                reference_power_mw=float(fields[5]),
            ))
        else:
            raise ValueError(f"unknown record type {kind!r} in reference data")
    return PowerTable(techs, utilization)


def power_total(active_idle_pairs, tech, table=None):
    """Sum A_i * p_read + I_i * p_standby over stages, in mW."""
    table = table if table is not None else load_reference()
    record = table.tech(tech) if isinstance(tech, str) else tech
    total_uw = 0.0
    for active, idle in active_idle_pairs:
        if active < 0 or idle < 0:
            raise ValueError("pair counts must be non-negative")
        total_uw += active * record.read_uw + idle * record.standby_uw
    return total_uw / 1000.0


def stage_pairs(topology, table=None):
    """(active, idle) LUT-FF pair counts per controller stage.

    One stage per RBM, each sized by the largest RBM's controller; in
    multi-stage networks a single resident controller idles alongside.
    """
    table = table if table is not None else load_reference()
    topology = layer_sizes(topology)
    pairs = table.record_for(topology).fully_used_lut_ffs
    stages = len(topology) - 1
    if stages == 1:
        return [(pairs, 0)]
    return [(pairs, pairs)] + [(pairs, 0)] * (stages - 2)


def topology_power(topology, tech, table=None):
    """Total controller power for a topology, in mW."""
    table = table if table is not None else load_reference()
    return power_total(stage_pairs(topology, table), tech, table)


def device_counts(lut_count, tech, table=None):
    """(MOS, MTJ) device totals for a LUT budget."""
    if lut_count < 0:
        raise ValueError(f"lut_count must be non-negative, got {lut_count}")
    table = table if table is not None else load_reference()
    record = table.tech(tech) if isinstance(tech, str) else tech
    return lut_count * record.mos_count, lut_count * record.mtj_count


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
        sram_mw = topology_power(topology, sram, table)
        alt_mw = topology_power(topology, alt, table)
        luts = table.record_for(topology).slice_luts
        sram_mos, _ = device_counts(luts, sram, table)
        alt_mos, alt_mtj = device_counts(luts, alt, table)
        rows.append([
            format_topology(topology),
            f"{sram_mw:.2f}",
            f"{alt_mw:.2f}",
            f"{100.0 * (1.0 - alt_mw / sram_mw):.1f}",
            str(sram_mos),
            str(alt_mos),
            str(alt_mtj),
            f"{100.0 * (1.0 - alt.mos_count / sram.mos_count):.1f}",
        ])
    if csv_path is not None:
        with open(csv_path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(rows)
    widths = [max(len(cell) for cell in column)
              for column in zip(header, *rows)] if rows else [len(h) for h in header]
    lines = ["  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip()
             for line in [header, *rows]]
    return "\n".join(lines)
