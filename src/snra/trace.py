"""Waveform capture: controller signal frames to VCD text and back.

The dump carries CLK, STATE, RWL, WWL, BL, SL, and COUNTER.  One
timestamp is emitted per controller clock (rising edge) plus a final
timestamp that returns the rails to the idle read condition, so a run of
n clocks produces n + 1 timestamps.  CLK is drawn toggling once per
timestamp as a cadence marker.  Vector values are written MSB first, so
register element 0 is the rightmost character; released bit and source
lines are dumped as 'z'.
"""

from dataclasses import dataclass

from .array import READ, WRITE, SignalFrame
from .bits import bits_from_string, bits_to_string, ensure_bits
from .errors import ProtocolError
from .fsm import State, update_frame

# '$' is skipped so identifier codes never collide with VCD keywords.
_ID_CODES = "!\"#%&'("
_SIGNAL_ORDER = ("CLK", "STATE", "RWL", "WWL", "BL", "SL", "COUNTER")


@dataclass(frozen=True)
class TraceConfig:
    """Dump timing: 1 ns timescale, 2 ns clock (500 MHz) by default."""

    timescale_ns: int = 1
    clock_period_ns: int = 2
    module: str = "cd_fsm"

    def __post_init__(self):
        if self.timescale_ns < 1:
            raise ValueError("timescale must be at least 1 ns")
        if self.clock_period_ns < 1 or self.clock_period_ns % self.timescale_ns:
            raise ValueError("clock period must be a positive multiple of the timescale")

    @property
    def ticks_per_clock(self):
        return self.clock_period_ns // self.timescale_ns


@dataclass
class TraceStep:
    """One clock of observable controller state."""

    frame: SignalFrame
    state: int
    counter: int

    def __eq__(self, other):
        if not isinstance(other, TraceStep):
            return NotImplemented
        return (self.frame == other.frame and int(self.state) == int(other.state)
                and self.counter == other.counter)


def iteration_steps(v, h, v_bar, h_bar):
    """Replay one full CD iteration from known register values.

    Three read clocks (feed-forward, feed-back, reconstruct) followed by
    one write clock per hidden column; no sampling is involved because
    all four registers are given.
    """
    v = ensure_bits(v, name="v register")
    h = ensure_bits(h, name="h register")
    v_bar = ensure_bits(v_bar, v.size, "v_bar register")
    h_bar = ensure_bits(h_bar, h.size, "h_bar register")
    read = SignalFrame.read_frame(v.size, h.size)
    steps = [
        TraceStep(read, State.FEED_FORWARD, 0),
        TraceStep(read, State.FEED_BACK, 0),
        TraceStep(read, State.RECONSTRUCT, 0),
    ]
    for column in range(h.size):
        steps.append(TraceStep(update_frame(v, h, v_bar, h_bar, column),
                               State.UPDATE, column))
    return steps


def _counter_width(n_hidden):
    """Width of the controller's column counter: ceil(log2(n_hidden + 1))."""
    return int(n_hidden).bit_length()


def _step_values(step, n_visible, n_hidden, clk):
    frame = step.frame
    released = frame.phase == READ
    return {
        "CLK": clk,
        "STATE": format(int(step.state), "02b"),
        "RWL": str(int(frame.rwl)),
        "WWL": bits_to_string(frame.wwl),
        "BL": "z" * n_visible if released else bits_to_string(frame.bl),
        "SL": "z" * n_visible if released else bits_to_string(frame.sl),
        "COUNTER": format(step.counter, f"0{_counter_width(n_hidden)}b"),
    }


def _idle_values(n_visible, n_hidden, clk):
    return {
        "CLK": clk,
        "STATE": format(int(State.FEED_FORWARD), "02b"),
        "RWL": "1",
        "WWL": "0" * n_hidden,
        "BL": "z" * n_visible,
        "SL": "z" * n_visible,
        "COUNTER": "0" * _counter_width(n_hidden),
    }


def write_vcd(steps, config=None, path=None):
    """Render trace steps as VCD text; optionally write it to a file."""
    if not steps:
        raise ProtocolError("cannot dump an empty trace")
    config = config if config is not None else TraceConfig()
    n_visible = steps[0].frame.bl.size
    n_hidden = steps[0].frame.wwl.size
    widths = {
        "CLK": 1,
        "STATE": 2,
        "RWL": 1,
        "WWL": n_hidden,
        "BL": n_visible,
        "SL": n_visible,
        "COUNTER": _counter_width(n_hidden),
    }
    ids = dict(zip(_SIGNAL_ORDER, _ID_CODES))
    lines = [f"$timescale {config.timescale_ns}ns $end",
             f"$scope module {config.module} $end"]
    for name in _SIGNAL_ORDER:
        width = widths[name]
        rng = f" [{width - 1}:0]" if width > 1 else ""
        lines.append(f"$var wire {width} {ids[name]} {name}{rng} $end")
    lines.append("$upscope $end")
    lines.append("$enddefinitions $end")

    snapshots = [_step_values(step, n_visible, n_hidden, "1" if k % 2 == 0 else "0")
                 for k, step in enumerate(steps)]
    snapshots.append(_idle_values(n_visible, n_hidden,
                                  "1" if len(steps) % 2 == 0 else "0"))
    previous = None
    for k, snapshot in enumerate(snapshots):
        lines.append(f"#{k * config.ticks_per_clock}")
        if previous is None:
            lines.append("$dumpvars")
        for name in _SIGNAL_ORDER:
            value = snapshot[name]
            if previous is not None and previous[name] == value:
                continue
            if widths[name] == 1:
                lines.append(f"{value}{ids[name]}")
            else:
                lines.append(f"b{value} {ids[name]}")
        if previous is None:
            lines.append("$end")
        previous = snapshot
    text = "\n".join(lines) + "\n"
    if path is not None:
        with open(path, "w") as handle:
            handle.write(text)
    return text


@dataclass
class VcdVar:
    name: str
    width: int
    code: str


@dataclass
class VcdTrace:
    """Parsed dump: declared variables and carried-forward value snapshots."""

    timescale: str
    variables: list
    snapshots: list

    def width(self, name):
        for var in self.variables:
            if var.name == name:
                return var.width
        raise KeyError(name)


def parse_vcd(text):
    """Minimal VCD reader covering the subset this package writes."""
    lines = iter(text.splitlines())
    timescale = ""
    variables = []
    for line in lines:
        tokens = line.split()
        if not tokens:
            continue
        if tokens[0] == "$timescale":
            timescale = " ".join(tokens[1:-1])
        elif tokens[0] == "$var":
            # $var wire <width> <code> <name> [range] $end
            variables.append(VcdVar(name=tokens[4], width=int(tokens[2]),
                                    code=tokens[3]))
        elif tokens[0] == "$enddefinitions":
            break
    by_code = {var.code: var.name for var in variables}
    snapshots = []
    current = {}
    time = None
    for line in lines:
        token = line.strip()
        if not token or token in ("$dumpvars", "$end"):
            continue
        if token.startswith("#"):
            if time is not None:
                snapshots.append((time, dict(current)))
            time = int(token[1:])
        elif token.startswith("b"):
            value, code = token[1:].split()
            current[by_code[code]] = value
        else:
            value, code = token[0], token[1:]
            current[by_code[code]] = value
    if time is not None:
        snapshots.append((time, dict(current)))
    return VcdTrace(timescale=timescale, variables=variables, snapshots=snapshots)


def steps_from_vcd(trace):
    """Rebuild trace steps from a parsed dump (final idle snapshot dropped)."""
    n_visible = trace.width("BL")
    n_hidden = trace.width("WWL")
    steps = []
    for _, values in trace.snapshots[:-1]:
        state = int(values["STATE"], 2)
        counter = int(values["COUNTER"], 2)
        if values["RWL"] == "1":
            frame = SignalFrame.read_frame(n_visible, n_hidden)
        else:
            frame = SignalFrame(WRITE, 0, bits_from_string(values["WWL"]),
                                bits_from_string(values["BL"]),
                                bits_from_string(values["SL"]))
        steps.append(TraceStep(frame, state, counter))
    return steps
