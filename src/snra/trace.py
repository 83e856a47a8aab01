"""Waveform capture: controller signal frames to VCD text and back.

The dump carries CLK, STATE, RWL, WWL, BL, SL, and COUNTER of module
``cd_fsm`` on a 1 ns timescale.  One timestamp is emitted per controller
clock (rising edge), spaced by the controller's clock period
(``fsm.CLOCK_PERIOD_S``, 2 ns at 500 MHz), plus a final timestamp that
returns the rails to the idle read condition: a read frame at
FEED_FORWARD with the counter at 0.  A run of n clocks therefore produces
n + 1 timestamps.  CLK is drawn toggling once per timestamp as a cadence
marker.  Vector values are written MSB first, so register element 0 is
the rightmost character; released bit and source lines are dumped as 'z'.
Every value is exactly as wide as its wire and holds only 0s and 1s, or 'z'
on BL and SL: ``write_vcd`` writes no other and ``parse_vcd`` reads no other.
A clock is checked once, when its ``TraceStep`` is built: ``write_vcd``
checks only that the steps' widths agree, and renders each rail wire with
one ``bits_to_string`` over the whole dump.  ``steps_from_vcd`` builds every
clock from its own dumped rails and accepts a dump only as ``write_vcd`` writes it.
"""

from dataclasses import dataclass

import numpy as np

from .array import SignalFrame
from .bits import bits_from_string, bits_to_string, ensure_bits, integer_setting
from .errors import ProtocolError
from .fsm import CLOCK_PERIOD_S, State, update_frame

# '$' is skipped so identifier codes never collide with VCD keywords.
_ID_CODES = "!\"#%&'("
_SIGNAL_ORDER = ("CLK", "STATE", "RWL", "WWL", "BL", "SL", "COUNTER")
# Timestamps are in 1 ns ticks.
_TICKS_PER_CLOCK = round(CLOCK_PERIOD_S * 1e9)


@dataclass(frozen=True)
class TraceStep:
    """One clock of observable controller state, checked once when built; a
    2-bit STATE and a COUNTER in [0, n_hidden] are kept as ints."""

    frame: SignalFrame
    state: int
    counter: int

    def __post_init__(self):
        if not isinstance(self.frame, SignalFrame):
            raise ProtocolError(f"frame must be a SignalFrame, got {type(self.frame).__name__}")
        try:
            state = integer_setting(self.state, "STATE", high=3)
            counter = integer_setting(self.counter, "COUNTER", high=self.frame.wwl.size)
        except ValueError as exc:
            raise ProtocolError(str(exc)) from None
        object.__setattr__(self, "state", state)
        object.__setattr__(self, "counter", counter)


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


def _rail_column(steps, name, at, width, rest):
    """Rail ``name`` of each step as MSB-first text, rendered at the steps
    ``at`` by one ``bits_to_string``; ``rest`` elsewhere and after the last."""
    # Reversed here and again by bits_to_string, the first step's rail comes first.
    rails = [getattr(steps[k].frame, name) for k in at[::-1]]
    text = bits_to_string(np.concatenate(rails or [np.zeros(0, np.uint8)]))
    column = [rest] * (len(steps) + 1)
    for k, start in zip(at, range(0, len(text), width)):
        column[k] = text[start:start + width]
    return column


def write_vcd(steps, path=None):
    """Render trace steps as VCD text; optionally write it to a file.

    Steps must be ``TraceStep``s, checked when built.  Another step, or a WWL
    or BL of another width than its wire, raises ``ProtocolError`` before any
    write."""
    if not steps:
        raise ProtocolError("cannot dump an empty trace")
    for k, step in enumerate(steps):
        if not isinstance(step, TraceStep):
            raise ProtocolError(f"step {k}: expected a TraceStep, got {type(step).__name__}")
    n_visible, n_hidden = steps[0].frame.bl.size, steps[0].frame.wwl.size
    # The column counter has ceil(log2(n_hidden + 1)) bits.
    widths = (1, 2, 1, n_hidden, n_visible, n_visible, n_hidden.bit_length())
    wires = tuple(zip(_SIGNAL_ORDER, _ID_CODES, widths))
    lines = ["$timescale 1ns $end", "$scope module cd_fsm $end"]
    for name, code, width in wires:
        rng = f" [{width - 1}:0]" if width > 1 else ""
        lines.append(f"$var wire {width} {code} {name}{rng} $end")
    lines += ["$upscope $end", "$enddefinitions $end"]

    for k, step in enumerate(steps):
        # A frame's rwl is 0 or 1, and its bl and sl are equally wide.
        sizes = (step.frame.wwl.size, step.frame.bl.size)
        for name, size, width in zip(_SIGNAL_ORDER[3:5], sizes, widths[3:5]):
            if size != width:
                raise ProtocolError(f"step {k} gives {name} {size} characters "
                                    f"for its {width}-bit wire")
    # The idle tail is a read clock at FEED_FORWARD with the counter at 0.
    writes = [k for k, step in enumerate(steps) if not step.frame.rwl]
    columns = (["1", "0"] * (len(steps) // 2 + 1),
               [format(step.state, "02b") for step in steps] + ["00"],
               [str(step.frame.rwl) for step in steps] + ["1"],
               _rail_column(steps, "wwl", range(len(steps)), n_hidden, "0" * n_hidden),
               _rail_column(steps, "bl", writes, n_visible, "z" * n_visible),
               _rail_column(steps, "sl", writes, n_visible, "z" * n_visible),
               [format(step.counter, f"0{widths[6]}b") for step in steps] + ["0" * widths[6]])
    previous = (None,) * len(wires)
    for k, values in enumerate(zip(*columns)):
        lines.append(f"#{k * _TICKS_PER_CLOCK}")
        if k == 0:
            lines.append("$dumpvars")
        for (_, code, width), value, old in zip(wires, values, previous):
            if value != old:
                lines.append(f"{value}{code}" if width == 1 else f"b{value} {code}")
        if k == 0:
            lines.append("$end")
        previous = values
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


def _malformed(number, line):
    return ProtocolError(f"malformed VCD line {number}: {line.strip()!r}")


def parse_vcd(text):
    """Minimal VCD reader covering the subset this package writes.

    A line it cannot read, a value of another width or other characters
    than its wire's included, raises ``ProtocolError`` naming that line.
    """
    lines = enumerate(text.splitlines(), start=1)
    timescale = ""
    variables = []
    for number, line in lines:
        tokens = line.split()
        if not tokens:
            continue
        if tokens[0] == "$timescale":
            timescale = " ".join(tokens[1:-1])
        elif tokens[0] == "$var":
            # $var wire <width> <code> <name> [range] $end
            # Only ASCII digits: str.isdecimal alone also reads other scripts' digits.
            if (len(tokens) < 5 or not (tokens[2].isascii() and tokens[2].isdecimal())
                    or int(tokens[2]) < 1):
                raise _malformed(number, line)
            variables.append(VcdVar(name=tokens[4], width=int(tokens[2]),
                                    code=tokens[3]))
        elif tokens[0] == "$enddefinitions":
            break
    by_code = {var.code: var for var in variables}
    snapshots = []
    current = {}
    time = None
    for number, line in lines:
        token = line.strip()
        if not token or token in ("$dumpvars", "$end"):
            continue
        if token.startswith("#"):
            if not (token[1:].isascii() and token[1:].isdecimal()):
                raise _malformed(number, line)
            if time is not None:
                snapshots.append((time, dict(current)))
            time = int(token[1:])
            continue
        if token.startswith("b"):
            try:
                value, code = token[1:].split()
            except ValueError:
                raise _malformed(number, line) from None
        else:
            value, code = token[0], token[1:]
        var = by_code.get(code)
        if (var is None or len(value) != var.width
                or value.strip("01z" if var.name in ("BL", "SL") else "01")):
            raise _malformed(number, line)
        current[var.name] = value
    if time is not None:
        snapshots.append((time, dict(current)))
    return VcdTrace(timescale=timescale, variables=variables, snapshots=snapshots)


def steps_from_vcd(trace):
    """Rebuild trace steps from a parsed dump, its final idle snapshot dropped:
    each clock's frame from its own RWL, WWL, BL and SL, a released 'z' read as
    0.  The dump must be ``write_vcd``'s dump of those steps; a step it cannot
    read, or a dump that differs, raises ``ProtocolError`` naming the first
    timestamp that differs, or the header."""
    steps = []
    for time, values in trace.snapshots[:-1]:
        try:
            rails = (bits_from_string(values[name].replace("z", "0"), name)
                     for name in ("WWL", "BL", "SL"))
            steps.append(TraceStep(SignalFrame(int(values["RWL"], 2), *rails),
                                   int(values["STATE"], 2), int(values["COUNTER"], 2)))
        except (KeyError, ValueError, ProtocolError) as exc:
            raise ProtocolError(f"unreadable VCD step at #{time}: {exc!r}") from None
    written = parse_vcd(write_vcd(steps))
    if (trace.timescale, trace.variables) != (written.timescale, written.variables):
        raise ProtocolError("VCD header differs from write_vcd's")
    for (time, values), expected in zip(trace.snapshots, written.snapshots):
        if (time, values) != expected:
            raise ProtocolError(f"VCD differs from write_vcd's dump of its steps at #{time}")
    return steps
