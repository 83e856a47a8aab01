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
"""

from dataclasses import dataclass

from .array import SignalFrame
from .bits import bits_from_string, bits_to_string, ensure_bits
from .errors import ProtocolError
from .fsm import CLOCK_PERIOD_S, State, update_frame

# '$' is skipped so identifier codes never collide with VCD keywords.
_ID_CODES = "!\"#%&'("
_SIGNAL_ORDER = ("CLK", "STATE", "RWL", "WWL", "BL", "SL", "COUNTER")
# Timestamps are in 1 ns ticks.
_TICKS_PER_CLOCK = round(CLOCK_PERIOD_S * 1e9)


@dataclass
class TraceStep:
    """One clock of observable controller state."""

    frame: SignalFrame
    state: int
    counter: int


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
    released = frame.rwl == 1
    return {
        "CLK": clk,
        "STATE": format(int(step.state), "02b"),
        "RWL": str(int(frame.rwl)),
        "WWL": bits_to_string(frame.wwl),
        "BL": "z" * n_visible if released else bits_to_string(frame.bl),
        "SL": "z" * n_visible if released else bits_to_string(frame.sl),
        "COUNTER": format(step.counter, f"0{_counter_width(n_hidden)}b"),
    }


def write_vcd(steps, path=None):
    """Render trace steps as VCD text; optionally write it to a file."""
    if not steps:
        raise ProtocolError("cannot dump an empty trace")
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
    lines = ["$timescale 1ns $end", "$scope module cd_fsm $end"]
    for name in _SIGNAL_ORDER:
        width = widths[name]
        rng = f" [{width - 1}:0]" if width > 1 else ""
        lines.append(f"$var wire {width} {ids[name]} {name}{rng} $end")
    lines.append("$upscope $end")
    lines.append("$enddefinitions $end")

    idle = TraceStep(SignalFrame.read_frame(n_visible, n_hidden), State.FEED_FORWARD, 0)
    snapshots = [_step_values(step, n_visible, n_hidden, "1" if k % 2 == 0 else "0")
                 for k, step in enumerate([*steps, idle])]
    previous = None
    for k, snapshot in enumerate(snapshots):
        lines.append(f"#{k * _TICKS_PER_CLOCK}")
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
        raise ProtocolError(f"VCD declares no variable {name}")


def _malformed(number, line):
    return ProtocolError(f"malformed VCD line {number}: {line.strip()!r}")


def parse_vcd(text):
    """Minimal VCD reader covering the subset this package writes.

    A line it cannot read raises ``ProtocolError`` naming that line.
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
            if len(tokens) < 5 or not tokens[2].isdecimal():
                raise _malformed(number, line)
            variables.append(VcdVar(name=tokens[4], width=int(tokens[2]),
                                    code=tokens[3]))
        elif tokens[0] == "$enddefinitions":
            break
    by_code = {var.code: var.name for var in variables}
    snapshots = []
    current = {}
    time = None
    for number, line in lines:
        token = line.strip()
        if not token or token in ("$dumpvars", "$end"):
            continue
        if token.startswith("#"):
            if not token[1:].isdecimal():
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
        if code not in by_code:
            raise _malformed(number, line)
        current[by_code[code]] = value
    if time is not None:
        snapshots.append((time, dict(current)))
    return VcdTrace(timescale=timescale, variables=variables, snapshots=snapshots)


def steps_from_vcd(trace):
    """Rebuild trace steps from a parsed dump (final idle snapshot dropped);
    a step it cannot read raises ``ProtocolError`` naming its timestamp."""
    n_visible = trace.width("BL")
    n_hidden = trace.width("WWL")
    steps = []
    for time, values in trace.snapshots[:-1]:
        try:
            state = int(values["STATE"], 2)
            counter = int(values["COUNTER"], 2)
            if values["RWL"] == "1":
                frame = SignalFrame.read_frame(n_visible, n_hidden)
            else:
                frame = SignalFrame(0, bits_from_string(values["WWL"]),
                                    bits_from_string(values["BL"]),
                                    bits_from_string(values["SL"]))
        except (KeyError, ValueError) as exc:
            raise ProtocolError(f"unreadable VCD step at #{time}: {exc!r}") from None
        steps.append(TraceStep(frame, state, counter))
    return steps
