import dataclasses
import types

import numpy as np
import pytest

from snra.array import RbmArray, SignalFrame
from snra.bits import bits_to_string, ensure_bits
from snra.device import SynapseGrid
from snra.errors import DimensionError, ProtocolError
from snra.fsm import CLOCK_PERIOD_S, CdFsm, State
from snra.trace import (TraceStep, iteration_steps, parse_vcd, steps_from_vcd,
                        write_vcd)


def recorded_iteration(n_visible=5, n_hidden=3, seed=4):
    """Step a controller through one CD iteration, keeping every clock."""
    rng = np.random.default_rng(seed)
    crossbar = RbmArray(SynapseGrid.uniform_random(n_visible, n_hidden, rng))
    controller = CdFsm(n_visible, n_hidden)
    v = rng.integers(0, 2, n_visible)
    steps = []
    while True:
        state, counter = controller.state, controller.counter
        frame = controller.step(crossbar, v if state is State.FEED_FORWARD else None, rng)
        steps.append(TraceStep(frame, state, counter))
        if controller.state is State.FEED_FORWARD:
            return controller, steps


def _widths(trace):
    return {var.name: var.width for var in trace.variables}


def test_recorded_iteration_round_trips_through_vcd():
    # The counter wire is 1, 2, 3, 3 and 4 bits wide at these widths.
    for n_hidden in (3, 1, 4, 7, 8):
        controller, steps = recorded_iteration(n_hidden=n_hidden)
        assert len(steps) == controller.n_hidden + 3
        trace = parse_vcd(write_vcd(steps))
        assert _widths(trace)["COUNTER"] == n_hidden.bit_length()
        assert len(trace.snapshots) == len(steps) + 1
        assert steps_from_vcd(trace) == steps
        assert steps == iteration_steps(controller.v, controller.h,
                                        controller.v_bar, controller.h_bar)


def test_wide_dump_is_byte_identical_to_per_bit_rendering(monkeypatch):
    _, steps = recorded_iteration(n_visible=784, n_hidden=16, seed=9)
    text = write_vcd(steps)
    monkeypatch.setattr("snra.trace.bits_to_string", lambda bits: "".join(
        str(int(b)) for b in ensure_bits(bits)[::-1]))
    assert text == write_vcd(steps)
    assert steps_from_vcd(parse_vcd(text)) == steps


def reference_vcd(steps):
    """The dump written one step at a time, with three ``bits_to_string``
    calls per write clock: reference code that ``write_vcd``, which renders
    each rail wire once per dump, must match byte for byte."""
    names, codes = ("CLK", "STATE", "RWL", "WWL", "BL", "SL", "COUNTER"), "!\"#%&'("
    n_visible, n_hidden = steps[0].frame.bl.size, steps[0].frame.wwl.size
    width = n_hidden.bit_length()
    widths = (1, 2, 1, n_hidden, n_visible, n_visible, width)
    lines = ["$timescale 1ns $end", "$scope module cd_fsm $end"]
    for name, code, bits in zip(names, codes, widths):
        lines.append(f"$var wire {bits} {code} {name}" + (f" [{bits - 1}:0]" if bits > 1 else "")
                     + " $end")
    lines += ["$upscope $end", "$enddefinitions $end"]
    idle = TraceStep(SignalFrame.read_frame(n_visible, n_hidden), State.FEED_FORWARD, 0)
    previous = (None,) * len(names)
    for k, step in enumerate([*steps, idle]):
        frame = step.frame
        if frame.rwl:
            bl = sl = "z" * frame.bl.size
        else:
            bl, sl = bits_to_string(frame.bl), bits_to_string(frame.sl)
        values = ("1" if k % 2 == 0 else "0", format(int(step.state), "02b"), str(frame.rwl),
                  bits_to_string(frame.wwl), bl, sl, format(int(step.counter), f"0{width}b"))
        lines.append(f"#{k * round(CLOCK_PERIOD_S * 1e9)}")
        if k == 0:
            lines.append("$dumpvars")
        for code, bits, value, old in zip(codes, widths, values, previous):
            if value != old:
                lines.append(f"{value}{code}" if bits == 1 else f"b{value} {code}")
        if k == 0:
            lines.append("$end")
        previous = values
    return "\n".join(lines) + "\n"


def duck_frame(frame):
    """``frame`` as a plain namespace with the same rails, which no
    SignalFrame check has seen."""
    return types.SimpleNamespace(rwl=frame.rwl, wwl=frame.wwl, bl=frame.bl, sl=frame.sl)


class TestRenderingMatchesTheStepwiseWriter:
    def test_every_piece_of_a_recorded_iteration(self):
        _, steps = recorded_iteration(n_visible=784, n_hidden=64, seed=11)
        for piece in (19, 50):
            for start in range(len(steps) - piece + 1):
                part = steps[start:start + piece]
                assert write_vcd(part) == reference_vcd(part), (piece, start)

    def test_whole_wide_iteration(self):
        rng = np.random.default_rng(25)
        steps = iteration_steps(*(rng.integers(0, 2, n) for n in (784, 500, 784, 500)))
        assert write_vcd(steps) == reference_vcd(steps)

    @pytest.mark.parametrize("k", [0, 1, 3, 6])
    def test_one_step(self, k):
        # Steps 0-2 are read clocks and 3-6 write clocks.
        steps = iteration_steps([1, 0, 1], [1, 0, 1, 1], [0, 1, 1], [0, 1, 1, 0])
        assert write_vcd(steps[k:k + 1]) == reference_vcd(steps[k:k + 1])

    def test_read_frames_only(self):
        steps = iteration_steps([1, 0, 1], [1, 0], [0, 1, 1], [0, 1])[:3]
        text = write_vcd(steps)
        assert text == reference_vcd(steps)
        assert steps_from_vcd(parse_vcd(text)) == steps

    def test_one_hidden_column(self):
        for h, h_bar in ([1], [0]), ([0], [1]), ([1], [1]):
            steps = iteration_steps([1, 0, 1], h, [0, 1, 1], h_bar)
            assert write_vcd(steps) == reference_vcd(steps)


@pytest.mark.parametrize("rail, wire", [("bl", "BL"), ("sl", "SL")])
def test_a_read_frame_rail_narrower_than_its_wire_is_rejected(rail, wire, tmp_path):
    # A frame's bl and sl are equally wide, so a read frame whose SL falls
    # short of its wire falls short on BL too, and the BL check refuses it.
    steps = iteration_steps([1, 0], [1, 0, 1], [0, 1], [0, 1, 1])
    frame = SignalFrame.read_frame(1, 3)
    assert getattr(frame, rail).size < _widths(parse_vcd(write_vcd(steps)))[wire]
    steps[1] = TraceStep(frame, State.FEED_BACK, 0)
    path = tmp_path / "trace.vcd"
    with pytest.raises(ProtocolError, match="^step 1 gives BL 1 characters for its 2-bit wire$"):
        write_vcd(steps, path)
    assert not path.exists()


def test_a_frame_that_is_not_a_signal_frame_is_refused():
    # Rails are checked once, when a SignalFrame is built; a step refuses
    # any other frame, even one holding valid rails.
    step = iteration_steps([1, 0, 1], [1, 0, 1, 1, 0], [0, 1, 1], [0, 1, 1, 0, 1])[4]
    with pytest.raises(ProtocolError, match="^frame must be a SignalFrame, "
                                            "got SimpleNamespace$"):
        TraceStep(duck_frame(step.frame), step.state, step.counter)


def test_a_step_that_is_not_a_trace_step_is_refused(tmp_path):
    # A step is checked once, when built; write_vcd trusts it and refuses
    # any other step, even one holding a valid frame and registers.
    steps = iteration_steps([1, 0, 1], [1, 0, 1, 1, 0], [0, 1, 1], [0, 1, 1, 0, 1])
    steps[4] = types.SimpleNamespace(**vars(steps[4]))
    path = tmp_path / "trace.vcd"
    with pytest.raises(ProtocolError, match="^step 4: expected a TraceStep, "
                                            "got SimpleNamespace$"):
        write_vcd(steps, path)
    assert not path.exists()


def test_a_built_step_cannot_change():
    step = iteration_steps([1, 0], [1, 0, 1], [0, 1], [0, 1, 1])[-1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        step.counter = 9
    assert step.counter == 2


def test_timestamps_step_by_the_clock_period():
    _, steps = recorded_iteration()
    trace = parse_vcd(write_vcd(steps))
    tick = round(CLOCK_PERIOD_S * 1e9)
    assert trace.timescale == "1ns"
    assert [time for time, _ in trace.snapshots] == [k * tick for k in range(len(steps) + 1)]


def test_dump_ends_on_an_idle_read_clock():
    _, steps = recorded_iteration(n_visible=5, n_hidden=3)
    _, idle = parse_vcd(write_vcd(steps)).snapshots[-1]
    assert {name: idle[name] for name in ("STATE", "RWL", "WWL", "BL", "SL", "COUNTER")} == {
        "STATE": "00", "RWL": "1", "WWL": "000", "BL": "zzzzz", "SL": "zzzzz", "COUNTER": "00"}


@pytest.mark.parametrize("registers, error", [
    (([1, 2, 0], [1, 0], [0, 0, 1], [0, 1]), ValueError),
    (([1, 0, 0], [0.5, 0], [0, 0, 1], [0, 1]), ValueError),
    (([1, 0, 0], [1, 0], [[0, 0, 1]], [0, 1]), DimensionError),
    (([1, 0, 0], [1, 0], [0, 0], [0, 1]), DimensionError),
    (([1, 0, 0], [1, 0], [0, 0, 1], [0, 1, 1]), DimensionError),
])
def test_iteration_steps_checks_its_registers(registers, error):
    with pytest.raises(error):
        iteration_steps(*registers)


@pytest.mark.parametrize("empty, count", [("v", "n_visible"), ("h", "n_hidden")],
                         ids=["v", "h"])
def test_iteration_steps_rejects_an_empty_register(empty, count):
    # An empty register would declare a 0-bit wire that no reader accepts.
    one, none = np.ones(1, np.uint8), np.zeros(0, np.uint8)
    v, h = (none, one) if empty == "v" else (one, none)
    with pytest.raises(DimensionError, match=f"^{count} must be at least 1"):
        iteration_steps(v, h, v, h)


def _narrower_step(steps):
    steps[2] = TraceStep(SignalFrame.read_frame(2, 2), State.RECONSTRUCT, 0)


def _narrower_write_step(steps):
    steps[-1] = TraceStep(SignalFrame(0, [0, 1], [1, 0], [0, 1]), State.UPDATE, 1)


@pytest.mark.parametrize("damage, wire", [(_narrower_step, "WWL"), (_narrower_write_step, "WWL")],
                         ids=["step-of-another-width", "write-step-of-another-width"])
def test_write_vcd_rejects_a_value_of_another_width_than_its_wire(damage, wire, tmp_path):
    steps = iteration_steps([1, 0], [1, 0, 1], [0, 1], [0, 1, 1])
    damage(steps)
    path = tmp_path / "trace.vcd"
    with pytest.raises(ProtocolError, match=f"{wire} .*-bit wire"):
        write_vcd(steps, path)
    assert not path.exists()


def three_by_two_dump():
    """The dump of a 3x2 iteration: three read clocks, two write clocks and
    the idle tail, at #0 to #10."""
    return write_vcd(iteration_steps([1, 0, 1], [1, 0], [0, 1, 1], [0, 1]))


def test_every_one_character_edit_of_a_dump_is_refused_or_read_back_faithfully():
    # A dump reads back only as write_vcd writes it: an edit that parse_vcd
    # sees must be refused, and one it does not see changes no step.
    text = three_by_two_dump()
    edits = 0
    for k, old in enumerate(text):
        for new in "01zx#\n".replace(old, ""):
            damaged = text[:k] + new + text[k + 1:]
            edits += 1
            try:
                steps = steps_from_vcd(parse_vcd(damaged))
            except ProtocolError:
                continue
            assert parse_vcd(write_vcd(steps)) == parse_vcd(damaged), (k, new)
    assert edits == 2661


@pytest.mark.parametrize("old, new, message", [
    ("#2\n0!\nb01 \"\n", "#2\n0!\nb01 \"\nb10 %\n",
     r"^unreadable VCD step at #2: .*read frame requires all wwl low"),
    ("#2\n0!\n", "#2\n1!\n", "at #2$"),
    ("#4\n", "#5\n", "at #5$"),
    ("$timescale 1ns $end", "$timescale 1ps $end", "header"),
    ("#10\n0!\nb00 \"\n1#\nb00 %\nbzzz &\nbzzz '\nb00 (\n",
     "#10\n0!\nb00 \"\n1#\nb00 %\nbzzz &\nbzzz '\nb01 (\n", "at #10$"),
    ("b101 &\nb000 '\n", "b101 &\nb00z '\n", "at #6$"),
    ("bzzz &\nbzzz '\nb00 (\n$end", "b000 &\nbzzz '\nb00 (\n$end", "at #0$"),
], ids=["read-clock-drives-wwl", "clk", "timestamp", "timescale", "tail-counter",
        "write-clock-releases-sl", "read-clock-drives-bl-low"])
def test_a_dump_that_write_vcd_would_not_write_is_rejected(old, new, message):
    text = three_by_two_dump()
    assert text.count(old) == 1
    damaged = text.replace(old, new)
    with pytest.raises(ProtocolError, match=message):
        steps_from_vcd(parse_vcd(damaged))


def test_dump_with_two_wwl_bits_set_is_rejected():
    text = write_vcd(iteration_steps([1, 0], [1, 0, 1], [0, 1], [0, 1, 1]))
    code = next(var.code for var in parse_vcd(text).variables if var.name == "WWL")
    # The first Update clock selects column 0; select column 1 as well.
    assert f"b001 {code}\n" in text
    damaged = text.replace(f"b001 {code}\n", f"b011 {code}\n", 1)
    with pytest.raises(ProtocolError):
        steps_from_vcd(parse_vcd(damaged))


def _codes(text):
    return {var.name: var.code for var in parse_vcd(text).variables}


def _counter_undeclared(text):
    code = _codes(text)["COUNTER"]
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.rstrip().endswith((f" {code}", f" COUNTER [1:0] $end")))


@pytest.mark.parametrize("damage", [_counter_undeclared], ids=["counter-undeclared"])
def test_dump_that_parses_but_holds_no_step_is_rejected(damage):
    text = damage(write_vcd(iteration_steps([1, 0], [1, 0, 1], [0, 1], [0, 1, 1])))
    trace = parse_vcd(text)
    with pytest.raises(ProtocolError, match="#0"):
        steps_from_vcd(trace)


def test_dump_with_unknown_rwl_is_rejected():
    # RWL falls from 1 to 0 at the first write clock, #6; an 'x' there is
    # neither a read nor a write, and parse_vcd rejects its line.
    text = write_vcd(iteration_steps([1, 0], [1, 0, 1], [0, 1], [0, 1, 1]))
    code = _codes(text)["RWL"]
    assert f"#6\n0!\nb11 \"\n0{code}\n" in text
    damaged = text.replace(f"\n0{code}\n", f"\nx{code}\n", 1)
    with pytest.raises(ProtocolError, match=f"line \\d+: 'x{code}'"):
        steps_from_vcd(parse_vcd(damaged))


def _damage_value(text, name, value):
    """``text`` with the first value dumped on wire ``name`` replaced by
    ``value``, and the number of the line that held it."""
    code = _codes(text)[name]
    lines = text.splitlines(keepends=True)
    start = lines.index("$enddefinitions $end\n") + 1
    for number, line in enumerate(lines[start:], start=start + 1):
        parts = line.split()
        if len(parts) == 2 and parts[1] == code:
            lines[number - 1] = f"b{value} {code}\n"
            return "".join(lines), number
        if line.strip()[1:] == code:
            lines[number - 1] = f"{value}{code}\n"
            return "".join(lines), number
    raise AssertionError(f"no value of {name} in the dump")


@pytest.mark.parametrize("name, value", [
    ("CLK", "z"), ("STATE", "zz"), ("STATE", "-1"), ("RWL", "x"), ("WWL", "0z1"),
    ("BL", "x1"), ("SL", "-1"), ("COUNTER", "1z"),
], ids=["clk-z", "state-bzz", "state-minus-1", "rwl-x", "wwl-z", "bl-x", "sl-minus-1",
        "counter-z"])
def test_parse_vcd_rejects_a_character_outside_its_wire(name, value):
    # Each value keeps its wire's width, so only its characters are wrong.
    text = write_vcd(iteration_steps([1, 0], [1, 0, 1], [0, 1], [0, 1, 1]))
    damaged, number = _damage_value(text, name, value)
    with pytest.raises(ProtocolError, match=f"line {number}: "):
        parse_vcd(damaged)


@pytest.mark.parametrize("name", ["BL", "SL", "STATE", "WWL", "COUNTER"])
def test_parse_vcd_reads_a_released_line_only_on_bl_and_sl(name):
    text = f"$var wire 2 & {name} [1:0] $end\n$enddefinitions $end\n#0\nbz1 &\n"
    if name in ("BL", "SL"):
        assert parse_vcd(text).snapshots == [(0, {name: "z1"})]
    else:
        with pytest.raises(ProtocolError, match="line 4: 'bz1 &'"):
            parse_vcd(text)


@pytest.mark.parametrize("n_hidden, state, counter", [
    (5, -1, 0), (5, 4, 0), (3, 7, 0), (5, State.UPDATE, -1), (3, State.UPDATE, 4),
    (5, State.UPDATE, 6), (5, State.UPDATE, 1.0), (5, State.UPDATE, np.float64(1.0)),
    (5, "1", 0), (5, 1.0, 0),
], ids=["state--1", "state-4", "state-7", "counter--1", "counter-4", "counter-past-n_hidden",
        "counter-float", "counter-numpy-float", "state-string", "state-float"])
def test_write_vcd_rejects_a_register_value_outside_its_range(n_hidden, state, counter,
                                                              tmp_path):
    # Three columns count on a 2-bit wire, which 4 overflows; five count on
    # a 3-bit wire, where 6 fits but is no column counter.
    steps = iteration_steps([1, 0], [1, 0, 1, 0, 1][:n_hidden], [0, 1], [0, 1, 1, 0, 0][:n_hidden])
    # The step refuses the value when built, so it reaches write_vcd only in
    # another object, which write_vcd refuses before writing.
    with pytest.raises(ProtocolError, match="^(STATE|COUNTER) must "):
        TraceStep(steps[4].frame, state, counter)
    steps[4] = types.SimpleNamespace(frame=steps[4].frame, state=state, counter=counter)
    path = tmp_path / "trace.vcd"
    with pytest.raises(ProtocolError, match="^step 4: expected a TraceStep"):
        write_vcd(steps, path)
    assert not path.exists()


def test_write_vcd_takes_numpy_and_enum_registers():
    steps = iteration_steps([1, 0], [1, 0, 1], [0, 1], [0, 1, 1])
    numpy_steps = [TraceStep(step.frame, np.int64(step.state), np.uint8(step.counter))
                   for step in steps]
    # A step keeps its registers as ints, as a frame keeps its rwl.
    assert all(type(step.state) is type(step.counter) is int for step in numpy_steps + steps)
    assert write_vcd(numpy_steps) == write_vcd(steps)


def test_empty_trace_rejected():
    with pytest.raises(ProtocolError):
        write_vcd([])


def test_parse_vcd_skips_blank_lines_in_the_header():
    text = write_vcd(recorded_iteration()[1])
    assert parse_vcd(text.replace("$end\n", "$end\n\n  \n", 3)) == parse_vcd(text)


def test_steps_from_vcd_rejects_a_counter_past_its_last_column():
    # Five columns count on a 3-bit wire, so 6 has the wire's width but is
    # a COUNTER that write_vcd refuses.
    text = write_vcd(iteration_steps([1, 0], [1, 0, 1, 0, 1], [0, 1], [0, 1, 1, 0, 0]))
    damaged, _ = _damage_value(text, "COUNTER", "110")
    with pytest.raises(ProtocolError, match=r"^unreadable VCD step at #0: .*COUNTER must lie "
                                            r"in \[0, 5\], got 6"):
        steps_from_vcd(parse_vcd(damaged))


@pytest.mark.parametrize("text, message", [
    pytest.param("$var wire 1\n", "line 1", id="short-var"),
    pytest.param("$enddefinitions $end\n#0\n1!\n", "line 3", id="undeclared-code"),
    pytest.param("$enddefinitions $end\n#x\n", "line 2", id="bad-timestamp"),
    pytest.param("$var wire z ! CLK $end\n", "line 1", id="bad-width"),
    # Arabic-Indic digits, which str.isdecimal accepts and write_vcd never writes.
    pytest.param("$var wire \u0663 ! CLK $end\n", "line 1", id="non-ascii-width"),
    pytest.param("$enddefinitions $end\n#\u0662\n", "line 2", id="non-ascii-timestamp"),
    pytest.param("$var wire 0 ! BL $end\n", "line 1", id="zero-bit-wire"),
    pytest.param("$var wire 3 ! BL $end\n$enddefinitions $end\n#0\nb101\n", "line 4",
                 id="vector-without-code"),
    pytest.param("$var wire 2 & BL [1:0] $end\n$enddefinitions $end\n#0\nb101 &\n",
                 "line 4: 'b101 &'", id="value-wider-than-wire"),
    pytest.param("$var wire 2 & BL [1:0] $end\n$enddefinitions $end\n#0\n1&\n",
                 "line 4: '1&'", id="scalar-on-a-vector-wire"),
    # No snapshot holds no step, and write_vcd refuses to dump an empty trace.
    pytest.param("", "cannot dump an empty trace", id="empty"),
])
def test_malformed_vcd_raises_protocol_error(text, message):
    with pytest.raises(ProtocolError, match=message):
        steps_from_vcd(parse_vcd(text))
