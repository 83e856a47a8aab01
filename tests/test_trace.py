import numpy as np
import pytest

from snra.array import RbmArray, SignalFrame
from snra.bits import ensure_bits
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


def test_recorded_iteration_round_trips_through_vcd():
    # The counter wire is 1, 2, 3, 3 and 4 bits wide at these widths.
    for n_hidden in (3, 1, 4, 7, 8):
        controller, steps = recorded_iteration(n_hidden=n_hidden)
        assert len(steps) == controller.n_hidden + 3
        trace = parse_vcd(write_vcd(steps))
        assert trace.width("COUNTER") == n_hidden.bit_length()
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


def _wider_state(steps):
    steps[1] = TraceStep(steps[1].frame, 7, 0)


def _wider_counter(steps):
    # Three hidden columns give the counter 2 bits; 4 needs 3.
    steps[-1] = TraceStep(steps[-1].frame, State.UPDATE, 4)


def _narrower_step(steps):
    steps[2] = TraceStep(SignalFrame.read_frame(2, 2), State.RECONSTRUCT, 0)


@pytest.mark.parametrize("damage, wire", [
    (_wider_state, "STATE"), (_wider_counter, "COUNTER"), (_narrower_step, "WWL")],
    ids=["state-7", "counter-4", "step-of-another-width"])
def test_write_vcd_rejects_a_value_of_another_width_than_its_wire(damage, wire, tmp_path):
    steps = iteration_steps([1, 0], [1, 0, 1], [0, 1], [0, 1, 1])
    damage(steps)
    path = tmp_path / "trace.vcd"
    with pytest.raises(ProtocolError, match=f"{wire} .*-bit wire"):
        write_vcd(steps, path)
    assert not path.exists()


def test_write_vcd_refuses_a_wire_of_zero_bits():
    steps = [TraceStep(SignalFrame.read_frame(1, 0), State.FEED_FORWARD, 0)]
    with pytest.raises(ProtocolError, match="WWL as a wire of 0 bits"):
        write_vcd(steps)


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


def _state_not_binary(text):
    code = _codes(text)["STATE"]
    assert f"b00 {code}\n" in text
    return text.replace(f"b00 {code}\n", f"bzz {code}\n", 1)


def _counter_undeclared(text):
    code = _codes(text)["COUNTER"]
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.rstrip().endswith((f" {code}", f" COUNTER [1:0] $end")))


@pytest.mark.parametrize("damage", [_state_not_binary, _counter_undeclared],
                         ids=["state-bzz", "counter-undeclared"])
def test_dump_that_parses_but_holds_no_step_is_rejected(damage):
    text = damage(write_vcd(iteration_steps([1, 0], [1, 0, 1], [0, 1], [0, 1, 1])))
    trace = parse_vcd(text)
    with pytest.raises(ProtocolError, match="#0"):
        steps_from_vcd(trace)


def test_dump_with_unknown_rwl_is_rejected():
    # RWL falls from 1 to 0 at the first write clock, #6; an 'x' there is
    # neither a read nor a write.
    text = write_vcd(iteration_steps([1, 0], [1, 0, 1], [0, 1], [0, 1, 1]))
    code = _codes(text)["RWL"]
    assert f"#6\n0!\nb11 \"\n0{code}\n" in text
    damaged = text.replace(f"\n0{code}\n", f"\nx{code}\n", 1)
    with pytest.raises(ProtocolError, match="#6"):
        steps_from_vcd(parse_vcd(damaged))


def test_empty_trace_rejected():
    with pytest.raises(ProtocolError):
        write_vcd([])


@pytest.mark.parametrize("text, message", [
    pytest.param("$var wire 1\n", "line 1", id="short-var"),
    pytest.param("$enddefinitions $end\n#0\n1!\n", "line 3", id="undeclared-code"),
    pytest.param("$enddefinitions $end\n#x\n", "line 2", id="bad-timestamp"),
    pytest.param("$var wire z ! CLK $end\n", "line 1", id="bad-width"),
    pytest.param("$var wire 3 ! BL $end\n$enddefinitions $end\n#0\nb101\n", "line 4",
                 id="vector-without-code"),
    pytest.param("$var wire 2 & BL [1:0] $end\n$enddefinitions $end\n#0\nb101 &\n",
                 "line 4: 'b101 &'", id="value-wider-than-wire"),
    pytest.param("$var wire 2 & BL [1:0] $end\n$enddefinitions $end\n#0\n1&\n",
                 "line 4: '1&'", id="scalar-on-a-vector-wire"),
    pytest.param("", "no variable BL", id="empty"),
])
def test_malformed_vcd_raises_protocol_error(text, message):
    with pytest.raises(ProtocolError, match=message):
        steps_from_vcd(parse_vcd(text))
