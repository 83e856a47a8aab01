"""Mutation gate: every mutant listed here must make its tests fail.

Run from anywhere, with the test dependencies installed:

    python tests/mutants.py

A mutant is one exact snippet of a source file, its replacement, and the
pytest node ids that must catch it.  For each mutant the gate copies
``src/``, ``tests/`` and ``pyproject.toml`` into a temporary directory, so
that pytest's ``pythonpath = ["src"]`` imports the copy; runs the node ids
there and requires them to pass; replaces the snippet, which must occur
exactly once, and requires the same node ids to fail.  A snippet that no
longer matches fails the gate, so a mutant cannot rot silently.  A
surviving mutant is mended by a stronger test, never by dropping it.

Standard library only; pytest does not collect this file.
"""

import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")
# Two pytest processes at a time: each is about 100 MB and one core.
WORKERS = 2


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    snippet: str
    replacement: str
    tests: tuple


MUTANTS = (
    Mutant("trace-step-counter-past-n-hidden", "src/snra/trace.py",
           'integer_setting(self.counter, "COUNTER", high=self.frame.wwl.size)',
           'integer_setting(self.counter, "COUNTER", high=self.frame.wwl.size + 1)',
           ("tests/test_trace.py::test_write_vcd_rejects_a_register_value_outside_its_range",)),
    Mutant("trace-step-state-4", "src/snra/trace.py",
           'integer_setting(self.state, "STATE", high=3)',
           'integer_setting(self.state, "STATE", high=4)',
           ("tests/test_trace.py::test_write_vcd_rejects_a_register_value_outside_its_range",)),
    Mutant("signal-frame-empty-rail", "src/snra/array.py",
           "        line_counts(bl.size, wwl.size)\n", "",
           ("tests/test_array.py::TestSignalFrame::test_an_empty_rail_is_refused",)),
    Mutant("rail-directions-sign-flip", "src/snra/array.py",
           "return bl.view(np.int8) - sl.view(np.int8)",
           "return sl.view(np.int8) - bl.view(np.int8)",
           ("tests/test_array.py::TestApplyFrame::test_increase_and_decrease_rows",)),
    Mutant("pulse-clips-at-levels", "src/snra/device.py",
           "np.minimum(cells, self.levels - 1, out=cells)",
           "np.minimum(cells, self.levels, out=cells)",
           ("tests/test_device.py::TestSynapseGrid::test_saturation_no_wraparound",)),
    Mutant("bias-pulses-dropped", "src/snra/fsm.py",
           "            array.grid.pulse_visible_bias(rail_directions(self.v, self.v_bar))\n"
           "            array.grid.pulse_hidden_bias(rail_directions(self.h, self.h_bar))\n",
           "            pass\n",
           ("tests/test_fsm.py::TestBiasTraining::test_bias_pulses_on_first_update_clock",)),
    Mutant("bias-line-low-with-biases-on", "src/snra/fsm.py",
           "h[-1] = h_bar[-1] = array.grid.use_biases", "h[-1] = h_bar[-1] = 0",
           ("tests/test_fsm.py::TestFusedIteration::test_equals_clocked_iterations",)),
    Mutant("bias-line-high-with-biases-off", "src/snra/fsm.py",
           "h[-1] = h_bar[-1] = array.grid.use_biases", "h[-1] = h_bar[-1] = 1",
           ("tests/test_fsm.py::TestBiasTraining::test_fused_biases_move_only_when_on",)),
    Mutant("block-write-row-stride-of-n-hidden", "src/snra/device.py",
           "rows * (self.n_hidden + 1)", "rows * self.n_hidden",
           ("tests/test_device.py::TestSynapseGrid::test_pulse_block_writes_only_its_block",)),
    Mutant("iteration-of-n-hidden-plus-2-clocks", "src/snra/fsm.py",
           "        self.clock_count += self.n_hidden\n        return self.n_hidden + 3\n",
           "        self.clock_count += self.n_hidden - 1\n        return self.n_hidden + 2\n",
           ("tests/test_fsm.py::TestIteration::test_clock_count_accumulates",)),
    Mutant("nets-without-w-min-lines", "src/snra/device.py",
           "        sums += self.w_min * lines\n", "",
           ("tests/test_array.py::TestSampling::test_probabilities_match_manual_net",)),
    Mutant("clamped-hidden-ignored", "src/snra/fsm.py",
           "            if clamp_hidden is not None:\n", "            if False:\n",
           ("tests/test_fsm.py::TestIteration::test_clamped_hidden_register",)),
    Mutant("dtype-rule-without-bias-cell", "src/snra/device.py",
           "(max(shape) + 1) * (self.levels - 1) < 2**24",
           "max(shape) * (self.levels - 1) < 2**24",
           ("tests/test_device.py::TestExactNets::test_dtype_rule_keeps_the_largest_sums_exact",)),
    Mutant("dtype-rule-of-visible-lines-only", "src/snra/device.py",
           "dtype = np.float32 if (max(shape) + 1)", "dtype = np.float32 if (shape[0] + 1)",
           ("tests/test_device.py::TestExactNets::test_dtype_rule_keeps_the_largest_sums_exact",)),
    Mutant("dtype-rule-past-float32-exact", "src/snra/device.py",
           "< 2**24 else np.float64", "< 2**25 else np.float64",
           ("tests/test_device.py::TestExactNets::test_dtype_rule_keeps_the_largest_sums_exact",)),
    Mutant("pulse-step-uncapped", "src/snra/device.py",
           "min(self.delta_d, self.levels - 1)", "self.delta_d",
           ("tests/test_device.py::TestSynapseGrid::"
            "test_float32_steps_saturate_as_exact_integer_steps",)),
    Mutant("pcg64-increment-even", "src/snra/dbn.py",
           "<< 1 | 1) & _U128", "<< 1) & _U128",
           ("tests/test_dbn.py::TestDerivedStreams::test_stream_rows_equal_derived_rng",)),
    Mutant("pcg64-hash-without-xorshift", "src/snra/dbn.py",
           "    hashed ^= hashed >> 16\n", "",
           ("tests/test_dbn.py::TestDerivedStreams::test_stream_rows_equal_derived_rng",)),
    Mutant("pcg64-hash-without-multiply", "src/snra/dbn.py",
           "    hashed *= _HASH[1:].reshape(2, 4)\n", "",
           ("tests/test_dbn.py::TestDerivedStreams::test_stream_rows_equal_derived_rng",)),
    Mutant("seed-mix-without-past-pool-mask", "src/snra/dbn.py",
           "np.copyto(pool, mixed, where=lengths > position)", "np.copyto(pool, mixed)",
           ("tests/test_dbn.py::TestSeedMix::test_a_block_of_rows_of_different_lengths",)),
    Mutant("seed-mix-source-lane-mixed", "src/snra/dbn.py",
           "        mixed[source] = pool[source]\n", "",
           ("tests/test_dbn.py::TestSeedMix::test_each_pool_is_seed_sequences",)),
    Mutant("seed-mix-l-and-r-swapped", "src/snra/dbn.py",
           "(_MIX_L, _MIX_R, 16)", "(_MIX_R, _MIX_L, 16)",
           ("tests/test_dbn.py::TestSeedMix::test_each_pool_is_seed_sequences",)),
    Mutant("rail-column-in-reverse-step-order", "src/snra/trace.py",
           "for k in at[::-1]]", "for k in at]",
           ("tests/test_trace.py::TestRenderingMatchesTheStepwiseWriter::"
            "test_every_piece_of_a_recorded_iteration",)),
    Mutant("vcd-reader-without-round-trip", "src/snra/trace.py",
           "    written = parse_vcd(write_vcd(steps))\n", "    return steps\n",
           ("tests/test_trace.py::"
            "test_every_one_character_edit_of_a_dump_is_refused_or_read_back_faithfully",)),
    Mutant("model-flag-bits-ignored", "src/snra/dbn.py",
           "    if flags & ~_FLAG_USE_BIASES:\n", "    if False:\n",
           ("tests/test_dbn.py::TestSerialization::"
            "test_unknown_flag_bits_rejected_before_any_grid",)),
    Mutant("input-scale-any-float-text", "src/snra/cli.py",
           "    if not _DECIMAL.fullmatch(text):\n", "    if False:\n",
           ("tests/test_cli.py::test_integer_text_outside_ascii_digits_exits_1",)),
    Mutant("gibbs-hidden-draw-before-row", "src/snra/oracle.py",
           "for p, bit, u in zip(hidden_rows[v], h_units, draws):",
           "for u, p, bit in zip(draws, hidden_rows[v], h_units):",
           ("tests/test_oracle.py::TestGibbsChain::test_equals_reference_chain_across_blocks",)),
    Mutant("gibbs-visible-draw-before-row", "src/snra/oracle.py",
           "for p, bit, u in zip(visible_rows[h], v_units, draws):",
           "for u, p, bit in zip(draws, visible_rows[h], v_units):",
           ("tests/test_oracle.py::TestGibbsChain::test_equals_reference_chain_across_blocks",)),
    Mutant("gibbs-block-kept-while-next-drawn", "src/snra/oracle.py",
           "        del uniforms, draws", "        pass",
           ("tests/test_oracle.py::TestGibbsChain::"
            "test_memory_is_bounded_by_the_block_not_the_sweeps",)),
)


def pytest(tree, tests):
    """Run ``tests`` in ``tree``; returns (exit code, output)."""
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *tests], cwd=tree, capture_output=True, text=True, timeout=300)
    return done.returncode, done.stdout + done.stderr


def run(mutant):
    """The verdict on one mutant: (passed, message)."""
    with tempfile.TemporaryDirectory(prefix=f"mutant-{mutant.name}-") as tree:
        for name in COPIED:
            source, target = ROOT / name, Path(tree) / name
            if source.is_dir():
                shutil.copytree(source, target,
                                ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
            else:
                shutil.copy2(source, target)
        code, output = pytest(tree, mutant.tests)
        if code != 0:
            return False, f"its tests fail without the mutant (exit {code}):\n{output}"
        path = Path(tree) / mutant.path
        path.write_text(path.read_text().replace(mutant.snippet, mutant.replacement))
        code, output = pytest(tree, mutant.tests)
    if code == 0:
        return False, "SURVIVED: its tests pass with the mutant"
    if code != 1:
        return False, f"its tests did not run with the mutant (exit {code}):\n{output}"
    return True, "killed"


def main():
    # Every snippet is matched before any test runs.
    stale = [mutant.name for mutant in MUTANTS
             if (ROOT / mutant.path).read_text().count(mutant.snippet) != 1]
    if stale:
        print(f"snippet does not occur exactly once: {', '.join(stale)}")
        return 1
    start = time.perf_counter()
    with ThreadPoolExecutor(WORKERS) as pool:
        verdicts = list(pool.map(run, MUTANTS))
    for mutant, (passed, message) in zip(MUTANTS, verdicts):
        print(f"{mutant.name}: {message}")
    failed = sum(not passed for passed, _ in verdicts)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
