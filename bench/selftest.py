"""Self-tests of the benchmark's own machinery.

Run from the root of a checkout:

    python3 bench/selftest.py
"""

import json
import sys
import tempfile
import unittest
from pathlib import Path

import numpy as np

import run

run.load_snra()

import datagen  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from snra import dataset, dbn  # noqa: E402
from spans import SpanRecorder, SpanTable, self_times  # noqa: E402


class GeneratorTest(unittest.TestCase):
    def test_repeats_for_a_seed_and_differs_across_seeds(self):
        first = datagen.make_sets(3, 50, 20)
        again = datagen.make_sets(3, 50, 20)
        other = datagen.make_sets(4, 50, 20)
        for a, b in zip(first, again):
            np.testing.assert_array_equal(a[0], b[0])
            np.testing.assert_array_equal(a[1], b[1])
        self.assertFalse(np.array_equal(first[0][0], other[0][0]))

    def test_idx_round_trip_through_load_idx(self):
        (bits, labels), _ = datagen.make_sets(5, 30, 1)
        with tempfile.TemporaryDirectory() as tmp:
            images_path, labels_path = datagen.write_idx_pair(Path(tmp), "s", bits, labels)
            self.assertEqual(images_path.read_bytes()[:2], b"\x1f\x8b")
            loaded = dataset.load_idx(images_path, labels_path)
        np.testing.assert_array_equal(loaded.images, bits)
        np.testing.assert_array_equal(loaded.labels, labels)


class SelfTimeTest(unittest.TestCase):
    def test_hand_built_tree(self):
        # root [0, 10) holds a [1, 4) and b [5, 9); a holds c [2, 3).
        parent = np.array([-1, 0, 1, 0])
        start = np.array([0.0, 1.0, 2.0, 5.0])
        end = np.array([10.0, 4.0, 3.0, 9.0])
        np.testing.assert_allclose(self_times(parent, end - start), [3.0, 2.0, 1.0, 4.0])
        table = SpanTable(["root", "a", "c", "b"], [0, 1, 2, 3], parent, start, end)
        total, rows = layers.breakdown(table, "root")
        self.assertEqual(total, 10.0)
        self.assertAlmostEqual(sum(seconds for _, seconds in rows), total)

    def test_recorder_nests_wrapped_calls(self):
        ticks = iter(range(100))
        recorder = SpanRecorder(clock=lambda: float(next(ticks)))
        inner = recorder.wrap("x.inner", lambda: None)
        outer = recorder.wrap("x.outer", lambda: inner())
        outer()
        table = recorder.table()
        self.assertEqual(list(table.parent), [-1, 0])
        # outer runs from tick 0 to 3, inner from 1 to 2.
        np.testing.assert_allclose(table.self_time, [2.0, 1.0])


class CheckTest(unittest.TestCase):
    def test_moved_synapse_fails_the_model_check(self):
        model = dbn.DbnModel((784, 4, 10), rng_seed=2, init=dbn.UNIFORM_INIT)
        digest = workloads.sha256(dbn.to_bytes(model))
        copy = dbn.from_bytes(dbn.to_bytes(model))
        states = copy.layers[0].grid.states
        states[3, 1] = (states[3, 1] + 1) % copy.levels
        tally = run.Tally({"train.model_sha256": digest}, record=False)
        tally.rep(workloads.Rep("train", [1.0], 1,
                                {"train.model_sha256": workloads.sha256(dbn.to_bytes(model))}))
        self.assertEqual(tally.failed, 0)
        tally.rep(workloads.Rep("train", [1.0], 1,
                                {"train.model_sha256": workloads.sha256(dbn.to_bytes(copy))}))
        self.assertEqual(tally.failed, 1)
        self.assertEqual(tally.attempted, 4)

    def test_nonzero_cli_exit_counts_as_failed(self):
        spec = dict(workloads.SPECS["cli_session"], n_train=20, n_test=20,
                    cli_train_samples=10)
        with tempfile.TemporaryDirectory() as tmp:
            workdir = Path(tmp)
            paths = workloads.write_inputs(spec, 0, workdir)
            session = workloads.CliSession(spec, 0, paths, workdir, run.SRC, in_process=True)
            session.setup()
            session.fit()
            real_run = session.run

            def power_fails(argv):
                code, stdout, seconds = real_run(argv)
                return (1 if argv[0] == "power" else code), stdout, seconds

            session.run = power_fails
            tally = run.Tally({}, record=True)
            for rep in session.session(0):
                tally.rep(rep)
        self.assertEqual(tally.failed, 1)


class BenchmarkFileTest(unittest.TestCase):
    def test_metric_names_and_units_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, layers.UNITS)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.SPECS))


if __name__ == "__main__":
    sys.exit(unittest.main())
