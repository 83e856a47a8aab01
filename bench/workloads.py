"""The benchmark's three workloads, as stages of short timed operations.

Every workload runs the same five stages, sized or routed differently:

* ``train``: ``greedy_train`` of a fresh model on a few samples;
* ``eval``: ``error_rate`` on one slice of the held-out set;
* ``trace``: ``write_vcd`` of one recorded CD iteration;
* ``gibbs``: ``gibbs_joint_counts`` on a 4x3 grid, compared with the
  exact Boltzmann distribution;
* ``power``: the controller power report.

``dbn_wide`` and ``gibbs_small`` call the library in this process;
``cli_session`` runs each stage as a fresh ``python -m snra`` process.
Before the stages, an untimed ``fit`` trains the model that eval and trace
use for one epoch over the whole training set.

This shared machine alternates between a fast phase and one in which
interpreter-bound code runs up to 1.7 times slower, and a slow phase can
outlast a run; medians of whole-run rates moved by up to 40% between runs
of the same code.  So every timed operation is short, runs inside a
``Stopwatch`` that measures the machine's speed on both sides of it with
the benchmark's own calibration kernel, and is reported scaled to the
kernel's fast-phase speed (see README.md).

Each repetition returns a Stopwatch per operation, the work each operation
does and the simulated results it observed.  The results are compared
with committed golden values outside the timed region.
"""

import contextlib
import hashlib
import io
import os
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from snra import cli, dataset, dbn, oracle, power, trace
from snra.array import RbmArray
from snra.device import SynapseGrid
from snra.fsm import CdFsm, State, train_clock_budget

import datagen
from calibration import CALIBRATION_S, calibrate

# Seeds fold onto this many input sets, each with golden values.
GOLDEN_SEEDS = 16
GIBBS_SHAPE = (4, 3)
# A chain is GIBBS_CALLS timed calls of GIBBS_SWEEPS sweeps each, with one
# random stream; its distance to the exact distribution uses all of them.
GIBBS_SWEEPS = 2000
GIBBS_CALLS = 10
# ``snra oracle`` runs one chain of the same total length in one call.
CLI_SWEEPS = GIBBS_SWEEPS * GIBBS_CALLS
# Total-variation bound for 20000 sweeps of a 4x3 grid; over the golden
# seeds the observed values lie between 0.02 and 0.04.
TV_BOUND = 0.08
TRACE_SHAPE = (784, 500)
POWER_TOPOLOGY = (784, 500, 10)
POWER_TECH = "she-mtj"
# Timed power reports per repetition.  A report covers every reference
# topology, so that Python work, not the file read, dominates its 0.3 ms.
# Every other stage times one call per repetition.
POWER_BATCH = 5

# The lru_cache object itself, so each power report can start cold even
# while a probe wraps the module attribute.
_cached_load_reference = power.load_reference

# train_slice: samples per timed greedy_train call on a fresh model.
# eval_slice: held-out samples per timed error_rate call; every slice is
#   evaluated at least once, so min_reps["eval"] >= n_test / eval_slice.
# trace_piece: recorded steps per timed write_vcd call.  The 784x500
#   iteration renders in 0.2-0.35 s, long enough to span phases, so
#   its first 500 steps are timed in ten pieces; a piece is a valid dump.
# chains: distinct Gibbs chains of GIBBS_CALLS repetitions each, cycling;
#   min_reps["gibbs"] covers every chain.
# cli_train_samples: samples ``snra train`` trains on; ``snra eval``
#   evaluates the fitted model, which saw all n_train.
SPECS = {
    "dbn_wide": dict(topology=(784, 500, 10), n_train=200, n_test=3000,
                     train_slice=1, eval_slice=50, trace_piece=50, chains=5,
                     min_reps=dict(train=20, eval=60, trace=10, gibbs=50, power=8)),
    "gibbs_small": dict(topology=(784, 16, 10), n_train=800, n_test=3000,
                        train_slice=5, eval_slice=100, trace_piece=19, chains=8,
                        min_reps=dict(train=20, eval=30, trace=10, gibbs=80, power=8)),
    "cli_session": dict(topology=(784, 16, 10), n_train=800, n_test=3000, chains=4,
                        cli_train_samples=100, min_reps=dict(session=6)),
}
STAGES = ("train", "eval", "trace", "gibbs", "power")


def sha256(data):
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


class Stopwatch:
    """Times one operation, with the machine's speed measured around it.

    ``speed`` is 1 at the calibration kernel's fast-phase speed and below 1
    when the machine is slower; ``seconds * speed`` is the operation's time
    scaled to the fast phase.
    """

    def __enter__(self):
        self.before = calibrate()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.start
        self.calibrated(self.before, calibrate())
        return False

    def calibrated(self, before, after):
        self.speed = CALIBRATION_S / ((before + after) / 2)


@dataclass
class Rep:
    """One repetition of a stage: a Stopwatch per operation, and its work."""

    stage: str
    seconds: list
    units: float
    observed: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)


def model_seed(fold):
    return fold + 1


def chain_seed(fold, chain):
    return 10000 + 100 * fold + chain


def record_iteration(layer, bits, rng):
    """Drive one real CD iteration clock by clock and capture each step.

    The controller's state and counter are read before each clock, which
    is what the waveform shows for that clock.
    """
    controller = CdFsm(layer.n_visible, layer.n_hidden)
    steps = []
    while True:
        state, counter = controller.state, controller.counter
        frame = controller.step(layer, bits if not steps else None, rng)
        steps.append(trace.TraceStep(frame, state, counter))
        if controller.state is State.FEED_FORWARD:
            break
    if len(steps) != layer.n_hidden + 3:
        raise RuntimeError(f"iteration took {len(steps)} clocks, "
                           f"expected {layer.n_hidden + 3}")
    registers = tuple(r.copy() for r in (controller.v, controller.h,
                                         controller.v_bar, controller.h_bar))
    return steps, registers


def reference_error_pct():
    """Largest deviation of the SRAM model from the reference table, in %."""
    table = power.load_reference()
    return max(abs(power.topology_power(r.topology, power.SRAM, table)
                   - r.reference_power_mw) / r.reference_power_mw * 100.0
               for r in table.utilization)


def write_inputs(spec, fold, workdir):
    (train_bits, train_labels), (test_bits, test_labels) = datagen.make_sets(
        fold, spec["n_train"], spec["n_test"])
    return (datagen.write_idx_pair(workdir, "train", train_bits, train_labels),
            datagen.write_idx_pair(workdir, "test", test_bits, test_labels))


def clock_checks(report, samples):
    checks = []
    for layer in report.layers:
        budget, _ = train_clock_budget(layer.shape, samples, 1)
        checks.append((f"layer {layer.index} clocks {layer.clocks} == budget {budget}",
                       layer.clocks == budget))
    return checks


def training_observed(prefix, model, report):
    return {f"{prefix}.model_sha256": sha256(dbn.to_bytes(model)),
            f"{prefix}.layer_pulses": [layer.pulses for layer in report.layers]}


class Pipeline:
    """Inputs and the fitted model, shared by both kinds of workload."""

    def __init__(self, spec, fold, paths):
        self.spec = spec
        self.fold = fold
        self.paths = paths
        self.topology = spec["topology"]

    def setup(self):
        """Load the inputs and build the model: the timed set-up."""
        (train_images, train_labels), (test_images, test_labels) = self.paths
        self.train_set = dataset.load_idx(train_images, train_labels)
        self.test_set = dataset.load_idx(test_images, test_labels)
        self.model = dbn.DbnModel(self.topology, rng_seed=model_seed(self.fold))

    def fit(self):
        """One epoch over the whole training set, not timed.

        At 784x500x10 it is one 13 s call, which spans many phases of the
        machine's speed; the train stage times short calls instead.
        """
        images, labels = self.train_set.images, self.train_set.labels
        report = dbn.greedy_train(self.model, images, labels, 1)
        return Rep("fit", [], 0, training_observed("fit", self.model, report),
                   clock_checks(report, len(images)))


class InProcess(Pipeline):
    """Stages that call the library directly."""

    steps = None

    def train(self, rep):
        """greedy_train of a fresh model on the first ``train_slice`` samples."""
        count = self.spec["train_slice"]
        model = dbn.DbnModel(self.topology, rng_seed=model_seed(self.fold))
        images, labels = self.train_set.images[:count], self.train_set.labels[:count]
        with Stopwatch() as watch:
            report = dbn.greedy_train(model, images, labels, 1)
        return Rep("train", [watch], report.total_clocks,
                   training_observed("train", model, report), clock_checks(report, count))

    def eval(self, rep):
        """error_rate on one slice of the held-out set; slices cycle."""
        count = self.spec["eval_slice"]
        index = rep % (len(self.test_set) // count)
        part = slice(index * count, (index + 1) * count)
        with Stopwatch() as watch:
            rate = dbn.error_rate(self.model, self.test_set.images[part],
                                  self.test_set.labels[part])
        return Rep("eval", [watch], count, {f"eval.slice{index}_error_rate": rate})

    def _record(self):
        """Record the iteration on a copy of the fitted model; check it."""
        copy = dbn.from_bytes(dbn.to_bytes(self.model))
        checks = [("model survives to_bytes/from_bytes",
                   copy.fingerprint() == self.model.fingerprint())]
        self.steps, registers = record_iteration(
            copy.layers[0], self.test_set.images[0],
            np.random.default_rng([self.fold, 7002]))
        checks.append(("iteration_steps replays the recorded iteration",
                       trace.iteration_steps(*registers) == self.steps))
        self.vcd = trace.write_vcd(self.steps)
        checks.append(("parse_vcd/steps_from_vcd round-trips the recorded steps",
                       trace.steps_from_vcd(trace.parse_vcd(self.vcd)) == self.steps))
        return checks, {"trace.vcd_sha256": sha256(self.vcd)}

    def trace(self, rep):
        """write_vcd of one piece of the recorded iteration; pieces cycle."""
        checks, observed = self._record() if self.steps is None else ([], {})
        piece = self.spec["trace_piece"]
        index = rep % (len(self.steps) // piece)
        with Stopwatch() as watch:
            text = trace.write_vcd(self.steps[index * piece:(index + 1) * piece])
        observed[f"trace.piece{index}_sha256"] = sha256(text)
        return Rep("trace", [watch], piece, observed, checks)

    def gibbs(self, rep):
        """One call of a chain; a chain's calls run on consecutive repetitions."""
        chain, call = divmod(rep, GIBBS_CALLS)
        chain %= self.spec["chains"]
        if call == 0:
            rng = np.random.default_rng(chain_seed(self.fold, chain))
            grid = SynapseGrid.uniform_random(*GIBBS_SHAPE, rng)
            self.chain = (grid, RbmArray(grid), rng, [])
        grid, crossbar, rng, parts = self.chain
        with Stopwatch() as watch:
            parts.append(oracle.gibbs_joint_counts(crossbar, GIBBS_SWEEPS, rng))
        if call < GIBBS_CALLS - 1:
            return Rep("gibbs", [watch], GIBBS_SWEEPS)
        counts = sum(parts)
        exact = oracle.exact_distribution(oracle.DenseRbm.from_grid(grid))
        tv = oracle.tv_distance(counts / counts.sum(), exact)
        return Rep("gibbs", [watch], GIBBS_SWEEPS,
                   {f"gibbs.chain{chain}_counts_sha256": sha256(counts.tobytes()),
                    f"gibbs.chain{chain}_tv": tv},
                   [(f"chain {chain} tv {tv:.4f} < {TV_BOUND}", tv < TV_BOUND)])

    def power(self, rep):
        watches = []
        for _ in range(POWER_BATCH):
            _cached_load_reference.cache_clear()
            with Stopwatch() as watch:
                table = power.load_reference()
                watts = [power.topology_power(record.topology, tech, table)
                         for record in table.utilization
                         for tech in (power.SRAM, power.SHE_MTJ)]
                text = power.comparison_report(table=table)
            watches.append(watch)
        return Rep("power", watches, 1, {
            "power.report_sha256": sha256(text + repr(watts)),
            "power.ref_err_pct": reference_error_pct(),
        })


# Runs ``python -m snra`` the way the interpreter's -m does, between two
# calibrations in the same process, since the child may run on another core
# than this process; the calibrations go to stderr.
_LAUNCHER = """import runpy, sys
sys.path.insert(0, {bench!r})
from calibration import calibrate
before = calibrate()
sys.argv = ["snra", *{argv!r}]
try:
    runpy.run_module("snra", run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as exc:
    code = exc.code
sys.stdout.flush()
print("calibration", before, calibrate(), file=sys.stderr)
sys.exit(code)
"""
_EVAL_LINE = re.compile(r"error_rate=[0-9.]+ \((\d+)/(\d+)\)")
_TV_LINE = re.compile(r"tv_distance=([0-9.]+) ")


class CliSession(Pipeline):
    """Stages run as ``python -m snra`` commands, one process each.

    With ``in_process`` set, each command calls ``snra.cli.main(argv)``
    in this process instead, which is how the traced run sees inside it.
    """

    def __init__(self, spec, fold, paths, workdir, src_dir, in_process=False):
        super().__init__(spec, fold, paths)
        self.workdir = workdir
        self.in_process = in_process
        self.stage_span = lambda stage: contextlib.nullcontext()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src_dir), self.env.get("PYTHONPATH")) if p)

    trace_steps = None

    def fit(self):
        """Fit as in process, then save the model for ``snra eval``."""
        fitted = super().fit()
        dbn.save_model(self.model, self.workdir / "fit.snra")
        return fitted

    def _record(self):
        """A real 784x500 iteration on a fresh grid, for ``snra trace`` to replay."""
        layer = RbmArray(SynapseGrid(*TRACE_SHAPE))
        self.trace_steps, self.trace_registers = record_iteration(
            layer, self.test_set.images[0], np.random.default_rng([self.fold, 7002]))
        self.vcd = trace.write_vcd(self.trace_steps)

    def run(self, argv):
        """Run one command; return (exit code, stdout, Stopwatch)."""
        if self.in_process:
            out = io.StringIO()
            with Stopwatch() as watch, contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            return code, out.getvalue(), watch
        launcher = _LAUNCHER.format(bench=str(Path(__file__).parent), argv=list(argv))
        with Stopwatch() as watch:
            done = subprocess.run([sys.executable, "-c", launcher], env=self.env,
                                  capture_output=True, text=True, timeout=170)
        calibration = done.stderr.rsplit("calibration", 1)[-1].split()
        watch.calibrated(float(calibration[0]), float(calibration[1]))
        return done.returncode, done.stdout, watch

    def commands(self, chain):
        (train_images, train_labels), (test_images, test_labels) = self.paths
        v, h, v_bar, h_bar = (cli_bits(r) for r in self.trace_registers)
        return {
            "train": ["train", "--topology", "x".join(map(str, self.topology)),
                      "--images", str(train_images), "--labels", str(train_labels),
                      "--train-samples", str(self.spec["cli_train_samples"]),
                      "--epochs", "1", "--seed", str(model_seed(self.fold)),
                      "--out", str(self.workdir / "model.snra")],
            "eval": ["eval", "--model", str(self.workdir / "fit.snra"),
                     "--images", str(test_images), "--labels", str(test_labels)],
            "trace": ["trace", "--visible", str(TRACE_SHAPE[0]),
                      "--hidden", str(TRACE_SHAPE[1]),
                      "--v", v, "--h", h, "--vbar", v_bar, "--hbar", h_bar],
            "gibbs": ["oracle", "--visible", str(GIBBS_SHAPE[0]),
                      "--hidden", str(GIBBS_SHAPE[1]), "--sweeps", str(CLI_SWEEPS),
                      "--seed", str(chain_seed(self.fold, chain))],
            "power": ["power", "--topology", "x".join(map(str, POWER_TOPOLOGY)),
                      "--tech", POWER_TECH, "--csv", str(self.workdir / "power.csv")],
        }

    def session(self, rep):
        """The five commands once each; one repetition of every stage."""
        if self.trace_steps is None:
            self._record()
        chain = rep % self.spec["chains"]
        commands = self.commands(chain)
        clocks = sum(train_clock_budget(pair, self.spec["cli_train_samples"], 1)[0]
                     for pair in zip(self.topology[:-1], self.topology[1:]))
        units = {"train": clocks, "eval": self.spec["n_test"],
                 "trace": len(self.trace_steps), "gibbs": CLI_SWEEPS, "power": 1}
        reps = []
        for stage in STAGES:
            with self.stage_span(stage):
                code, stdout, watch = self.run(commands[stage])
            checks = [(f"snra {commands[stage][0]} exits 0 (got {code})", code == 0)]
            # The work directory differs per run; the rest of stdout may not.
            key = (f"gibbs.chain{chain}_stdout_sha256" if stage == "gibbs"
                   else f"{stage}.stdout_sha256")
            observed = {key: sha256(stdout.replace(str(self.workdir), "<workdir>"))}
            observed.update(self._observe(stage, stdout, chain, checks))
            reps.append(Rep(stage, [watch], units[stage], observed, checks))
        return reps

    def _observe(self, stage, stdout, chain, checks):
        if stage == "train":
            return {"train.model_sha256": sha256((self.workdir / "model.snra").read_bytes())}
        if stage == "eval":
            match = _EVAL_LINE.search(stdout)
            checks.append(("eval prints its error count", match is not None))
            return {"eval.full_error_rate": int(match[1]) / int(match[2])} if match else {}
        if stage == "trace":
            checks.append(("snra trace replays the recorded iteration exactly",
                           stdout == self.vcd))
            return {}
        if stage == "gibbs":
            match = _TV_LINE.search(stdout)
            tv = float(match[1]) if match else float("inf")
            checks.append((f"oracle tv {tv} < {TV_BOUND}", tv < TV_BOUND))
            return {f"gibbs.chain{chain}_tv": tv}
        csv_path = self.workdir / "power.csv"
        return {"power.csv_sha256": sha256(csv_path.read_text() if csv_path.exists() else ""),
                "power.ref_err_pct": reference_error_pct()}


def cli_bits(bits):
    """Register as the CLI takes it: most significant bit first."""
    return "".join(str(int(b)) for b in bits[::-1])
