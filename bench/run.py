"""Benchmark of the snra simulator: host time end to end, and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload dbn_wide --seed 3 --seconds 25 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
workload once untraced and once with spans around every call into snra,
and prints every per-layer metric.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Simulated results are checked against ``bench/golden/<workload>.json``;
``--record-golden`` rewrites that file from the current code.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPS = 7

END_TO_END = {
    "train_clocks_per_s": "clocks/s",
    "eval_samples_per_s": "samples/s",
    "vcd_clocks_per_s": "clocks/s",
    "gibbs_sweeps_per_s": "sweeps/s",
    "power_report_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "error_rate": "fraction",
    "tv_distance": "fraction",
    "power_ref_err_pct": "%",
}

# A fresh ``import snra``, timed in parts, with the calibration kernel run
# inside the child once numpy is there and again at the end.
_IMPORT_PROBE = """import sys, time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
sys.path.insert(0, {bench!r})
from calibration import calibrate
before = calibrate()
t2 = time.perf_counter()
import scipy.special
t3 = time.perf_counter()
import snra
t4 = time.perf_counter()
print(t1 - t0, t3 - t2, t4 - t3, before, calibrate())
"""


def load_snra():
    """Import snra from the checkout's src/, and nowhere else."""
    if not (SRC / "snra" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'snra'} not found; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH_DIR))
    import snra
    if Path(snra.__file__).resolve().parent != (SRC / "snra").resolve():
        sys.exit(f"error: imported snra from {snra.__file__}, not from {SRC}")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def import_children(count):
    """Fresh-process ``import snra``, ``count`` times.

    Returns each process's wall seconds, less its two calibrations and
    scaled by the speed they measured, and the median seconds of the
    numpy, scipy.special and snra parts of the import.
    """
    from calibration import CALIBRATION_S
    probe = _IMPORT_PROBE.format(bench=str(BENCH_DIR))
    scaled, parts = [], []
    for _ in range(count):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", probe], env=child_env(),
                              capture_output=True, text=True, timeout=120, check=True)
        wall = time.perf_counter() - start
        *seconds, before, after = (float(x) for x in done.stdout.split())
        scaled.append((wall - before - after) * CALIBRATION_S / ((before + after) / 2))
        parts.append(seconds)
    return scaled, [statistics.median(p[k] for p in parts) for k in range(3)]


class Tally:
    """Operations attempted and failed, with the golden values to check."""

    def __init__(self, golden, record):
        self.golden = golden
        self.record = record
        self.recorded = {}
        self.attempted = 0
        self.failed = 0

    def check(self, label, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {label}", file=sys.stderr)

    def rep(self, rep):
        self.attempted += 1
        for label, ok in rep.checks:
            self.check(label, ok)
        for key, value in rep.observed.items():
            if self.record:
                if self.recorded.setdefault(key, value) != value:
                    raise RuntimeError(f"{key} differs between repetitions")
            else:
                expected = self.golden.get(key)
                self.check(f"{rep.stage}: {key} = {value!r}, golden {expected!r}",
                           value == expected)


def schedule(stages, min_reps, deadline, tally, around=None):
    """Round-robin over the stages until each has its minimum repetitions
    and the deadline has passed; returns the repetitions by stage name."""
    runs = dict.fromkeys(stages, 0)
    done = {}
    while True:
        ran = False
        for name, run in stages.items():
            count = runs[name]
            if count >= min_reps[name] and time.perf_counter() >= deadline:
                continue
            result = around(name, run, count) if around else run(count)
            for rep in result if isinstance(result, list) else [result]:
                tally.rep(rep)
                done.setdefault(rep.stage, []).append(rep)
            runs[name] += 1
            ran = True
        if not ran:
            return done


def scaled_seconds(watches):
    """Median operation time, each scaled to the reference speed."""
    return statistics.median(w.seconds * w.speed for w in watches)


def scaled_rate(reps):
    return reps[0].units / scaled_seconds(w for rep in reps for w in rep.seconds)


def observed_mean(reps, suffix):
    """Mean of a per-slice or per-chain result over its distinct keys.

    Every slice and chain runs at least once, so the mean repeats exactly
    for a seed.
    """
    values = {key: value for rep in reps for key, value in rep.observed.items()
              if key.endswith(suffix)}
    return statistics.fmean(values.values())


def end_to_end(reps, setup_s, peak_rss_mb):
    return {
        "train_clocks_per_s": scaled_rate(reps["train"]),
        "eval_samples_per_s": scaled_rate(reps["eval"]),
        "vcd_clocks_per_s": scaled_rate(reps["trace"]),
        "gibbs_sweeps_per_s": scaled_rate(reps["gibbs"]),
        "power_report_ms": 1e3 * scaled_seconds(w for rep in reps["power"] for w in rep.seconds),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "error_rate": observed_mean(reps["eval"], "_error_rate"),
        "tv_distance": observed_mean(reps["gibbs"], "_tv"),
        "power_ref_err_pct": reps["power"][0].observed["power.ref_err_pct"],
    }


class Workload:
    """One workload at one seed, in its own scratch directory."""

    def __init__(self, name, seed, workdir, tally):
        import workloads
        self.w = workloads
        self.name = name
        self.spec = workloads.SPECS[name]
        self.fold = seed % workloads.GOLDEN_SEEDS
        self.workdir = workdir
        self.tally = tally
        self.paths = workloads.write_inputs(self.spec, self.fold, workdir)

    def pipeline(self, in_process_cli=False):
        if self.name == "cli_session":
            return self.w.CliSession(self.spec, self.fold, self.paths, self.workdir, SRC,
                                     in_process=in_process_cli)
        return self.w.InProcess(self.spec, self.fold, self.paths)

    def stages(self, pipeline):
        if self.name == "cli_session":
            return {"session": pipeline.session}
        return {stage: getattr(pipeline, stage) for stage in self.w.STAGES}

    def measure(self, seconds):
        """The untraced run: set-up, then every stage until the deadline."""
        imports, _ = import_children(SETUP_REPS)
        pipeline = self.pipeline()
        setup = []
        for _ in range(SETUP_REPS):
            with self.w.Stopwatch() as watch:
                pipeline.setup()
            setup.append(watch)
        self.tally.rep(pipeline.fit())
        # Each CLI command loads its own inputs, so its set-up is the import.
        setup_s = statistics.median(imports) + (
            0.0 if self.name == "cli_session" else scaled_seconds(setup))
        deadline = time.perf_counter() + seconds
        reps = schedule(self.stages(pipeline), self.spec["min_reps"],
                        deadline, self.tally)
        who = resource.RUSAGE_CHILDREN if self.name == "cli_session" else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
        return end_to_end(reps, setup_s, peak_rss_mb)

    def one_pass(self, recorder=None, in_process_cli=True):
        """Set-up plus the minimum repetitions of every stage.

        With a recorder, each stage repetition runs inside a
        ``stage.<name>`` span.  Returns wall seconds, pipeline, repetitions.
        """
        pipeline = self.pipeline(in_process_cli)
        stage_span = recorder.stage_span if recorder else None
        if stage_span and self.name == "cli_session":
            pipeline.stage_span = stage_span
        around = None
        if stage_span and self.name != "cli_session":
            def around(stage, run, count):
                with stage_span(stage):
                    return run(count)
        start = time.perf_counter()
        with stage_span("setup") if stage_span else contextlib.nullcontext():
            pipeline.setup()
        with stage_span("fit") if stage_span else contextlib.nullcontext():
            self.tally.rep(pipeline.fit())
        reps = schedule(self.stages(pipeline), self.spec["min_reps"],
                        0.0, self.tally, around)
        return time.perf_counter() - start, pipeline, reps

    def traced(self):
        """Untraced pass, then traced pass; per-layer metrics of the latter."""
        import layers
        import probes
        from spans import SpanRecorder
        from snra import dbn
        _, parts = import_children(3)
        untraced_s, _, _ = self.one_pass()
        recorder = SpanRecorder()
        probes.install(recorder)
        try:
            traced_s, pipeline, reps = self.one_pass(recorder)
        finally:
            recorder.restore()
        model = pipeline.model
        grids = [layer.grid for layer in model.layers]
        saturated = sum(int(((g.states == 0) | (g.states == g.levels - 1)).sum())
                        for g in grids) / sum(g.states.size for g in grids)
        topology = self.spec["topology"]
        extra = {
            "saturated_frac": saturated,
            "model_bytes": len(dbn.to_bytes(model)),
            "vcd_bytes": len(pipeline.vcd),
            "idx_bytes": sum(v for (stage, k), v in recorder.counters.items()
                             if k == "dataset.idx_bytes"),
            "import_s": sum(parts),
            "import_numpy_s": parts[0],
            "import_scipy_special_s": parts[1],
            "overhead_s": traced_s - untraced_s,
            "overhead_pct": 100.0 * (traced_s - untraced_s) / untraced_s,
            "bottom_shape": f"{topology[0]}x{topology[1]}",
            "top_shape": f"{topology[-2]}x{topology[-1]}",
        }
        counts = {stage: len(stage_reps) for stage, stage_reps in reps.items()}
        table = recorder.table()
        OUT_DIR.mkdir(exist_ok=True)
        recorder.save(OUT_DIR / f"spans-{self.name}-seed{self.fold}.npz")
        total, rows = layers.breakdown(table, "dbn.greedy_train")
        print(f"greedy_train {total:.3f} s traced; self time by span:")
        for name, seconds in rows[:15]:
            print(f"  {name:32s} {seconds:9.4f} s {100 * seconds / total:6.1f} %")
        return layers.per_layer_metrics(table, recorder.counters, counts, extra)


def golden_path(name):
    return BENCH_DIR / "golden" / f"{name}.json"


def record_golden(name):
    """Rewrite the golden values of one workload from the current code."""
    import workloads
    golden = {}
    for fold in range(workloads.GOLDEN_SEEDS):
        tally = Tally({}, record=True)
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
            Workload(name, fold, Path(workdir), tally).one_pass(in_process_cli=False)
        golden[str(fold)] = tally.recorded
        print(f"{name} seed {fold}: {len(tally.recorded)} values", file=sys.stderr)
    golden_path(name).parent.mkdir(exist_ok=True)
    golden_path(name).write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def run_all(args):
    """Every workload in turn, each in its own process; one table of metrics."""
    import workloads
    results = {}
    for name in workloads.SPECS:
        done = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, check=True)
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    metrics = {}
    for name, result in results.items():
        for metric, entry in result["metrics"].items():
            print(f"{name:12s} {metric:32s} {entry['value']:14.6g} {entry['unit']}")
            metrics[f"{name}.{metric}"] = entry
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    load_snra()
    import layers
    import workloads
    if args.workload == "all" and not args.record_golden:
        return run_all(args)
    if args.workload not in workloads.SPECS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"known: {', '.join(workloads.SPECS)}")
    OUT_DIR.mkdir(exist_ok=True)
    if args.record_golden:
        record_golden(args.workload)
        return 0
    golden = json.loads(golden_path(args.workload).read_text())
    fold = args.seed % workloads.GOLDEN_SEEDS
    tally = Tally(golden[str(fold)], record=False)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        workload = Workload(args.workload, args.seed, workdir, tally)
        if args.trace:
            metrics = workload.traced()
            units = layers.UNITS
        else:
            metrics = workload.measure(args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
