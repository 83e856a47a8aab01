"""Per-layer metrics of the traced run, computed from its spans.

Stage roots are the benchmark's own ``stage.<name>`` spans; a per-call
figure is a percentile over calls, and a total is divided by the number
of repetitions of the stage it is taken from, so it reads per unit of
work however many repetitions the run made.
"""

import numpy as np

from spans import percentile

# cli has no self-time entry of its own: cli.main's self time is reported
# as the uncovered share of each stage (stage.<name>_self_s).
LAYERS = ("device", "array", "fsm", "bits", "dbn", "dataset", "trace", "oracle",
          "power")
STAGES = ("setup", "fit", "train", "eval", "trace", "gibbs", "power")
UNITS = {
    "device.pulse_column_calls": "count",
    "device.pulse_column_us_p50": "us",
    "device.weights_ms": "ms",
    "device.weights_eval_ms": "ms",
    "device.pulses": "count",
    "device.pulse_effective_ratio": "ratio",
    "device.saturated_frac": "fraction",
    "device.self_s": "s",
    "array.forward_calls": "count",
    "array.backward_calls": "count",
    "array.forward_us_p50": "us",
    "array.forward_us_p99": "us",
    "array.forward_gibbs_us_p50": "us",
    "array.forward_gibbs_us_p99": "us",
    "array.backward_gibbs_us_p50": "us",
    "array.apply_frame_us_p50": "us",
    "array.self_s": "s",
    "fsm.update_clock_us_p50": "us",
    "fsm.read_clock_us_p50": "us",
    "fsm.update_frame_us_p50": "us",
    "fsm.cd_iteration_bottom_ms_p50": "ms",
    "fsm.cd_iteration_bottom_ms_p99": "ms",
    "fsm.cd_iteration_top_ms_p50": "ms",
    "fsm.cd_iteration_top_ms_p99": "ms",
    "fsm.sim_clocks": "clocks",
    "fsm.self_s": "s",
    "bits.ensure_bits_calls": "count",
    "bits.ensure_bits_ms": "ms",
    "bits.self_s": "s",
    "dbn.transfer_ms": "ms",
    "dbn.greedy_train_s": "s",
    "dbn.predict_us_p50": "us",
    "dbn.predict_us_p99": "us",
    "dbn.derived_rng_us_p50": "us",
    "dbn.to_bytes_ms": "ms",
    "dbn.from_bytes_ms": "ms",
    "dbn.model_bytes": "bytes",
    "dbn.self_s": "s",
    "dataset.load_idx_ms": "ms",
    "dataset.idx_mb_per_s": "MB/s",
    "dataset.self_s": "s",
    "trace.write_vcd_ms": "ms",
    "trace.iteration_steps_ms": "ms",
    "trace.vcd_bytes": "bytes",
    "trace.self_s": "s",
    "oracle.gibbs_joint_counts_s": "s",
    "oracle.exact_distribution_ms": "ms",
    "oracle.self_s": "s",
    "power.load_reference_ms": "ms",
    "power.topology_power_us": "us",
    "power.self_s": "s",
    "cli.import_s": "s",
    "cli.import_numpy_s": "s",
    "cli.import_scipy_special_s": "s",
    "stage.train_self_s": "s",
    "stage.eval_self_s": "s",
    "stage.trace_self_s": "s",
    "stage.gibbs_self_s": "s",
    "stage.power_self_s": "s",
    "train.write_path_share": "fraction",
    "tracing.spans": "count",
    "tracing.overhead_s": "s",
    "tracing.overhead_pct": "%",
}
# Training figures describe one epoch over the whole training set: the
# untimed fit, which every workload runs before its timed stages.
FIT = "fit"


class LayerView:
    def __init__(self, table, reps):
        self.t = table
        self.reps = reps
        stage_roots = np.zeros(len(table), dtype=bool)
        self.stage_ids = {}
        for stage in STAGES:
            mask = table.mask(f"stage.{stage}")
            self.stage_ids[stage] = np.flatnonzero(mask)
            stage_roots |= mask
        self.owner = owners(table.parent, stage_roots)

    def in_stage(self, stage):
        return np.isin(self.owner, self.stage_ids[stage])

    def select(self, name, stage=None):
        mask = self.t.mask(name)
        return mask & self.in_stage(stage) if stage else mask

    def durations(self, name, stage=None):
        return self.t.duration[self.select(name, stage)]

    def p(self, name, q, scale, stage=None, self_time=False):
        values = (self.t.self_time if self_time else self.t.duration)[self.select(name, stage)]
        return percentile(values, q) * scale

    def per_rep(self, values, stage):
        return float(np.sum(values)) / max(self.reps.get(stage, 1), 1)


def owners(parent, root_mask):
    """Index of each span's nearest ancestor selected by ``root_mask``, or -1."""
    owner = np.where(root_mask, np.arange(parent.size), -1).tolist()
    parents = parent.tolist()
    for k, p in enumerate(parents):
        if owner[k] < 0 and p >= 0:
            owner[k] = owner[p]
    return np.asarray(owner, dtype=np.int64)


def per_layer_metrics(table, counters, reps, extra):
    """Every per-layer metric of BENCHMARK.json, keyed by name."""
    v = LayerView(table, reps)
    t = table
    train_pulses = counters.get((FIT, "device.pulses"), 0)
    moved = counters.get((FIT, "device.pulses_moved"), 0)
    greedy = v.select("dbn.greedy_train", FIT)
    greedy_s = float(t.duration[greedy].sum())
    transfer = v.select("array.forward", FIT) & t.children_of(greedy)
    # The write path is the Update clocks plus the weight-cache rebuilds,
    # since a write empties the cache that the next read fills again.
    write_path = float(v.durations("fsm.update_clock", FIT).sum())
    weights_train = v.durations("device.weights", FIT)
    idx_spans = v.select("dataset.load_idx")
    top, bottom = extra["top_shape"], extra["bottom_shape"]
    m = {
        "device.pulse_column_calls": int(v.select("device.pulse_column", FIT).sum()),
        "device.pulse_column_us_p50": v.p("device.pulse_column", 50, 1e6, FIT),
        "device.weights_ms": float(weights_train.sum()) * 1e3,
        "device.weights_eval_ms": v.per_rep(v.durations("device.weights", "eval"), "eval") * 1e3,
        "device.pulses": train_pulses,
        "device.pulse_effective_ratio": moved / train_pulses if train_pulses else 0.0,
        "device.saturated_frac": extra["saturated_frac"],
        "array.forward_calls": int(t.mask("array.forward").sum()),
        "array.backward_calls": int(t.mask("array.backward").sum()),
        "array.forward_us_p50": v.p("array.forward", 50, 1e6, "eval"),
        "array.forward_us_p99": v.p("array.forward", 99, 1e6, "eval"),
        "array.forward_gibbs_us_p50": v.p("array.forward", 50, 1e6, "gibbs"),
        "array.forward_gibbs_us_p99": v.p("array.forward", 99, 1e6, "gibbs"),
        "array.backward_gibbs_us_p50": v.p("array.backward", 50, 1e6, "gibbs"),
        "array.apply_frame_us_p50": v.p("array.apply_frame", 50, 1e6, FIT),
        "fsm.update_clock_us_p50": v.p("fsm.update_clock", 50, 1e6, FIT, self_time=True),
        "fsm.read_clock_us_p50": v.p("fsm.read_clock", 50, 1e6, FIT, self_time=True),
        "fsm.update_frame_us_p50": v.p("fsm.update_frame", 50, 1e6, FIT),
        "fsm.cd_iteration_bottom_ms_p50": v.p(f"fsm.cd_iteration:{bottom}", 50, 1e3, FIT),
        "fsm.cd_iteration_bottom_ms_p99": v.p(f"fsm.cd_iteration:{bottom}", 99, 1e3, FIT),
        "fsm.cd_iteration_top_ms_p50": v.p(f"fsm.cd_iteration:{top}", 50, 1e3, FIT),
        "fsm.cd_iteration_top_ms_p99": v.p(f"fsm.cd_iteration:{top}", 99, 1e3, FIT),
        "fsm.sim_clocks": (int(v.select("fsm.update_clock", FIT).sum())
                           + int(v.select("fsm.read_clock", FIT).sum())),
        "bits.ensure_bits_calls": int(t.mask("bits.ensure_bits").sum()),
        "bits.ensure_bits_ms": float(v.durations("bits.ensure_bits").sum()) * 1e3,
        "dbn.transfer_ms": float(t.duration[transfer].sum()) * 1e3,
        "dbn.greedy_train_s": greedy_s,
        "dbn.predict_us_p50": v.p("dbn.predict", 50, 1e6, "eval"),
        "dbn.predict_us_p99": v.p("dbn.predict", 99, 1e6, "eval"),
        "dbn.derived_rng_us_p50": v.p("dbn.derived_rng", 50, 1e6),
        "dbn.to_bytes_ms": v.p("dbn.to_bytes", 50, 1e3),
        "dbn.from_bytes_ms": v.p("dbn.from_bytes", 50, 1e3),
        "dbn.model_bytes": extra["model_bytes"],
        "dataset.load_idx_ms": v.p("dataset.load_idx", 50, 1e3),
        "dataset.idx_mb_per_s": (extra["idx_bytes"] / 1e6 / float(t.duration[idx_spans].sum())
                                 if idx_spans.any() else 0.0),
        "trace.write_vcd_ms": v.p("trace.write_vcd", 50, 1e3, "trace"),
        "trace.iteration_steps_ms": v.p("trace.iteration_steps", 50, 1e3),
        "trace.vcd_bytes": extra["vcd_bytes"],
        "oracle.gibbs_joint_counts_s": v.p("oracle.gibbs_joint_counts", 50, 1.0),
        "oracle.exact_distribution_ms": v.p("oracle.exact_distribution", 50, 1e3),
        "power.load_reference_ms": v.p("power.load_reference", 50, 1e3),
        "power.topology_power_us": v.p("power.topology_power", 50, 1e6),
        "cli.import_s": extra["import_s"],
        "cli.import_numpy_s": extra["import_numpy_s"],
        "cli.import_scipy_special_s": extra["import_scipy_special_s"],
        "train.write_path_share": ((write_path + float(weights_train.sum())) / greedy_s
                                   if greedy_s else 0.0),
        "tracing.spans": len(t),
        "tracing.overhead_s": extra["overhead_s"],
        "tracing.overhead_pct": extra["overhead_pct"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = float(t.self_time[t.layer_mask(layer)].sum())
    for stage in ("train", "eval", "trace", "gibbs", "power"):
        # The part of a stage no layer span covers: the benchmark's own loop
        # in process, and cli.main's argument handling and printing in
        # cli_session.
        uncovered = (t.mask(f"stage.{stage}") | (t.mask("cli.main") & v.in_stage(stage)))
        m[f"stage.{stage}_self_s"] = v.per_rep(t.self_time[uncovered], stage)
    return m


def breakdown(table, root_name):
    """Self time under spans named ``root_name``, summed by span name."""
    inside = owners(table.parent, table.mask(root_name)) >= 0
    total = float(table.duration[table.mask(root_name)].sum())
    sums = np.bincount(table.name_id[inside], weights=table.self_time[inside],
                       minlength=len(table.names))
    rows = [(table.names[k], float(sums[k])) for k in np.flatnonzero(sums)]
    return total, sorted(rows, key=lambda row: -row[1])
