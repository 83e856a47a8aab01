"""Command-line surface: train, eval, trace, power, and oracle runs.

Every subcommand is deterministic for fixed flags, and ``--seed`` defaults
to 1.  Exit codes: 0 success, 1 user error, 2 internal error.
"""

import argparse
import sys

import numpy as np

from . import dbn, power, trace
from .array import RbmArray
from .bits import bits_from_string
from .dataset import load_idx
from .device import SynapseGrid
from .errors import SnraError
from .fsm import parse_topology
from .oracle import (MAX_EXACT_NODES, DenseRbm, exact_distribution,
                     gibbs_joint_counts, tv_distance)


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _non_negative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text}")
    return value


def _register_bits(text, flag, width):
    bits = bits_from_string(text, flag)
    if bits.size != width:
        raise SnraError(f"{flag} must supply exactly {width} bits, got {len(text)}")
    return bits


def _cmd_train(args):
    topology = parse_topology(args.topology)
    data = load_idx(args.images, args.labels, limit=args.train_samples)
    model = dbn.DbnModel(topology, rng_seed=args.seed,
                         levels=args.levels, delta_d=args.delta_d,
                         input_scale=args.input_scale,
                         use_biases=not args.no_biases)
    report = dbn.greedy_train(model, data.images, data.labels, args.epochs)
    dbn.save_model(model, args.out)
    for line in report.summary_lines():
        print(line)
    print(f"model written to {args.out}")
    return 0


def _cmd_eval(args):
    model = dbn.load_model(args.model)
    data = load_idx(args.images, args.labels, limit=args.test_samples)
    rate = dbn.error_rate(model, data.images, data.labels)
    wrong = round(rate * len(data))
    print(f"error_rate={rate:.4f} ({wrong}/{len(data)})")
    return 0


def _cmd_trace(args):
    v = _register_bits(args.v, "--v", args.visible)
    h = _register_bits(args.h, "--h", args.hidden)
    v_bar = _register_bits(args.vbar, "--vbar", args.visible)
    h_bar = _register_bits(args.hbar, "--hbar", args.hidden)
    steps = trace.iteration_steps(v, h, v_bar, h_bar)
    text = trace.write_vcd(steps, path=args.vcd)
    if args.vcd is None:
        sys.stdout.write(text)
    return 0


def _cmd_power(args):
    topology = parse_topology(args.topology)
    milliwatts = power.topology_power(topology, args.tech)
    print(f"{milliwatts:.2f} mW")
    if args.csv is not None:
        power.comparison_report([topology], csv_path=args.csv)
    return 0


def _cmd_oracle(args):
    if args.visible + args.hidden > MAX_EXACT_NODES:
        raise SnraError(
            f"visible + hidden must not exceed {MAX_EXACT_NODES} for exact enumeration")
    rng = np.random.default_rng(args.seed)
    grid = SynapseGrid.uniform_random(args.visible, args.hidden, rng)
    crossbar = RbmArray(grid)
    counts = gibbs_joint_counts(crossbar, args.sweeps, rng)
    exact = exact_distribution(DenseRbm.from_grid(grid))
    distance = tv_distance(counts / counts.sum(), exact)
    print(f"tv_distance={distance:.6f} sweeps={args.sweeps} "
          f"states={1 << (args.visible + args.hidden)}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="snra",
        description="Clock-accurate RBM/DBN training-array simulator and power model.")
    commands = parser.add_subparsers(dest="command", required=True)

    train = commands.add_parser("train", help="greedy layer-wise CD training")
    train.add_argument("--topology", required=True,
                       help="layer sizes, e.g. 784x500x10")
    train.add_argument("--images", required=True, help="IDX image file (.gz ok)")
    train.add_argument("--labels", required=True, help="IDX label file (.gz ok)")
    train.add_argument("--train-samples", type=_non_negative_int, default=None,
                       help="use only the first N samples")
    train.add_argument("--epochs", type=_non_negative_int, default=1)
    train.add_argument("--seed", type=_non_negative_int, default=1)
    train.add_argument("--levels", type=_positive_int, default=32,
                       help="synapse quantization levels")
    train.add_argument("--delta-d", type=_positive_int, default=1,
                       help="index steps per write pulse")
    train.add_argument("--input-scale", type=float, default=1.0)
    train.add_argument("--no-biases", action="store_true",
                       help="disable bias devices")
    train.add_argument("--out", required=True, help="model output path")
    train.set_defaults(handler=_cmd_train)

    evaluate = commands.add_parser("eval", help="error rate of a trained model")
    evaluate.add_argument("--model", required=True)
    evaluate.add_argument("--images", required=True)
    evaluate.add_argument("--labels", required=True)
    evaluate.add_argument("--test-samples", type=_non_negative_int, default=None)
    evaluate.set_defaults(handler=_cmd_eval)

    tracer = commands.add_parser(
        "trace", help="dump one CD iteration as VCD from given registers")
    tracer.add_argument("--visible", type=_positive_int, required=True)
    tracer.add_argument("--hidden", type=_positive_int, required=True)
    tracer.add_argument("--v", required=True,
                        help="v register, most significant bit first")
    tracer.add_argument("--h", required=True)
    tracer.add_argument("--vbar", required=True)
    tracer.add_argument("--hbar", required=True)
    tracer.add_argument("--vcd", default=None,
                        help="output path (stdout when omitted)")
    tracer.set_defaults(handler=_cmd_trace)

    pwr = commands.add_parser("power", help="controller power for a topology")
    pwr.add_argument("--topology", required=True)
    pwr.add_argument("--tech", required=True, choices=[power.SRAM, power.SHE_MTJ])
    pwr.add_argument("--csv", default=None, help="also write a comparison CSV")
    pwr.set_defaults(handler=_cmd_power)

    orc = commands.add_parser(
        "oracle", help="Gibbs chain vs exact Boltzmann distribution")
    orc.add_argument("--visible", type=_positive_int, required=True)
    orc.add_argument("--hidden", type=_positive_int, required=True)
    orc.add_argument("--sweeps", type=_positive_int, default=100000)
    orc.add_argument("--seed", type=_non_negative_int, default=1)
    orc.set_defaults(handler=_cmd_oracle)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 1
    try:
        return args.handler(args)
    except (SnraError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - last-resort diagnostic
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
