import numpy as np
import pytest
from test_dataset import damage_gzip, write_idx_pair
from test_device import BLOCK_SCIPY, fail_large_allocations, fresh_python

from snra import cli, dbn
from snra.dataset import load_idx


def run(argv, capsys):
    code = cli.main(argv)
    out, _ = capsys.readouterr()
    return code, out


def test_power(capsys, tmp_path):
    csv_path = tmp_path / "power.csv"
    code, out = run(["power", "--topology", "784x500x10", "--tech", "sram",
                     "--csv", str(csv_path)], capsys)
    assert code == 0
    assert out == "13.96 mW\n"
    assert csv_path.read_text().splitlines()[1].startswith("784x500x10,13.96,")


@pytest.mark.parametrize("argv", [
    ["train", "--topology", "784x", "--images", "i", "--labels", "l", "--out", "m"],
    ["eval", "--images", "i", "--labels", "l"],
    ["power", "--topology", "784x10", "--tech", "sram", "--bogus"],
])
def test_user_errors_exit_1(argv, capsys):
    assert run(argv, capsys)[0] == 1


def test_missing_model_file_exits_1(capsys, tmp_path):
    argv = ["eval", "--model", str(tmp_path / "absent.snra"), "--images", "i",
            "--labels", "l"]
    assert run(argv, capsys)[0] == 1


def test_eval_labels_outside_the_model_exit_1(capsys, tmp_path):
    model_path = tmp_path / "model.snra"
    dbn.save_model(dbn.DbnModel((784, 2)), model_path)
    images, labels = write_idx_pair(tmp_path, np.zeros((2, 784)), [0, 5])
    argv = ["eval", "--model", str(model_path), "--images", str(images),
            "--labels", str(labels)]
    assert run(argv, capsys)[0] == 1


def test_train_on_an_oversized_idx_header_exits_1(capsys, tmp_path):
    images, labels = write_idx_pair(tmp_path, np.zeros((1, 100), dtype=np.uint8), [1],
                                    compress=True, image_count=0x00FFFFFF)
    argv = ["train", "--topology", "784x10", "--images", str(images),
            "--labels", str(labels), "--out", str(tmp_path / "model.snra")]
    assert cli.main(argv) == 1
    assert f"expected {0x00FFFFFF * 784} bytes of pixel data, found 100" in capsys.readouterr().err


@pytest.mark.parametrize("hidden, message", [
    (2**32, "layer sizes must not exceed 4294967295"),
    (100_000_000, "cannot allocate a synapse grid of shape (784, 100000000)"),
])
def test_train_of_an_unallocatable_topology_exits_1(capsys, monkeypatch, tmp_path,
                                                    hidden, message):
    fail_large_allocations(monkeypatch)
    images, labels = write_idx_pair(tmp_path, np.eye(2, 784), [0, 1])
    argv = ["train", "--topology", f"784x{hidden}x10", "--images", str(images),
            "--labels", str(labels), "--out", str(tmp_path / "model.snra")]
    assert cli.main(argv) == 1
    assert message in capsys.readouterr().err


def train_argv(tmp_path, *extra):
    images, labels = write_idx_pair(tmp_path, np.eye(2, 784), [0, 1])
    return ["train", "--topology", "784x2", "--images", str(images), "--labels", str(labels),
            "--out", str(tmp_path / "model.snra"), *extra]


@pytest.mark.parametrize("extra", [["--levels", "0"], ["--epochs", "-1"]],
                         ids=["levels-0", "epochs--1"])
def test_out_of_range_flags_exit_1(capsys, tmp_path, extra):
    code = cli.main(train_argv(tmp_path, *extra))
    assert code == 1
    assert f"argument {extra[0]}: expected a" in capsys.readouterr().err
    assert not (tmp_path / "model.snra").exists()


@pytest.mark.parametrize("argv", [
    ["power", "--topology", "784x500x{}", "--tech", "sram"],
    ["oracle", "--visible", "2", "--hidden", "1", "--sweeps", "{}"],
    ["oracle", "--visible", "2", "--hidden", "1", "--sweeps", "10", "--seed", "{}"],
    ["train", "--topology", "784x2", "--images", "{images}", "--labels", "{labels}",
     "--out", "{out}", "--input-scale", "{}"],
], ids=["topology", "positive-flag", "non-negative-flag", "real-flag"])
@pytest.mark.parametrize("text", ["\u0663", "1_0", "+3", "\uff12", " 2 "],
                         ids=["arabic-indic-3", "underscore", "sign", "fullwidth-2", "spaces"])
def test_integer_text_outside_ascii_digits_exits_1(capsys, tmp_path, argv, text):
    # int and float alone read each of these as a number, and every command
    # here runs on the number it reads.
    images, labels = write_idx_pair(tmp_path, np.eye(2, 784), [0, 1])
    paths = {"images": images, "labels": labels, "out": tmp_path / "model.snra"}
    assert run([arg.format(text, **paths) for arg in argv], capsys) == (1, "")
    assert not paths["out"].exists()


@pytest.mark.parametrize("text, scale", [("0.5", 0.5), ("1e-1", 0.1), (".25E+1", 2.5)])
def test_input_scale_reads_ascii_decimal_text(capsys, tmp_path, text, scale):
    assert run(train_argv(tmp_path, "--input-scale", text), capsys)[0] == 0
    assert dbn.load_model(tmp_path / "model.snra").input_scale == scale


def test_eval_prints_the_error_rate_of_the_trained_model(capsys, tmp_path):
    assert run(train_argv(tmp_path, "--seed", "4"), capsys)[0] == 0
    test_dir = tmp_path / "test"
    test_dir.mkdir()
    rng = np.random.default_rng(6)
    images, labels = write_idx_pair(test_dir, rng.integers(0, 2, (9, 784)) * 255,
                                    rng.integers(0, 2, 9).tolist())
    model_path = tmp_path / "model.snra"
    code, out = run(["eval", "--model", str(model_path), "--images", str(images),
                     "--labels", str(labels)], capsys)
    assert code == 0
    data = load_idx(images, labels)
    rate = dbn.error_rate(dbn.load_model(model_path), data.images, data.labels)
    assert out == f"error_rate={rate:.4f} ({round(rate * 9)}/9)\n"


def test_train_without_biases_leaves_every_bias_device_at_mid_level(capsys, tmp_path):
    images, labels = write_idx_pair(tmp_path, np.eye(4, 784) * 255, [0, 1, 0, 1])
    model_path = tmp_path / "model.snra"
    assert run(["train", "--topology", "784x4x2", "--images", str(images), "--labels",
                str(labels), "--out", str(model_path), "--no-biases"], capsys)[0] == 0
    model = dbn.load_model(model_path)
    assert model.use_biases is False
    assert [layer.grid.use_biases for layer in model.layers] == [False, False]
    mid = (model.levels - 1) // 2
    for layer in model.layers:
        grid = layer.grid
        assert (grid.states != mid).any()
        assert (grid.visible_bias_states == mid).all() and (grid.hidden_bias_states == mid).all()
    code, out = run(["eval", "--model", str(model_path), "--images", str(images),
                     "--labels", str(labels)], capsys)
    assert code == 0
    data = load_idx(images, labels)
    rate = dbn.error_rate(model, data.images, data.labels)
    assert out == f"error_rate={rate:.4f} ({round(rate * 4)}/4)\n"


@pytest.mark.parametrize("extra", [
    ["--seed", str(2**64)],
    ["--levels", "99999999999999999999"],
    ["--delta-d", "99999999999999999999"],
    ["--delta-d", "70000"],
])
def test_unsavable_settings_exit_1_and_keep_the_old_model(capsys, tmp_path, extra):
    model_path = tmp_path / "model.snra"
    dbn.save_model(dbn.DbnModel((784, 2)), model_path)
    before = model_path.read_bytes()
    assert run(train_argv(tmp_path, *extra), capsys)[0] == 1
    assert model_path.read_bytes() == before


def test_largest_seed_trains_and_round_trips(capsys, tmp_path):
    assert run(train_argv(tmp_path, "--seed", str(2**64 - 1)), capsys)[0] == 0
    assert dbn.load_model(tmp_path / "model.snra").rng_seed == 2**64 - 1


@pytest.mark.parametrize("damage", ["truncated", "corrupt"])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_damaged_gzip_idx_exits_1(capsys, tmp_path, damage, command):
    images, labels = write_idx_pair(tmp_path, np.eye(2, 784), [0, 1])
    model_path = tmp_path / "model.snra"
    if command == "train":
        damage_gzip(images, damage)
        argv = ["train", "--topology", "784x2", "--out", str(model_path)]
    else:
        damage_gzip(labels, damage)
        dbn.save_model(dbn.DbnModel((784, 2)), model_path)
        argv = ["eval", "--model", str(model_path)]
    assert run(argv + ["--images", str(images), "--labels", str(labels)], capsys)[0] == 1


def test_train_on_a_crc_corrupt_gzip_exits_1(capsys, tmp_path):
    images, labels = write_idx_pair(tmp_path, np.eye(2, 784), [0, 1])
    damage_gzip(images, "crc")
    argv = ["train", "--topology", "784x2", "--out", str(tmp_path / "model.snra"),
            "--images", str(images), "--labels", str(labels)]
    assert cli.main(argv) == 1
    assert "CRC check failed" in capsys.readouterr().err
    assert not (tmp_path / "model.snra").exists()


def test_trace_register_of_the_wrong_width_exits_1(capsys):
    argv = ["trace", "--visible", "3", "--hidden", "2", "--v", "01", "--h", "01",
            "--vbar", "010", "--hbar", "01"]
    assert cli.main(argv) == 1
    assert "--v must supply exactly 3 bits" in capsys.readouterr().err


TRACE = ["trace", "--visible", "3", "--hidden", "2", "--v", "101", "--h", "01",
         "--vbar", "011", "--hbar", "10"]


def test_trace_to_a_file_writes_what_it_would_print(capsys, tmp_path):
    code, printed = run(TRACE, capsys)
    assert code == 0 and printed.startswith("$timescale 1ns $end\n")
    path = tmp_path / "iteration.vcd"
    assert run(TRACE + ["--vcd", str(path)], capsys) == (0, "")
    assert path.read_bytes() == printed.encode()


ORACLE = ["oracle", "--visible", "2", "--hidden", "2", "--sweeps", "300"]


def test_oracle_past_exact_enumeration_exits_1(capsys):
    argv = ["oracle", "--visible", "15", "--hidden", "6", "--sweeps", "1"]
    assert cli.main(argv) == 1
    assert "visible + hidden must not exceed 20" in capsys.readouterr().err


def test_seed_defaults_to_1(capsys):
    default = run(ORACLE, capsys)
    assert default == run(ORACLE + ["--seed", "1"], capsys)
    assert default[0] == 0 and default[1].startswith("tv_distance=")
    assert default != run(ORACLE + ["--seed", "7"], capsys)


def test_internal_error_exits_2(capsys, monkeypatch):
    def broken(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli.power, "topology_power", broken)
    assert run(["power", "--topology", "784x10", "--tech", "sram"], capsys)[0] == 2


# ``python -m snra`` with the command line passed after ``-c``.
RUN_SNRA = "import runpy; runpy.run_module('snra', run_name='__main__', alter_sys=True)"


def test_import_snra_loads_no_scipy():
    done = fresh_python(BLOCK_SCIPY + "import snra")
    assert done.returncode == 0, done.stderr.decode()


@pytest.mark.parametrize("argv, block_scipy", [
    pytest.param(["power", "--topology", "784x500x10", "--tech", "she-mtj",
                  "--csv", "power.csv"], True, id="power"),
    pytest.param(TRACE, True, id="trace"),
    pytest.param(ORACLE, False, id="oracle"),
])
def test_fresh_process_matches_in_process(capsys, monkeypatch, tmp_path, argv, block_scipy):
    # Only sampling needs scipy, so power and trace must run without it.
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    here.mkdir()
    fresh.mkdir()
    monkeypatch.chdir(here)
    code, out = run(argv, capsys)
    done = fresh_python((BLOCK_SCIPY if block_scipy else "") + RUN_SNRA, *argv, cwd=fresh)
    assert done.returncode == 0, done.stderr.decode()
    assert code == 0
    assert done.stdout == out.encode()
    written = sorted(path.name for path in here.iterdir())
    assert sorted(path.name for path in fresh.iterdir()) == written
    for name in written:
        assert (fresh / name).read_bytes() == (here / name).read_bytes()
