import numpy as np
import pytest
from test_dataset import damage_gzip, write_idx_pair
from test_device import fail_large_allocations

from snra import cli, dbn


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


ORACLE = ["oracle", "--visible", "2", "--hidden", "2", "--sweeps", "300"]


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
