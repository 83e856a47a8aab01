import pytest

from snra import cli


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


ORACLE = ["oracle", "--visible", "2", "--hidden", "2", "--sweeps", "300"]


def test_non_integer_seed_variable_exits_1(capsys, monkeypatch):
    monkeypatch.setenv("SNRA_SEED", "seven")
    assert run(ORACLE, capsys)[0] == 1


def test_seed_variable_matches_seed_flag(capsys, monkeypatch):
    monkeypatch.delenv("SNRA_SEED", raising=False)
    flagged = run(ORACLE + ["--seed", "7"], capsys)
    monkeypatch.setenv("SNRA_SEED", "7")
    assert run(ORACLE, capsys) == flagged
    assert flagged[0] == 0 and flagged[1].startswith("tv_distance=")


def test_internal_error_exits_2(capsys, monkeypatch):
    def broken(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli.power, "topology_power", broken)
    assert run(["power", "--topology", "784x10", "--tech", "sram"], capsys)[0] == 2
