import json
import re

import pytest

from pnclab.cli import main
from pnclab.search import load_store, load_table


def test_offline_and_table_and_verify(tmp_path, capsys):
    store_path = str(tmp_path / "store.cat")
    rc = main([
        "offline", "--mod", "qam4", "--t", "2", "--K", "5",
        "--trials", "20000", "--seed", "0", "--out", store_path,
    ])
    assert rc == 0
    store = load_store(store_path)
    assert store.t == 2 and len(store.states) == 14

    table_path = str(tmp_path / "table.tab")
    assert main(["table", "--store", store_path, "--n", "2", "--out", table_path]) == 0
    table = load_table(table_path)
    assert len(table) == 14 * 14

    assert main(["verify-store", "--store", store_path, "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "store OK" in out


def test_verify_store_fails_on_infeasible_tuples(tmp_path, capsys):
    """A K=1 store cannot serve two APs in the same fade."""
    store_path = str(tmp_path / "k1.cat")
    assert main([
        "offline", "--mod", "qam4", "--t", "2", "--K", "1",
        "--trials", "20000", "--seed", "0", "--out", store_path,
    ]) == 0
    infeasible = load_store(store_path).infeasible
    assert infeasible
    capsys.readouterr()
    assert main(["verify-store", "--store", store_path, "--n", "2"]) == 1
    assert "store FAILED verification" in capsys.readouterr().out
    # each infeasible tuple carries the marker in the table
    assert main(["table", "--store", store_path, "--n", "2", "--out", str(tmp_path / "k1.tab")]) == 0
    assert f"196 entries, {len(infeasible)} fallback markers" in capsys.readouterr().out


def test_offline_with_truncation(tmp_path):
    store_path = str(tmp_path / "store5.cat")
    main([
        "offline", "--mod", "qam4", "--psfs", "5", "--K", "5",
        "--trials", "20000", "--seed", "0", "--out", store_path,
    ])
    assert len(load_store(store_path).states) == 5


def test_sfs_list(tmp_path, capsys):
    cat_path = str(tmp_path / "cat.txt")
    assert main(["sfs", "list", "--mod", "qam4", "--trials", "20000",
                 "--seed", "1", "--out", cat_path]) == 0
    out = capsys.readouterr().out
    assert "13 distinct ratio states" in out
    assert (tmp_path / "cat.txt").exists()


def test_simulate_with_overrides(tmp_path, capsys):
    cfg = {
        "modulation": "qam4",
        "scheme": "comp_ideal",
        "ebn0_db": [12.0],
        "frames_per_point": 100,
        "frame_len": 24,
        "seed": 4,
        "rank_trials": 10000,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_path = tmp_path / "results.csv"
    rc = main([
        "simulate", "--config", str(cfg_path),
        "--set", "ebn0_db=10,14", "--set", "seed=5",
        "--out", str(out_path),
    ])
    assert rc == 0
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) == 3  # header + two sweep points
    assert lines[1].split(",")[6] == "5"


@pytest.mark.parametrize(
    "extra, overrides, field",
    [
        ({}, ["frames_per_point=1e3"], "frames_per_point"),
        ({}, ["bogus=1"], "bogus"),
        ({"frames": 100}, [], "frames"),
        ({"ebn0_db": 10}, [], "ebn0_db"),
    ],
    ids=["non-integer", "unknown-override", "unknown-json-key", "scalar-point"],
)
def test_simulate_refused_config_is_one_line(tmp_path, extra, overrides, field):
    """A config that construction refuses ends the command with one line
    naming the field, not a traceback."""
    cfg = {"modulation": "qam4", "scheme": "comp_ideal", "ebn0_db": [12.0], "frames_per_point": 10, **extra}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    argv = ["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o.csv")]
    with pytest.raises(SystemExit) as exc:
        main(argv + [a for pair in overrides for a in ("--set", pair)])
    message = exc.value.code
    assert isinstance(message, str) and "\n" not in message
    assert re.search(rf"\b{field}\b", message)
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize(
    "text, kind",
    [("[1]", "an array"), ('"x"', "a string"), ("3", "a number"), ("true", "a boolean"), ("null", "null")],
)
def test_simulate_config_not_a_json_object_is_one_line(tmp_path, text, kind):
    """A config file whose JSON is not an object ends the command with one
    line naming the JSON type it holds, and writes no CSV.  (A list used to
    end in an AttributeError traceback.)"""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o.csv")])
    assert exc.value.code == f"pnclab simulate: a config must be a JSON object, not {kind}"
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["offline", "--K", "0"],
        ["offline", "--psfs", "0"],
        ["offline", "--n", "0"],
        ["offline", "--trials", "0"],
        ["offline", "--t", "5"],
        ["offline", "--t", "1"],
        ["offline", "--n", "1", "--t", "2"],
        ["offline", "--mod", "qam16", "--n", "1"],
        ["offline", "--mod", "qam4", "--t", "2", "--n", "3"],
        ["table", "--store", "missing.cat", "--n", "0"],
        ["sfs", "list", "--trials", "0"],
        ["verify-store", "--store", "missing.cat", "--n", "-1"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_bad_counts_refused_with_one_usage_error(tmp_path, capsys, argv):
    """A count below 1, or an offline --t outside [m, 2m] or whose --n APs
    do not stack to a square matrix, is a usage error: exit 2, one error
    line, no traceback and no file.  (--K 0 used to write a store of 14
    empty lists; --trials 0, --t 5, --n 1 --t 2 and table --n 0 ended in
    tracebacks; --t 2 --n 3 wrote a store certified for 3 APs.)"""
    out = str(tmp_path / "out")
    with pytest.raises(SystemExit) as exc:
        main(argv + (["--out", out] if argv[0] in ("offline", "table") else []))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: pnclab ") and len([ln for ln in err.splitlines() if "error:" in ln]) == 1
    assert "Traceback" not in err and not (tmp_path / "out").exists()


def test_verify_store_reports_a_dishonest_header(tmp_path, capsys):
    """A store whose header claims a feasibility its lists lack fails
    verification with the load's reason, not a traceback."""
    store_path = tmp_path / "k1.cat"
    assert main([
        "offline", "--mod", "qam4", "--t", "2", "--K", "1",
        "--trials", "20000", "--seed", "0", "--out", str(store_path),
    ]) == 0
    text = store_path.read_text()
    store_path.write_text(re.sub(r"(?m)^infeasible=.*$", "infeasible=", text))
    capsys.readouterr()
    assert main(["verify-store", "--store", str(store_path), "--n", "2"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("store FAILED verification: ") and "the header lists 0 infeasible state tuples" in out


@pytest.fixture(scope="module")
def qam4_t2_store(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("store") / "store.cat")
    assert main(["offline", "--mod", "qam4", "--t", "2", "--trials", "20000", "--seed", "0", "--out", path]) == 0
    return path


@pytest.mark.parametrize("command", ["table", "verify-store"])
@pytest.mark.parametrize("n", [1, 3])
def test_non_square_n_refused_with_one_usage_error(tmp_path, capsys, qam4_t2_store, command, n):
    """table --n and verify-store --n take only the n whose stack of t-row
    matrices is square, as offline --n and construction do.  On a qam4 t=2
    store, table --n 3 used to write 2,744 entries, table --n 1 14 fallback
    markers, and verify-store --n 3 certified a 6x4 stack."""
    out = tmp_path / "out"
    argv = [command, "--store", qam4_t2_store, "--n", str(n)] + (["--out", str(out)] if command == "table" else [])
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: pnclab {command} ") and f"error: --n {n} APs of 2 rows" in err
    assert "Traceback" not in err and not out.exists()
