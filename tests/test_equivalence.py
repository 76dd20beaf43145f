"""``tests/equivalence.py compare`` on two hand-made run directories."""
import json
import shutil

import numpy as np

import equivalence


def write_run(root, stderr="moraldrift: wrote 3 files\n", score="0.75", word="flat"):
    """One suite with one command that wrote a CSV, a JSON and an npy file."""
    out = root / "golden" / "out" / "cmd"
    out.mkdir(parents=True)
    (root / "golden" / "commands.json").write_text(json.dumps(
        {"cmd": {"argv": ["matrix"], "exit": 0, "stdout": {"p": [0.5, 1]}, "stderr": stderr}}))
    (out / "scores.csv").write_text(f"# tool=moraldrift\nword,score\nriser,{score}\n{word},0.25\n")
    (out / "scores.json").write_text(json.dumps({"words": ["riser"], "values": [[0.5, None]]}))
    np.save(out / "rows.npy", np.arange(6.0).reshape(2, 3))


def compare(capsys, a, b):
    code = equivalence.main(["compare", str(a), str(b)])
    return code, capsys.readouterr().out.splitlines()


def test_one_moved_float_and_one_stderr_line_are_reported(tmp_path, capsys):
    write_run(tmp_path / "a", stderr="WARNING x: 2 words absent\nmoraldrift: done\n")
    write_run(tmp_path / "b", stderr="WARNING x: 3 words absent\nmoraldrift: done\n",
              score="0.75000000000000011")
    code, lines = compare(capsys, tmp_path / "a", tmp_path / "b")
    assert code == 1
    assert lines == [
        "golden/cmd: stderr line 1 DIFFERS: "
        "'WARNING x: 2 words absent' != 'WARNING x: 3 words absent'",
        "golden/out/cmd/rows.npy: identical",
        "golden/out/cmd/scores.csv: 1 of 2 numeric cells moved, largest relative change "
        "1.5e-16 (first at line 3, column 2)",
        "golden/out/cmd/scores.json: identical",
        "2 of 3 files identical; DIFFERENCES above",
    ]


def test_identical_runs_exit_zero(tmp_path, capsys):
    write_run(tmp_path / "a")
    shutil.copytree(tmp_path / "a", tmp_path / "b")
    code, lines = compare(capsys, tmp_path / "a", tmp_path / "b")
    assert code == 0
    assert lines[0] == "golden/cmd: exit, stdout and stderr identical"
    assert lines[-1] == "3 of 3 files identical; everything identical"


def test_words_exit_codes_and_arrays_are_checked(tmp_path, capsys):
    write_run(tmp_path / "a")
    write_run(tmp_path / "b", word="flats")
    ran = json.loads((tmp_path / "b" / "golden" / "commands.json").read_text())
    ran["cmd"].update(exit=2, stdout={"p": [0.5, 2]})
    (tmp_path / "b" / "golden" / "commands.json").write_text(json.dumps(ran))
    np.save(tmp_path / "b" / "golden" / "out" / "cmd" / "rows.npy",
            np.array([[0.0, 1.0, 2.0], [3.0, 4.0, -5.0]]))
    code, lines = compare(capsys, tmp_path / "a", tmp_path / "b")
    assert code == 1
    assert lines[:3] == [
        "golden/cmd: exit 0 != 2; stdout: 1 of 2 numeric cells moved, largest relative "
        "change 0.5 (first at /p/1)",
        "golden/out/cmd/rows.npy: 1 of 6 numeric cells moved, largest relative change 2 "
        "(first at flat index 5)",
        "golden/out/cmd/scores.csv: DIFFERS in words or structure",
    ]
