import json
import math

import numpy as np
import pytest

from ccfour.cli import main, parse_grid, parse_sq, positive_float


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == "0.1.0"


def test_positive_float_validator():
    assert positive_float("1.5") == 1.5
    import argparse
    for bad in ("0", "-2", "abc", "inf"):
        with pytest.raises(argparse.ArgumentTypeError):
            positive_float(bad)


def test_parse_grid_forms():
    assert parse_grid("0.5,1.0,2.0") == [0.5, 1.0, 2.0]
    assert parse_grid("0.2:0.6:0.2") == pytest.approx([0.2, 0.4, 0.6])
    import argparse
    for bad in ("0.5:0.1:0.2", "1:2", "0,-1"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_grid(bad)


def test_parse_sq_validator():
    sq = parse_sq("2,1,1,1,1,2")
    assert tuple(sq) == (2, 1, 1, 1, 1, 2)
    import argparse
    with pytest.raises(argparse.ArgumentTypeError):
        parse_sq("1,2,3")
    with pytest.raises(argparse.ArgumentTypeError):
        parse_sq("1,1,1,1,1,-1")


def test_bad_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--alpha", "-1", "--beta", "0.8"])
    assert exc.value.code == 2
    assert "--alpha" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve", "--alpha", "0.5", "--beta", "0.8", "--max-iterations", "0"],
    ["census", "--alpha", "0.5", "--beta", "0.8", "--resolution", "1"],
    ["verify", "--theorem1-grid", "0.5"],
    ["verify", "--rng-seed", "-1"],
    ["verify", "--resolution", "1"],
], ids=lambda argv: argv[-2])
def test_bad_flag_value_exits_2_with_one_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"argument {argv[-2]}" in err


def test_census_has_no_threads_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["census", "--alpha", "0.5", "--beta", "0.8", "--threads", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "--threads" in err


def test_solve_kite_json(capsys):
    code, doc = run_json(capsys, ["solve", "--alpha", "0.5", "--beta", "0.8"])
    assert code == 0
    assert doc["command"] == "solve"
    assert doc["report"]["converged"] is True
    assert doc["report"]["symmetry"] == "kite_axis_34"
    assert doc["lambda_cc"] < 0
    assert doc["oracle_residual"] < 1e-10
    assert len(doc["points"]) == 4


def test_solve_rhombus_requires_equal_masses(capsys):
    code = main(["solve", "--alpha", "0.5", "--beta", "0.8",
                 "--ansatz", "rhombus"])
    assert code == 1
    assert "rhombus" in capsys.readouterr().err


def test_solve_full_matches_kite(capsys):
    _, doc_full = run_json(capsys, ["solve", "--alpha", "0.5", "--beta",
                                    "0.8", "--ansatz", "full"])
    _, doc_kite = run_json(capsys, ["solve", "--alpha", "0.5", "--beta",
                                    "0.8", "--ansatz", "kite"])
    sq_full = doc_full["report"]["state"]["sq"]
    sq_kite = doc_kite["report"]["state"]["sq"]
    assert np.allclose(sq_full, sq_kite, rtol=1e-9)


def test_solve_csv(capsys):
    code = main(["solve", "--alpha", "0.5", "--beta", "0.8",
                 "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split(",")[:4] == ["alpha", "beta", "a", "b"]
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert float(fields[0]) == 0.5
    assert "kite_axis_34" in fields


def test_solve_output_file(tmp_path, capsys):
    path = tmp_path / "out.json"
    code = main(["solve", "--alpha", "1.0", "--beta", "1.0",
                 "--output", str(path)])
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["report"]["symmetry"] == "square"
    assert capsys.readouterr().out == ""


def test_solve_plot_data(tmp_path):
    plot = tmp_path / "points.csv"
    main(["solve", "--alpha", "1.0", "--beta", "1.0",
          "--plot-data", str(plot)])
    lines = plot.read_text().strip().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "class,vertex,x,y,mass"
    assert len(lines) == 6  # header comment + header + four vertices


def test_sweep_csv_row_count(capsys):
    code = main(["sweep", "--alpha-grid", "0.5,1.0",
                 "--beta-grid", "0.8,1.0", "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5  # header + 4 cells


def test_sweep_json_and_plot(tmp_path, capsys):
    plot = tmp_path / "frames.csv"
    code, doc = run_json(capsys, ["sweep", "--alpha-grid", "1.0",
                                  "--beta-grid", "0.8:1.0:0.2",
                                  "--plot-data", str(plot)])
    assert code == 0
    assert len(doc["rows"]) == 2
    assert all(not math.isnan(row["nu"]) for row in doc["rows"])
    lines = plot.read_text().strip().splitlines()
    assert lines[1] == "alpha,beta,u,v,t,s,theta"
    assert len(lines) == 4


def test_census_json(capsys):
    code, doc = run_json(capsys, ["census", "--alpha", "0.5", "--beta",
                                  "0.8", "--resolution", "4"])
    assert code == 0
    assert doc["command"] == "census"
    assert "threads" not in doc["config"]
    assert len(doc["classes"]) == 1
    assert doc["classes"][0]["symmetry"] == "kite_axis_34"
    assert doc["outside_theorem_hypothesis"] is False


def test_census_csv(capsys):
    code = main(["census", "--alpha", "1.0", "--beta", "1.0",
                 "--resolution", "3", "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split(",")[:3] == ["class", "symmetry", "basin"]
    assert len(lines) == 2
    assert "square" in lines[1]


def test_verify_passes(capsys):
    code, doc = run_json(capsys, ["verify", "--trials", "100",
                                  "--theorem2-grid", "0.8,1.2",
                                  "--resolution", "4"])
    assert code == 0
    assert doc["all_passed"] is True
    names = [c["name"] for c in doc["checks"]]
    assert "lemma3_sign" in names
    assert "theorem2_unique_rhombus" in names


def test_verify_theorem1_grid(capsys):
    code, doc = run_json(capsys, ["verify", "--trials", "50",
                                  "--theorem1-grid", "0.5,0.8;1.0,1.0",
                                  "--resolution", "4"])
    assert code == 0
    names = [c["name"] for c in doc["checks"]]
    assert "theorem1_unique_kite" in names


def test_realize_json(capsys):
    code, doc = run_json(capsys, ["realize", "--sq", "2,1,1,1,1,2",
                                  "--alpha", "1.0", "--beta", "1.0"])
    assert code == 0
    pts = np.array(doc["points"])
    assert pts.shape == (4, 2)
    # recover the input squared distances
    d2 = [float(np.sum((pts[i] - pts[j]) ** 2))
          for i in range(4) for j in range(i + 1, 4)]
    assert np.allclose(d2, [2, 1, 1, 1, 1, 2], atol=1e-10)


def test_realize_nonplanar_fails(capsys):
    code = main(["realize", "--sq", "1,1,1,1,1,1",
                 "--alpha", "1.0", "--beta", "1.0"])
    assert code == 1
    assert "error" in capsys.readouterr().err
