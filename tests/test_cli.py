import json
import math
import warnings

import pytest

from leafsep.circuit import cost, parse_text
from leafsep.cli import main


@pytest.fixture
def example_state_file(tmp_path, worked_example):
    path = tmp_path / "ex.json"
    path.write_text(worked_example.dumps())
    return str(path)


def test_check_separable_worked_example(example_state_file, capsys):
    assert main(["check-separable", "--input", example_state_file,
                 "--n", "4", "--k", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["separable"] is True
    assert report["violations"] == []
    assert {"I": [1, 1], "c": pytest.approx(1 / math.sqrt(2))} in report["distributions"]


def test_check_separable_strict_failure(tmp_path, capsys):
    bad = {"n": 4, "amplitudes": [
        {"bitstring": "1001", "re": 1 / math.sqrt(2), "im": 0.0},
        {"bitstring": "0110", "re": 1 / math.sqrt(2), "im": 0.0}]}
    path = tmp_path / "bad_state.json"
    path.write_text(json.dumps(bad))
    assert main(["check-separable", "--input", str(path), "--n", "4", "--k", "2",
                 "--strict"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["separable"] is False
    assert report["violations"] == [{"I": [1, 1], "bitstring": "0110",
                                     "delta": pytest.approx(1 - 1 / math.sqrt(2), abs=1e-15)}]
    assert report["max_delta"] == 1 / math.sqrt(2)


def test_synthesize_simulate_round_trip(example_state_file, tmp_path, capsys):
    circuit_path = str(tmp_path / "circ.txt")
    report_path = str(tmp_path / "report.json")
    assert main(["synthesize", "--input", example_state_file, "--n", "4",
                 "--k", "2", "--out", circuit_path]) == 0
    assert main(["simulate", "--circuit", circuit_path,
                 "--target", example_state_file, "--report", report_path]) == 0
    report = json.loads(open(report_path).read())
    assert set(report) == {"fidelity", "purity", "norm", "wires", "gates",
                           "two_qubit_gates", "elapsed"}
    assert report["fidelity"] >= 1 - 1e-10
    assert abs(report["norm"] - 1.0) < 1e-10
    assert report["wires"] == {"system": 4, "ancilla": 0}
    with open(circuit_path) as fh:
        circ = parse_text(fh.read())
    assert report["gates"] == len(circ) > 0
    assert report["two_qubit_gates"] == cost(circ).two_qubit_count > 0
    assert report["elapsed"] > 0


def test_simulate_basis_input(example_state_file, tmp_path, capsys):
    circuit_path = str(tmp_path / "c.txt")
    main(["synthesize", "--input", example_state_file, "--n", "4", "--k", "2",
          "--out", circuit_path])
    # the synthesized circuit contains its own initial-state gates, so feeding
    # the packed pattern by hand double-flips and lands elsewhere
    assert main(["simulate", "--circuit", circuit_path, "--input", "basis:0000",
                 "--target", example_state_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["fidelity"] >= 1 - 1e-10


def test_malformed_json_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 4, "amplitudes": [')
    assert main(["check-separable", "--input", str(path), "--n", "4", "--k", "2"]) == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err
    path.write_text('{"n": 4,\n "amplitudes": [}')
    assert main(["synthesize", "--input", str(path), "--n", "4", "--k", "2"]) == 2
    assert "line 2, column 17" in capsys.readouterr().err
    one = {"bitstring": "10", "re": 1.0}
    for data, message in [
            ({"amplitudes": [one]}, '"n"'),
            ([2, [one]], '"n"'),
            ({"n": 2}, '"amplitudes"'),
            ({"n": "2x", "amplitudes": [one]}, '"n" must be a number'),
            ({"n": 2, "amplitudes": [{"bitstring": "0101", "re": 1.0}]}, "amplitudes[0]"),
            ({"n": 2, "amplitudes": [one, {"bitstring": "12", "re": 1.0}]}, "amplitudes[1]"),
            ({"n": 2, "amplitudes": [{"bitstring": 10, "re": 1.0}]}, "binary digits"),
            ({"n": 2, "amplitudes": [{"index": 4, "re": 1.0}]}, "index 4 out of range"),
            ({"n": 2, "amplitudes": [{"index": -1, "re": 1.0}]}, "index -1 out of range"),
            ({"n": 2, "amplitudes": [{"index": "x", "re": 1.0}]}, "index must be a number"),
            ({"n": 2, "amplitudes": [{"bitstring": "10", "re": "2x"}]}, "re must be a number"),
            ({"n": 2, "amplitudes": [{"bitstring": "10", "im": [1]}]}, "im must be a number"),
            ({"n": 2, "amplitudes": ["10"]}, "amplitudes[0] must be an object")]:
        path.write_text(json.dumps(data))
        assert main(["check-separable", "--input", str(path), "--n", "2", "--k", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad state in") and message in err, (data, err)


def test_missing_file_exit_code(capsys):
    assert main(["simulate", "--circuit", "/nonexistent/zz.txt"]) == 2


def test_synthesize_strict_non_separable(tmp_path, capsys):
    bad = {"n": 4, "amplitudes": [
        {"bitstring": "1001", "re": 1 / math.sqrt(2), "im": 0.0},
        {"bitstring": "0110", "re": 1 / math.sqrt(2), "im": 0.0}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["synthesize", "--input", str(path), "--n", "4", "--k", "2",
                 "--strict", "--out", str(tmp_path / "c.txt")]) == 1
    assert "not leaf-separable" in capsys.readouterr().err


def test_random_state_deterministic(capsys):
    assert main(["random-state", "--n", "5", "--k", "2", "--seed", "9"]) == 0
    first = capsys.readouterr().out
    assert main(["random-state", "--n", "5", "--k", "2", "--seed", "9"]) == 0
    assert capsys.readouterr().out == first
    data = json.loads(first)
    assert data["n"] == 5


def test_random_state_mixed(capsys):
    assert main(["random-state", "--n", "4", "--k", "2", "--mixed",
                 "--field", "complex", "--seed", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    weights = {e["bitstring"].count("1") for e in data["amplitudes"]}
    assert weights <= {0, 1, 2}
    assert len(weights) > 1


def test_bench_fidelity_csv(tmp_path):
    out = tmp_path / "fid.csv"
    assert main(["bench-fidelity", "--n-min", "4", "--n-max", "4",
                 "--states", "3", "--seed", "5", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ("n,k,ell,mode,field,seed,mean_fidelity,min_fidelity,"
                        "max_fidelity,std_fidelity,count")
    assert len(lines) == 3  # k = 1, 2


def test_bench_fidelity_rejects_bad_input(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["bench-fidelity", "--k", "x"])
    assert exit_info.value.code == 2
    assert "expected an integer or 'all', got 'x'" in capsys.readouterr().err
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["bench-fidelity", "--n-min", "4", "--n-max", "4", "--states", "0"]) == 1
    assert capsys.readouterr().err == "error: states per cell must be at least 1, got 0\n"


def test_bench_fidelity_rejects_k_above_every_n(tmp_path, capsys):
    out = tmp_path / "fid.csv"
    assert main(["bench-fidelity", "--n-min", "4", "--n-max", "4", "--k", "9",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        "error: --k 9 leaves no (n, k) cell with k <= n for n in [4, 4]\n"
    assert not out.exists()


def test_bench_fidelity_single_k(tmp_path):
    out = tmp_path / "fid.csv"
    assert main(["bench-fidelity", "--n-min", "4", "--n-max", "4", "--k", "2",
                 "--states", "2", "--out", str(out)]) == 0
    assert [line.split(",")[1] for line in out.read_text().splitlines()[1:]] == ["2"]


def test_random_state_rejects_bad_sizes(capsys):
    for args, message in [(["--n", "33", "--k", "2"], "33 wires exceed the maximum of 32"),
                          (["--n", "4", "--k", "2", "--ell", "5"], "ell must be in [0, 4]"),
                          (["--n", "4", "--k", "2", "--ell", "-1"], "ell must be in [0, 4]"),
                          (["--n", "33", "--k", "2", "--mixed"], "maximum of 32"),
                          (["--n", "4", "--k", "0"], "k must be in [1, 4] for n=4, got 0"),
                          (["--n", "4", "--k", "5"], "k must be in [1, 4] for n=4, got 5"),
                          (["--n", "4", "--k", "5", "--mixed"], "k must be in [1, 4]"),
                          (["--n", "0", "--k", "1"], "n must be at least 1, got 0"),
                          (["--n", "0", "--k", "1", "--mixed"], "n must be at least 1")]:
        assert main(["random-state", *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, (args, err)


def test_bench_cost_csv(tmp_path):
    out = tmp_path / "cost.csv"
    assert main(["bench-cost", "--n-min", "4", "--n-max", "5", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,k,method,two_qubit,total,depth"
    assert len(lines) == 1 + 2 * 4


def test_circuit_file_round_trips_bytes(example_state_file, tmp_path):
    from leafsep.circuit import export_text, parse_text
    circuit_path = tmp_path / "c.txt"
    main(["synthesize", "--input", example_state_file, "--n", "4", "--k", "2",
          "--mode", "ancilla", "--out", str(circuit_path)])
    text = circuit_path.read_text()
    assert export_text(parse_text(text)) == text


def test_nan_amplitude_exit_code(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text('{"n": 2, "amplitudes": [{"bitstring": "01", "re": NaN, "im": 0.0}]}')
    assert main(["check-separable", "--input", str(path), "--n", "2", "--k", "1",
                 "--normalize"]) == 1
    assert "finite" in capsys.readouterr().err


def test_ancilla_out_of_range_exit_code(tmp_path, capsys):
    path = tmp_path / "c.txt"
    path.write_text("# n=2 k=1 ell=1 mode=none\n# ancilla=1\nx a3\n")
    assert main(["simulate", "--circuit", str(path)]) == 2
    assert "line 3" in capsys.readouterr().err


def test_too_many_wires_exit_code(tmp_path, capsys):
    path = tmp_path / "c.txt"
    path.write_text("# n=33 k=1 ell=1 mode=none\nx q32\n")
    assert main(["simulate", "--circuit", str(path)]) == 1
    assert "maximum of 32" in capsys.readouterr().err
    path = tmp_path / "s.json"
    path.write_text('{"n": 33, "amplitudes": []}')
    assert main(["check-separable", "--input", str(path), "--n", "33", "--k", "1"]) == 1
    assert "maximum of 32" in capsys.readouterr().err


def test_simulate_closes_circuit_file(example_state_file, tmp_path):
    circuit_path = str(tmp_path / "c.txt")
    main(["synthesize", "--input", example_state_file, "--n", "4", "--k", "2",
          "--out", circuit_path])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", "--circuit", circuit_path, "--report",
                     str(tmp_path / "r.json")]) == 0
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_synthesize_has_no_complex_flag(example_state_file):
    with pytest.raises(SystemExit):
        main(["synthesize", "--input", example_state_file, "--n", "4", "--k", "2",
              "--complex"])
