import csv
import io
import json
import math

import pytest

from primelab import ExperimentReport, emit
from primelab.cli import (EXIT_CAPACITY, EXIT_DATA, EXIT_FAIL, EXIT_OK,
                          EXIT_SINK, EXIT_USAGE, main)

from conftest import run_python


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(out):
    return list(csv.DictReader(io.StringIO(out)))


# --- report layer -------------------------------------------------------

def test_report_validation():
    with pytest.raises(ValueError):
        ExperimentReport("x", {}, 1.0, verdict="maybe")
    with pytest.raises(ValueError):
        ExperimentReport("x", {}, 1.0, bound=0.0, ratio=1.0)


def test_emit_csv_and_jsonl_round_trip():
    rep = ExperimentReport("demo", {"x": 1 / 3, "name": "t"},
                           metric=math.pi, bound=4.0, ratio=math.pi / 4,
                           verdict="pass")
    sink = io.StringIO()
    emit([rep], "csv", sink)
    row = csv_rows(sink.getvalue())[0]
    assert row["experiment"] == "demo"
    assert row["verdict"] == "pass"
    # floats survive a parse -> format -> parse cycle at 12 significant
    # digits
    assert f"{float(row['metric']):.12g}" == row["metric"]
    params = json.loads(row["param_json"])
    assert params["name"] == "t"
    assert params["x"] == float(f"{1 / 3:.12g}")

    sink = io.StringIO()
    emit([rep], "jsonl", sink)
    obj = json.loads(sink.getvalue())
    assert obj["metric"] == float(f"{math.pi:.12g}")
    assert obj["bound"] == 4.0

    with pytest.raises(ValueError):
        emit([rep], "xml", io.StringIO())


# --- basic subcommands --------------------------------------------------

def test_sieve_window(capsys):
    code, out, _ = run(capsys, "sieve", "--lo", "1", "--hi", "10")
    assert code == EXIT_OK
    rows = csv_rows(out)
    positions = [json.loads(r["param_json"])["position"] for r in rows]
    assert positions == [2, 3, 4, 5, 7, 8, 9]


def test_bt_example(capsys):
    code, out, _ = run(capsys, "bt", "--q", "4", "--a", "1",
                       "--x", "10000", "--h", "400")
    assert code == EXIT_OK
    row = csv_rows(out)[0]
    assert row["experiment"] == "bt_ap"
    assert row["verdict"] == "pass"
    assert float(row["metric"]) <= float(row["bound"])


def test_bt_field_with_window_law(capsys):
    code, out, _ = run(capsys, "bt", "--field", "Q(i)", "--x", "10000",
                       "--h-coef", "1.0", "--h-theta", "0.5",
                       "--h-kappa", "1.0")
    assert code == EXIT_OK
    row = csv_rows(out)[0]
    h = json.loads(row["param_json"])["h"]
    assert h == pytest.approx(math.sqrt(10000) * math.log(10000), rel=1e-9)


def test_zeros_count(capsys):
    code, out, _ = run(capsys, "zeros", "--component", "zeta", "--T", "100")
    assert code == EXIT_OK
    row = csv_rows(out)[0]
    assert float(row["metric"]) == 58
    params = json.loads(row["param_json"])
    assert params["predicted"] == pytest.approx(
        (100 / math.pi) * (math.log(100) - math.log(2 * math.pi * math.e)),
        rel=1e-9)


def test_meansq_jsonl(capsys):
    code, out, _ = run(capsys, "meansq", "--X", "1000", "--q", "4",
                       "--a", "1", "--h", "30", "--format", "jsonl")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["experiment"] == "meansq"
    assert obj["verdict"] == "report-only"
    assert obj["ratio"] == pytest.approx(obj["metric"] / obj["bound"],
                                         rel=1e-9)


def test_ap_scan_summary(capsys):
    code, out, _ = run(capsys, "ap-scan", "--q", "4", "--a", "1",
                       "--x-lo", "1000", "--x-hi", "3000")
    assert code == EXIT_OK
    rows = csv_rows(out)
    assert rows[-1]["experiment"] == "cramer_scan"
    assert rows[-1]["verdict"] == "pass"
    assert all(r["verdict"] == "pass" for r in rows[:-1])


def test_inertia_smooth_scan(capsys):
    code, out, _ = run(capsys, "inertia", "--X", "10000", "--q", "1",
                       "--h-coef", "1.0", "--h-theta", "0.5",
                       "--h-kappa", "1.0")
    assert code == EXIT_OK
    rows = csv_rows(out)
    assert rows[-1]["experiment"] == "inertia"


def test_explicit_residuals(capsys):
    code, out, _ = run(capsys, "explicit", "--T", "100",
                       "--x-lo", "100.5", "--x-hi", "500.5",
                       "--x-step", "100")
    assert code == EXIT_OK
    rows = csv_rows(out)
    assert len(rows) == 5
    assert all(r["experiment"] == "explicit_residual" for r in rows)


def test_smoothed_with_sandwich(capsys):
    code, out, _ = run(capsys, "smoothed", "--x", "1000", "--h", "50",
                       "--T", "100", "--eps", "0.5")
    assert code == EXIT_OK
    rows = csv_rows(out)
    assert [r["experiment"] for r in rows] \
        == ["smoothed_sum", "smoothed_prediction", "sandwich"]
    assert rows[2]["verdict"] == "pass"
    params = json.loads(rows[2]["param_json"])
    assert params["lower"] <= float(rows[2]["metric"]) <= params["upper"]


# --- exit codes ---------------------------------------------------------

def test_usage_error_bad_modulus(capsys):
    code, _, err = run(capsys, "meansq", "--X", "1000", "--q", "0",
                       "--h", "30")
    assert code == EXIT_USAGE
    assert "primelab:" in err


def test_usage_error_missing_h(capsys):
    code, _, err = run(capsys, "meansq", "--X", "1000", "--q", "1")
    assert code == EXIT_USAGE
    assert "--h" in err


def test_data_error_beyond_table(capsys):
    code, _, err = run(capsys, "zeros", "--component", "zeta",
                       "--T", "99999")
    assert code == EXIT_DATA
    assert "beyond" in err


def test_capacity_error(capsys):
    code, _, err = run(capsys, "sieve", "--lo", "1", "--hi", "5000",
                       "--ceiling", "1000")
    assert code == EXIT_CAPACITY


# each case runs in a child process, so that a hang fails the test
@pytest.mark.parametrize("argv,exit_code", [
    (["explicit", "--T", "100", "--x-step", "0"], EXIT_USAGE),
    (["explicit", "--T", "100", "--x-step", "-5"], EXIT_USAGE),
    (["explicit", "--T", "100", "--x-step", "nan"], EXIT_USAGE),
    (["explicit", "--T", "100", "--x-hi", "inf"], EXIT_USAGE),
    (["field-scan", "--field", "Q(i)", "--x-lo", "1000", "--x-hi", "inf"],
     EXIT_USAGE),
    (["field-scan", "--field", "Q(i)", "--x-lo", "1000", "--x-hi", "nan"],
     EXIT_USAGE),
    (["field-scan", "--field", "Q(i)", "--x-lo", "nan", "--x-hi", "1e5"],
     EXIT_USAGE),
    (["inertia", "--X", "inf", "--field", "Q(i)", "--h", "100"],
     EXIT_USAGE),
    (["field-scan", "--field", "Q(i)", "--x-lo", "1000", "--x-hi", "2e9"],
     EXIT_CAPACITY),
    (["ap-scan", "--q", "4", "--a", "1", "--x-lo", "5000", "--x-hi", "1000"],
     EXIT_USAGE),
    (["field-scan", "--field", "Q(i)", "--x-lo", "1000", "--x-hi", "1000"],
     EXIT_USAGE),
    (["ap-scan", "--q", "4", "--a", "1", "--x-lo", "1000", "--x-hi", "3000",
      "--c1", "0"], EXIT_USAGE),
    (["ap-scan", "--q", "4", "--a", "1", "--x-lo", "1000", "--x-hi", "3000",
      "--c1", "-1"], EXIT_USAGE),
    (["ap-scan", "--q", "4", "--a", "1", "--x-lo", "0.5", "--x-hi", "100",
      "--c1", "-1"], EXIT_USAGE),
    (["ap-scan", "--q", "4", "--a", "1", "--x-lo", "1", "--x-hi", "100"],
     EXIT_USAGE),
    (["field-scan", "--field", "Q", "--x-lo", "1", "--x-hi", "100"],
     EXIT_USAGE),
    (["explicit", "--T", "100", "--x-lo", "1e4", "--x-hi", "1e4",
      "--x-step", "1e-13"], EXIT_USAGE),
    (["explicit", "--T", "100", "--x-lo", "100", "--x-hi", "1e6",
      "--x-step", "1e-3"], EXIT_USAGE),
    (["explicit", "--T", "100", "--x-lo", "500", "--x-hi", "100"],
     EXIT_USAGE),
    (["inertia", "--X", "1000", "--h", "-5", "--q", "1"], EXIT_USAGE),
    (["inertia", "--X", "1000", "--h", "0", "--q", "1"], EXIT_USAGE),
    (["inertia", "--X", "1000", "--h", "40", "--q", "1", "--persist-c", "-1"],
     EXIT_USAGE),
])
def test_unusable_numbers_exit_with_code(argv, exit_code):
    proc = run_python(["-m", "primelab.cli", *argv])
    assert proc.returncode == exit_code, proc.stderr
    assert proc.stderr.startswith("primelab: ")
    assert "Traceback" not in proc.stderr


def test_fail_exit_on_failing_verdict(capsys):
    code, out, _ = run(capsys, "meansq", "--X", "1000", "--q", "1",
                       "--h", "30", "--ratio-ceiling", "1e-15")
    assert code == EXIT_FAIL
    assert csv_rows(out)[0]["verdict"] == "fail"


def test_sink_error(capsys):
    code, _, err = run(capsys, "zeros", "--component", "zeta", "--T", "50",
                       "--output", "/no/such/dir/out.csv")
    assert code == EXIT_SINK
    assert "cannot write" in err


def test_output_file(tmp_path, capsys):
    dest = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "zeros", "--component", "zeta",
                       "--T", "50", "--output", str(dest))
    assert code == EXIT_OK
    assert out == ""
    assert csv_rows(dest.read_text())[0]["experiment"] == "zeros"


# --- config and manifest ------------------------------------------------

def test_config_file_supplies_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("q = 4\na = 1\nx = 10000\nh = 400\n")
    code, out, _ = run(capsys, "bt", "--config", str(cfg))
    assert code == EXIT_OK
    assert csv_rows(out)[0]["experiment"] == "bt_ap"


def test_explicit_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("q = 4\na = 1\nx = 10000\nh = 400\n")
    code, out, _ = run(capsys, "bt", "--config", str(cfg), "--h", "800")
    assert code == EXIT_OK
    assert json.loads(csv_rows(out)[0]["param_json"])["h"] == 800


def test_config_parse_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("just-a-word\n")
    code, _, err = run(capsys, "bt", "--config", str(cfg))
    assert code == EXIT_USAGE
    assert "line 1" in err


def test_zero_manifest_env(tmp_path, capsys, monkeypatch):
    zfile = tmp_path / "z.txt"
    zfile.write_text("5.0\n10.0\n")
    man = tmp_path / "man.txt"
    man.write_text("zeta; z.txt; 20.0\n")
    monkeypatch.setenv("PRIMELAB_ZERO_MANIFEST", str(man))
    code, out, _ = run(capsys, "zeros", "--component", "zeta", "--T", "20")
    assert code == EXIT_OK
    assert float(csv_rows(out)[0]["metric"]) == 4
