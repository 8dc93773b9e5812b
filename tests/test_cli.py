import argparse
import csv
import io
import json
import math

import pytest

from primelab import ExperimentReport, emit, pi_K, preset
from primelab.cli import (EXIT_CAPACITY, EXIT_DATA, EXIT_FAIL, EXIT_OK,
                          EXIT_SINK, EXIT_USAGE, RUNNERS, build_parser, main)

from conftest import run_python, run_within_rss
from oracles import trial_prime_power
from test_golden import CASES, GOLDEN

GOLDEN_ARGV = {name: argv for name, argv, _ in CASES}


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


# p^2, p^3 and p^5 (2^5 and 3^5 below 300), up to the largest prime
# square below the 10^9 ceiling
POWER_WINDOWS = [(1, 300, 243), (844596251, 844596351, 61**5),
                 (991026923, 991027023, 997**3),
                 (999002399, 999002499, 31607**2)]


@pytest.mark.parametrize("lo, hi, power", POWER_WINDOWS)
def test_sieve_row_bases_are_trial_division_bases(capsys, lo, hi, power):
    """The store keeps no bases: a `sieve` row's base is n^(1/m) rounded,
    which equals the base trial division finds on every row, with and
    without a class (one that keeps the power)."""
    for q in (1, 7):
        code, out, _ = run(capsys, "sieve", "--lo", str(lo), "--hi", str(hi),
                           "--q", str(q), "--a", str(power % q),
                           "--format", "jsonl")
        assert code == EXIT_OK
        params = [json.loads(line)["params"] for line in out.splitlines()]
        assert power in [p["position"] for p in params]
        for p in params:
            assert (p["base"], p["exponent"]) \
                == trial_prime_power(p["position"])


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


# the golden argv of every subcommand that reads positions past 1000;
# the golden sieve window ends at 100, so sieve reads to 5000 instead
@pytest.mark.parametrize("argv", [
    ["sieve", "--lo", "1", "--hi", "5000"],
    *(GOLDEN_ARGV[name] for name in ("ap-scan", "field-scan", "meansq",
                                     "inertia", "bt", "explicit",
                                     "smoothed")),
], ids=lambda argv: argv[0])
def test_every_subcommand_honours_ceiling(capsys, argv):
    code, out, err = run(capsys, *argv, "--ceiling", "1000")
    assert code == EXIT_CAPACITY, err
    assert out == ""
    assert "exceeds ceiling 1000" in err
    # main resets the ceiling once the subcommand has run
    assert pi_K(preset("Q(i)"), 2000) > 0


def test_zeros_reads_no_positions(capsys):
    # zeros takes no --ceiling, so the flag is a usage error
    code, out, err = run(capsys, *GOLDEN_ARGV["zeros-field"],
                         "--ceiling", "1000")
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "primelab: unrecognized arguments: --ceiling 1000\n"


# each subcommand takes only the flags it reads (--format and --output on
# all nine, --ceiling on the eight that read positions, --zero-manifest on
# the three that read zero tables)
def test_flag_surface():
    pairs = {(name, flag)
             for name, sub in next(
                 a for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)).choices.items()
             for action in sub._actions for flag in action.option_strings
             if flag.startswith("--") and flag != "--help"}
    assert len(pairs) == 84
    readers = {flag: {name for name, f in pairs if f == flag}
               for flag in ("--format", "--output", "--ceiling",
                            "--zero-manifest")}
    assert readers["--format"] == readers["--output"] == set(RUNNERS)
    assert readers["--ceiling"] == set(RUNNERS) - {"zeros"}
    assert readers["--zero-manifest"] == {"explicit", "smoothed", "zeros"}


# conflicting or unread flags are usage errors, reported by main's return
# value and its `primelab: ` message, not by argparse's SystemExit
@pytest.mark.parametrize("argv,message", [
    (["bt", "--q", "4", "--a", "1", "--field", "Q(i)", "--x", "10000",
      "--h", "400"], "--field: not allowed with argument --q"),
    (["meansq", "--X", "10000", "--field", "Q(i)", "--h", "100", "--q", "7"],
     "--q: not allowed with argument --field"),
    (["bt", "--field", "Q(i)", "--a", "1", "--x", "10000", "--h", "400"],
     "--a: not allowed with argument --field"),
    (["bt", "--q", "4", "--a", "1", "--x", "10000", "--h", "400",
      "--h-coef", "9"], "--h-coef: not allowed with argument --h"),
    (["bt", "--q", "4", "--a", "1", "--x", "10000", "--h", "400",
      "--h-theta", "0.5"], "--h-theta and --h-kappa need --h-coef"),
    (["inertia", "--X", "10000", "--q", "1", "--h", "400",
      "--h-kappa", "1"], "--h-theta and --h-kappa need --h-coef"),
    (["sieve", "--lo", "1", "--hi", "30", "--zero-manifest", "x"],
     "unrecognized arguments: --zero-manifest x"),
    (["zeros", "--component", "zeta", "--T", "100", "--ceiling", "5"],
     "unrecognized arguments: --ceiling 5"),
    (["zeros", "--component", "zeta", "--field", "Q(i)", "--T", "100"],
     "--field: not allowed with argument --component"),
    (["zeros", "--T", "100"], "one of the arguments --component --field"),
    (["zeros", "--component", "chi3", "--T", "100"], "invalid choice"),
    (["bt", "--x", "10000", "--h", "400"], "one of the arguments --q --field"),
    (["bt", "--q", "1.5", "--x", "10000", "--h", "400"], "invalid int value"),
    (["no-such-command"], "invalid choice"),
    (["meansq", "--X", "0.5", "--q", "1", "--h-coef", "1", "--h-kappa", "0.5"],
     "the window law has no finite value"),
    # flags go by their full names only, never by a prefix
    (["sieve", "--lo", "1", "--hi", "10", "--ceil", "5"],
     "unrecognized arguments: --ceil 5"),
    (["zeros", "--component", "zeta", "--T", "100", "--zero", "x"],
     "unrecognized arguments: --zero x"),
    (["meansq", "--X", "1000", "--fie", "Q(i)", "--h", "30"],
     "one of the arguments --q --field"),
    # an inverted window quotes the values as given
    (["sieve", "--lo", "0.7", "--hi", "0.5"], "got lo=0.7, hi=0.5"),
    # the class is built before its window is checked
    (["sieve", "--lo", "5", "--hi", "3", "--q", "0"],
     "modulus must lie in [1, 2^63), got 0"),
    (["sieve", "--lo", "5", "--hi", "3", "--q", "4", "--a", "1"],
     "need lo <= hi, got lo=5.0, hi=3.0"),
])
def test_usage_errors_leave_main_by_one_path(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("primelab: ")
    assert message in err


# a window (lo, hi] ending below 1 holds no norm: no rows, or a count of 0
@pytest.mark.parametrize("argv", [
    ["sieve", "--lo", "0.5", "--hi", "0.7"],
    ["bt", "--q", "4", "--a", "1", "--x", "-1000", "--h", "400"],
], ids=["sieve", "bt"])
def test_window_below_1_is_empty(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")
    assert out.startswith("experiment,")
    assert [r["metric"] for r in csv_rows(out)] == \
        (["0"] if argv[0] == "bt" else [])


# the parser is built once per process and reused by every main call
PARSER_BUILDS = """
import argparse, os
calls = []
add_argument = argparse.ArgumentParser.add_argument
def counted(self, *args, **kwargs):
    calls.append(args)
    return add_argument(self, *args, **kwargs)
argparse.ArgumentParser.add_argument = counted
import primelab.cli
print(len(calls))
for _ in range(2):
    primelab.cli.main(["zeros", "--component", "zeta", "--T", "50",
                       "--output", os.devnull])
    print(len(calls))
"""


def test_parser_is_built_by_the_first_main_call_only():
    proc = run_python(["-c", PARSER_BUILDS])
    assert proc.returncode == 0, proc.stderr
    at_import, first, second = map(int, proc.stdout.split())
    assert at_import == 0
    assert first > 0
    assert second == first


def test_reused_parser_keeps_nothing_between_parses(capsys):
    bad = ["bt", "--q", "4", "--a", "1", "--field", "Q(i)", "--x", "10000",
           "--h", "400"]
    before = run(capsys, *bad)
    valid = run(capsys, *GOLDEN_ARGV["bt"])
    after = run(capsys, *bad)
    assert before == after
    assert before[:2] == (EXIT_USAGE, "")
    assert before[2].startswith("primelab: argument --field: ")
    assert valid == (EXIT_OK, (GOLDEN / "bt.csv").read_bytes().decode(), "")


def test_unknown_preset_message_is_unquoted(capsys):
    code, out, err = run(capsys, "meansq", "--X", "1000", "--field",
                         "Q(nope)", "--h", "30")
    assert code == EXIT_USAGE
    assert err.startswith("primelab: unknown field preset 'Q(nope)'; have [")


def test_help_still_exits_zero(capsys):
    """`main` returns 0 on --help, the program's or a subcommand's,
    rather than raising SystemExit; the help goes to stdout."""
    code, out, err = run(capsys, "--help")
    assert (code, err) == (EXIT_OK, "") and "field-scan" in out
    code, out, err = run(capsys, "bt", "--help")
    assert (code, err) == (EXIT_OK, "") and "--h-coef" in out


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
    (["inertia", "--X", "0", "--q", "1", "--h", "10"], EXIT_USAGE),
    (["inertia", "--X", "-5", "--q", "1", "--h", "10"], EXIT_USAGE),
    (["sieve", "--lo", "1", "--hi", "100", "--ceiling", "0"], EXIT_USAGE),
    (["zeros", "--component", "zeta", "--T", "100", "--ceiling", "-5"],
     EXIT_USAGE),
    (["sieve", "--lo", "1", "--hi", "100", "--ceiling", "1000000001"],
     EXIT_USAGE),
    (["sieve", "--lo", "1", "--hi", "100", "--q", "1000000000000000000000",
      "--a", "1"], EXIT_USAGE),
    (["ap-scan", "--q", "1", "--a", "0", "--x-lo", "1000", "--x-hi", "2000",
      "--c1", "1e-300"], EXIT_USAGE),
    (["field-scan", "--field", "Q(i)", "--x-lo", "1000", "--x-hi", "2000",
      "--c1", "1e-9"], EXIT_USAGE),
    (["zeros", "--component", "zeta", "--T", "100",
      "--zero-manifest", "/no/such/manifest.txt"], EXIT_USAGE),
])
def test_unusable_numbers_exit_with_code(argv, exit_code):
    proc = run_python(["-m", "primelab.cli", *argv])
    assert proc.returncode == exit_code, proc.stderr
    assert proc.stderr.startswith("primelab: ")
    assert "Traceback" not in proc.stderr


def test_prime_modulus_near_2_to_62_answers_at_once():
    # phi(q) by trial division to sqrt(q) would take minutes
    proc = run_python(["-m", "primelab.cli", "meansq", "--X", "100",
                       "--q", "4611686018427387847", "--a", "1",
                       "--h", "10"])
    assert proc.returncode == EXIT_OK, proc.stderr
    assert csv_rows(proc.stdout)[0]["experiment"] == "meansq"


def test_sieve_rows_of_a_modulus_near_2_to_62_exit_cleanly():
    # step lcm(2, q) = 2^63 + 2 does not fit in int64
    proc = run_python(["-m", "primelab.cli", "sieve", "--lo", "1e7",
                       "--hi", "1.0002e7", "--q", "4611686018427387905",
                       "--a", "101"])
    assert proc.returncode == EXIT_OK, proc.stderr
    assert csv_rows(proc.stdout) == []


def test_far_scan_reads_only_its_window():
    """A Cramer window at 3e8 reads its own events: the child peaks under
    200 MB, where reading every event from 1 took about 0.9 GB."""
    proc = run_within_rss("from primelab.cli import main\n"
                          "status = main(sys.argv[1:])", 200,
                          "ap-scan", "--q", "4", "--a", "1", "--x-lo", "3e8",
                          "--x-hi", "3.0001e8")
    assert proc.returncode == EXIT_OK, proc.stderr
    assert csv_rows(proc.stdout)[-1]["verdict"] == "pass"


@pytest.mark.parametrize("target, x_hi", [
    (["ap-scan", "--q", "1", "--a", "0"], "1e8"),
    (["ap-scan", "--q", "1", "--a", "0"], "3e8"),
    (["field-scan", "--field", "Q(i)"], "1e8")],
    ids=["ap-scan-1e8", "ap-scan-3e8", "field-scan-Qi-1e8"])
def test_scan_stays_under_60_mb(target, x_hi):
    """A Cramer scan from 1e6 sweeps its range a read of READ_PIECE norms
    at a time and keeps the first powers of one read, so the child peaks
    under 60 MB whatever the range (about 40 MB; reading the whole range
    at once took 135 MB to 1e8 and 326 MB to 3e8 on Q, 175 MB to 1e8 on
    Q(i))."""
    proc = run_within_rss("from primelab.cli import main\n"
                          "status = main(sys.argv[1:])", 60, *target,
                          "--c1", "4", "--x-lo", "1e6", "--x-hi", x_hi)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert csv_rows(proc.stdout)[-1]["verdict"] == "pass"


@pytest.mark.parametrize("argv", [
    ["bt", "--field", "Q(i)", "--x", "1e7", "--h", "1000"],
    ["sieve", "--lo", "1e7", "--hi", "1.0002e7", "--q", "7", "--a", "3"],
], ids=["bt-Qi", "sieve-q7"])
def test_cold_narrow_read_builds_only_its_window(argv):
    """A cold read at 1e7, below the store cap, builds (x, x + h] alone:
    the child peaks under 60 MB, where growing the store to 2^24 took
    about 190 MB for Q(i) and 104 MB for Q."""
    proc = run_within_rss("from primelab.cli import main\n"
                          "status = main(sys.argv[1:])", 60, *argv)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert len(csv_rows(proc.stdout)) == (1 if argv[0] == "bt" else 18)


def test_wide_sieve_window_is_refused_before_any_row():
    # 10^9 wide: building its rows would take tens of GB
    proc = run_python(["-m", "primelab.cli", "sieve", "--lo", "1",
                       "--hi", "1e9"])
    assert proc.returncode == EXIT_USAGE, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == "primelab: the sieve window is wider than 1000000\n"


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


def test_config_and_flag_give_window_two_ways(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("q = 4\na = 1\nx = 10000\nh = 400\n")
    code, out, err = run(capsys, "bt", "--config", str(cfg),
                         "--h-coef", "1")
    assert code == EXIT_USAGE
    assert out == ""
    assert "--h-coef: not allowed with argument --h" in err


def test_explicit_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("q = 4\na = 1\nx = 10000\nh = 400\n")
    code, out, _ = run(capsys, "bt", "--config", str(cfg), "--h", "800")
    assert code == EXIT_OK
    assert json.loads(csv_rows(out)[0]["param_json"])["h"] == 800


def test_config_given_either_way_anywhere_gives_the_same_bytes(tmp_path,
                                                              capsys):
    """`--config PATH` and `--config=PATH`, before or after the
    subcommand, all read the file: here its format, jsonl."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format = jsonl\n")
    flags = ["--q", "4", "--a", "1", "--x", "10000", "--h", "400"]
    outs = set()
    for spelling in (["--config", str(cfg)], [f"--config={cfg}"]):
        for argv in (spelling + ["bt"] + flags, ["bt"] + spelling + flags):
            code, out, err = run(capsys, *argv)
            assert (code, err) == (EXIT_OK, "")
            outs.add(out)
    assert len(outs) == 1
    assert json.loads(outs.pop())["experiment"] == "bt_ap"


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
