"""Golden CLI corpus: every README example plus the field-valued
`explicit` / `smoothed` runs, three `inertia` scans (one with its
persistence level above the exceedance threshold), two more `sieve`
windows (a class mod 7 at 1e7, below the event-store cap, and one mod 4
at 3e7, above it), and far windows (two `bt` windows, a `field-scan` and
a `smoothed` sum near x = 3e7, a `meansq` at X = 2e7, and `explicit`
residuals whose probes straddle the event-store cap 2^24), in both
output formats.

Each `tests/golden/<name>.<format>` file holds the exact stdout of one
command line, recorded before the refactors it guards; a refactor must
reproduce it byte for byte, with the same exit code.  The corpus also
replays in reverse order in one process, through the one parser `main`
reuses, so that state left by one run would show in a later output.  Do
not re-record these files to make a refactor pass: a changed row is a
changed result.
"""

from pathlib import Path

import pytest

from primelab.cli import main

GOLDEN = Path(__file__).parent / "golden"

# (name, argv without --format, exit code)
CASES = [
    ("sieve", ["sieve", "--lo", "1", "--hi", "100", "--q", "4", "--a", "1"],
     0),
    ("bt", ["bt", "--q", "4", "--a", "1", "--x", "10000", "--h", "400"], 0),
    ("ap-scan", ["ap-scan", "--q", "4", "--a", "1", "--x-lo", "1000",
                 "--x-hi", "100000"], 0),
    ("field-scan", ["field-scan", "--field", "Q(i)", "--x-lo", "1000",
                    "--x-hi", "100000"], 0),
    ("meansq", ["meansq", "--X", "100000", "--q", "12", "--a", "1",
                "--h-coef", "1", "--h-theta", "0.4"], 0),
    ("explicit", ["explicit", "--T", "1000", "--x-lo", "50.5",
                  "--x-hi", "1000.5", "--x-step", "50"], 0),
    ("zeros-zeta", ["zeros", "--component", "zeta", "--T", "100"], 0),
    ("zeros-field", ["zeros", "--field", "Q(i)", "--T", "500"], 0),
    ("smoothed", ["smoothed", "--x", "10000", "--T", "500", "--h", "200",
                  "--eps", "0.5"], 0),
    ("explicit-Qi", ["explicit", "--T", "500", "--field", "Q(i)",
                     "--x-lo", "50.5", "--x-hi", "1000.5", "--x-step", "50"],
     0),
    ("smoothed-Qi", ["smoothed", "--x", "10000", "--T", "500", "--h", "200",
                     "--eps", "0.5", "--field", "Q(i)"], 0),
    ("inertia", ["inertia", "--X", "10000", "--q", "4", "--a", "1",
                 "--h", "400"], 0),
    ("inertia-Qi", ["inertia", "--X", "5000", "--field", "Q(i)",
                    "--h", "150"], 0),
    ("bt-cap", ["bt", "--q", "7", "--a", "3", "--x", "3e7", "--h", "5000"],
     0),
    ("bt-Qi", ["bt", "--field", "Q(i)", "--x", "3e7", "--h", "1000"], 0),
    ("field-scan-far", ["field-scan", "--field", "Q(i)", "--x-lo", "3e7",
                        "--x-hi", "3.0001e7"], 0),
    ("smoothed-far", ["smoothed", "--x", "3e7", "--T", "500", "--h", "2000",
                      "--eps", "0.5"], 0),
    ("meansq-far", ["meansq", "--X", "2e7", "--q", "4", "--a", "1",
                    "--h", "2000"], 0),
    ("sieve-q7", ["sieve", "--lo", "1e7", "--hi", "1.0002e7", "--q", "7",
                  "--a", "3"], 0),
    ("sieve-far", ["sieve", "--lo", "3e7", "--hi", "3.0002e7", "--q", "4",
                   "--a", "1"], 0),
    ("inertia-persist", ["inertia", "--X", "10000", "--q", "4", "--a", "1",
                         "--h", "200", "--persist-c", "0.5"], 0),
    ("explicit-far", ["explicit", "--T", "500", "--x-lo", "1.6e7",
                      "--x-hi", "1.7e7", "--x-step", "250000"], 0),
]


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("name,argv,exit_code", CASES,
                         ids=[c[0] for c in CASES])
def test_golden_cli(capsys, name, argv, exit_code, fmt):
    code = main(argv + ["--format", fmt])
    out = capsys.readouterr().out
    expected = (GOLDEN / f"{name}.{fmt}").read_bytes()
    assert code == exit_code
    assert out.encode() == expected


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_golden_cli_in_reverse_in_one_process(capsys, fmt):
    for name, argv, exit_code in reversed(CASES):
        code = main(argv + ["--format", fmt])
        out = capsys.readouterr().out
        assert code == exit_code, name
        assert out.encode() == (GOLDEN / f"{name}.{fmt}").read_bytes(), name
