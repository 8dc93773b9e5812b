"""Count the in-repo traffic that the warm-queries mix is drawn from.

    python3 perfbench/traffic.py          # from the checkout root, ~3 min

It runs the Tier-1 tests in this process with every public function
that warm-queries calls wrapped by a counter.  A call counts when it is
made directly from a file under tests/, so calls that one primelab
function makes to another do not count.  `cli.main` calls count by
subcommand, and so do the `primelab ...` examples in README.md.  It
prints the counts in the form of `plan.TRAFFIC` and `plan.CLI_TRAFFIC`,
which hold them as measured at the seed commit.
"""

from __future__ import annotations

import importlib
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402

# operation kind of warm-queries -> the public function it calls
KINDS = {
    "pi_K": ("numfield", "pi_K"),
    "psi_K": ("numfield", "psi_K"),
    "delta_K": ("intervals", "delta_K"),
    "bt_check_field": ("intervals", "bt_check_field"),
    "bt_check_ap": ("intervals", "bt_check_ap"),
    "mean_square": ("intervals", "mean_square"),
    "inertia_scan": ("intervals", "inertia_scan"),
    "residual_scan": ("explicit", "residual_scan"),
    "smoothed_sum": ("explicit", "smoothed_sum"),
    "smoothed_prediction": ("explicit", "smoothed_prediction"),
    "unweighted_sandwich": ("explicit", "unweighted_sandwich"),
    "count_zeros": ("zeros", "count_zeros"),
    "predicted_count": ("zeros", "predicted_count"),
    "emit": ("report", "emit"),
    "cli": ("cli", "main"),
}


def count_tests(root):
    """{kind: calls} and {subcommand: calls} made from tests/."""
    sys.path.insert(0, os.path.join(root, "src"))
    tests = os.path.join(root, "tests") + os.sep
    calls = dict.fromkeys(KINDS, 0)
    cli = {}

    def counted(kind, raw):
        def wrapper(*args, **kwargs):
            if sys._getframe(1).f_code.co_filename.startswith(tests):
                calls[kind] += 1
                if kind == "cli":
                    argv = args[0] if args else kwargs.get("argv")
                    sub = argv[0] if argv else "-"
                    cli[sub] = cli.get(sub, 0) + 1
            return raw(*args, **kwargs)
        return wrapper

    for kind, (module, func) in KINDS.items():
        raw = getattr(importlib.import_module(f"primelab.{module}"), func)
        tracing.rebind(raw, counted(kind, raw))
    import pytest
    code = pytest.main(["-q", "-p", "no:cacheprovider", tests])
    if code != 0:
        raise SystemExit(f"the tests failed (exit {code}); counts not used")
    return calls, cli


def count_readme(root):
    """{subcommand: examples} in README.md."""
    with open(os.path.join(root, "README.md")) as fh:
        subs = re.findall(r"^primelab ([a-z-]+)", fh.read(), re.M)
    out = {}
    for sub in subs:
        out[sub] = out.get(sub, 0) + 1
    return out


def main():
    root = os.getcwd()
    calls, cli = count_tests(root)
    readme = count_readme(root)
    print("TRAFFIC =", dict(sorted(calls.items())))
    print("CLI_TRAFFIC (tests) =", dict(sorted(cli.items())))
    print("CLI_TRAFFIC (README) =", dict(sorted(readme.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
