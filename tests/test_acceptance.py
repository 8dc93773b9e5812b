"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line so the suite doubles as a checklist:
run `pytest -s tests/test_acceptance.py` to see them.  The checks are
property-based (exact oracle equivalence, zero-violation matrices) plus
empirical envelopes whose constants are pinned here.
"""

import math

import numpy as np
import pytest

from primelab import (ResidueClass, StepCounter, TruncationSpec,
                      WindowSource, bt_check_ap, bt_check_field,
                      component_table, count_zeros, cramer_window_scan,
                      euler_phi, field_source, field_table, inertia_scan,
                      mean_square, meansq_ratio, pi_ap,
                      predicted_count, preset, preset_names,
                      progression_source, psi_ap, sieve_primes,
                      splitting_types, truncated_psi, unweighted_sandwich)
from primelab.sieve import EVERYTHING, event_arrays

from conftest import mean_square_sampled, psi_prefix, weighed
from oracles import quadratic_splitting

QUADRATIC_PRESETS = {
    "Q(i)": -4,
    "Q(sqrt-3)": -3,
    "Q(sqrt5)": 5,
    "Q(sqrt2)": 8,
    "Q(sqrt-2)": -8,
}


def report(number, ok, text):
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"acceptance criterion {number} failed: {text}"


# ---------------------------------------------------------------------------

def test_criterion_01_counter_oracle(oracle_events_1e5):
    """pi_ap / psi_ap equal the trial-division oracle for all x <= 1e5,
    all q <= 30, exactly.

    Event positions, exponents and weights (log of the base trial
    division finds) are compared as exact arrays per residue class;
    since both counters are plain partial sums of those arrays,
    array equality gives pointwise equality at every x.  Random probes
    double-check the summation layer.
    """
    o_pos, o_expo, o_w = oracle_events_1e5
    x_max = 10**5
    rng = np.random.default_rng(1)
    probes = np.sort(rng.uniform(2, x_max, 25))
    ok = True
    for q in range(1, 31):
        for a in range(q):
            pos, expo, w = weighed(event_arrays(1, x_max, ResidueClass(q, a)))
            keep = o_pos % q == a
            if not (np.array_equal(pos, o_pos[keep])
                    and np.array_equal(expo, o_expo[keep])
                    and np.array_equal(w, o_w[keep])):
                ok = False
            # probe the counters directly against oracle partial sums
            cls = ResidueClass(q, a)
            opos_q, ow_q = o_pos[keep], o_w[keep]
            oprime_q = o_pos[keep & (o_expo == 1)]
            for x in probes:
                if psi_ap(float(x), cls) != math.fsum(ow_q[opos_q <= x]):
                    ok = False
                if pi_ap(float(x), cls) != int(np.sum(oprime_q <= x)):
                    ok = False
        if not ok:
            break
    report(1, ok, "pi_ap/psi_ap match trial division for x<=1e5, q<=30")


def test_criterion_02_splitting_oracle():
    """splitting_type (one batched splitting_types call per field) vs.
    the Kronecker-symbol oracle on 5 quadratic presets for all p <= 1e5,
    plus the closed-form count pi_K(Q(i),20)=8."""
    from primelab import pi_K
    bad = []
    for name, d in QUADRATIC_PRESETS.items():
        fld = preset(name)
        for st in splitting_types(fld, sieve_primes(1, 10**5)):
            if st.factors != quadratic_splitting(d, st.prime):
                bad.append((name, st.prime))
    ok = not bad and pi_K(preset("Q(i)"), 20) == 8
    report(2, ok, f"Kronecker oracle, 5 presets, p<=1e5 ({bad[:3]!r} bad)"
           if bad else "Kronecker oracle agreement, 5 presets, p<=1e5; "
                       "pi_K(Q(i),20)=8")


def test_criterion_03_splitting_invariants():
    """Sum e_i f_i = n_K and at most n_K/k ideals of norm p^k, on every
    preset for all p <= 1e4 (one batched splitting_types call each)."""
    violations = 0
    for name in preset_names():
        fld = preset(name)
        for st in splitting_types(fld, sieve_primes(1, 10**4)):
            if st.degree_sum != fld.degree:
                violations += 1
            for k in range(1, fld.degree + 1):
                if [f for f, _ in st.factors].count(k) > fld.degree / k:
                    violations += 1
    report(3, violations == 0,
           f"degree-sum and norm-count invariants, all presets, p<=1e4 "
           f"({violations} violations)")


def test_criterion_04_brun_titchmarsh():
    """Window upper bounds: the progression matrix (q <= 30, coprime a,
    x <= 1e6, h grid) and the field matrix (all presets, x <= 1e6,
    h in {10, 1e2, 1e3, 1e4}) pass with zero violations."""
    failures = []
    xs = (10**3, 10**4, 10**5, 10**6)
    for q in range(1, 31):
        for a in range(q):
            if math.gcd(a if a else q, q) != 1:
                continue
            for x in xs:
                for h in (q + 1, 10 * (q + 1), 100 * (q + 1), 2000):
                    rep = bt_check_ap(x, h, ResidueClass(q, a))
                    if rep.verdict != "pass":
                        failures.append(("ap", q, a, x, h))
    for name in preset_names():
        fld = preset(name)
        for x in xs:
            for h in (10, 10**2, 10**3, 10**4):
                if h > x:
                    continue
                rep = bt_check_field(fld, x, h)
                if rep.verdict != "pass":
                    failures.append(("field", name, x, h))
    report(4, not failures,
           f"Brun-Titchmarsh matrices, {failures[:5]!r}" if failures
           else "Brun-Titchmarsh progression and field matrices, "
                "zero violations")


def test_criterion_05_zero_count_envelope():
    """|counted - predicted| <= 4 log(d_K T^{n_K}) on 100-point T grids
    for the zeta table and the combined Gaussian-field table."""
    cases = [
        (component_table("zeta"), 1, 1),
        (field_table("Q(i)"), 2, 4),
    ]
    worst = 0.0
    ok = True
    for table, n_K, d_K in cases:
        for T in np.linspace(14.0, table.completeness_height, 100):
            gap = abs(count_zeros(table, float(T))
                      - predicted_count(n_K, d_K, float(T)))
            envelope = 4 * math.log(d_K * T**n_K)
            worst = max(worst, gap / envelope)
            if gap > envelope:
                ok = False
    report(5, ok, f"zero-count envelope 4*log(d_K T^n_K), "
                  f"worst ratio {worst:.3f}")


def test_criterion_06_explicit_residual():
    """Truncated-formula residual: at T=1000 the pointwise residual on
    the x-grid stays under 5 (x/T) log^2 x, and doubling T from 500 to
    1000 does not grow the max residual by more than a factor 2."""
    tbl = component_table("zeta")
    pos, _, w = weighed(event_arrays(1, 1100))
    xs = np.arange(50.5, 1000.6, 50.0)
    ok = True

    def max_residual(T):
        spec = TruncationSpec(T, tbl)
        worst = 0.0
        for x in xs:
            r = abs(psi_prefix(pos, w, float(x))
                    - truncated_psi(float(x), spec))
            worst = max(worst, r)
            if T == 1000.0 and r > 5 * (x / T) * math.log(x) ** 2:
                nonlocal ok
                ok = False
        return worst

    m1000 = max_residual(1000.0)
    m500 = max_residual(500.0)
    ok = ok and m1000 <= 2 * m500
    report(6, ok, f"explicit-formula residual envelope "
                  f"(max@T=1000 {m1000:.4f}, max@T=500 {m500:.4f})")


def test_criterion_07_sandwich():
    """200 seeded (x, h, eps) draws with K in {Q, Q(i)}: the smoothed
    sandwich always brackets psi_K(x+h) - psi_K(x-h)."""
    rng = np.random.default_rng(2024)
    counters = {
        "Q": progression_source(EVERYTHING, 10**5).psi,
        "Q(i)": field_source(preset("Q(i)"), 10**5).psi,
    }
    violations = 0
    for i in range(200):
        key = "Q" if i % 2 == 0 else "Q(i)"
        counter = counters[key]
        x = float(rng.uniform(100, 4 * 10**4))
        h = float(rng.uniform(3, 0.02 * x))
        eps = float(rng.uniform(0.05, 0.95))
        lower, upper = unweighted_sandwich(x, h, eps, counter)
        pos, w = counter.positions, counter.weights
        actual = psi_prefix(pos, w, x + h) - psi_prefix(pos, w, x - h)
        if not (lower <= actual + 1e-9 and actual <= upper + 2e-9):
            violations += 1
    report(7, violations == 0,
           f"sandwich bounds on 200 seeded draws ({violations} violations)")


def test_criterion_08_mean_square():
    """Exact event-sweep integral vs. the step-1e-2 sampling oracle
    within 1% on 20 seeded instances; envelope ratios <= 10 on the
    (X, h=X^0.4, q in {1,12}, K in {Q, Q(i)}) grid."""
    rng = np.random.default_rng(8)
    ok = True
    for _ in range(20):
        # keep X and h on the sampling lattice so the oracle grid is
        # commensurate with the integer-event breakpoints
        X = float(round(rng.uniform(200, 800)))
        h = round(float(rng.uniform(2, 50)), 2)
        target = [EVERYTHING, ResidueClass(3, 1), preset("Q(i)")][
            int(rng.integers(3))]
        exact = mean_square(X, h, target)
        sampled = mean_square_sampled(X, h, target, step=1e-2)
        if exact > 0 and abs(sampled - exact) > 0.01 * exact:
            ok = False
    worst_ratio = 0.0
    for X in (10**5, 10**6):
        h = X**0.4
        for target in (EVERYTHING, ResidueClass(12, 1), preset("Q"),
                       preset("Q(i)")):
            rep = meansq_ratio(X, h, target, ceiling=10.0)
            worst_ratio = max(worst_ratio, rep.ratio)
            if rep.verdict != "pass":
                ok = False
    report(8, ok, f"mean-square sweep vs sampling (1%) and envelope "
                  f"ratios <= 10 (worst {worst_ratio:.3g})")


def test_criterion_09_cramer_windows():
    """c1 = 4 window scans over [1e3, 1e6]: every window for
    (q,a) in {(1,0),(4,1),(4,3),(12,5)} and for every preset contains a
    prime / prime ideal, and every empirical c2 exceeds 0.25."""
    ok = True
    c2_seen = []
    targets = [ResidueClass(1, 0), ResidueClass(4, 1), ResidueClass(4, 3),
               ResidueClass(12, 5)] + [preset(n) for n in preset_names()]
    for target in targets:
        res = cramer_window_scan(10**3, 10**6, 4.0, target)
        c2_seen.append(res.c2_empirical)
        if res.verdict != "pass" or res.c2_empirical <= 0.25:
            ok = False
    report(9, ok, f"Cramer windows nonempty for 4 progressions + "
                  f"{len(preset_names())} presets, min c2 "
                  f"{min(c2_seen):.3f}")


def test_criterion_10_inertia():
    """A synthetic counter with a gap of length 2h produces a nonempty
    exceedance set with persistence radius >= h/8, while real data at
    h = sqrt(X) log X reports an empty set for X up to 1e6."""
    X, h = 10**4, 200.0
    positions = np.arange(2, int(2.5 * X), dtype=np.float64)
    gap_lo = 1.5 * X
    positions = positions[(positions < gap_lo)
                          | (positions >= gap_lo + 2 * h)]
    psi = StepCounter.from_events(positions, np.ones(len(positions)))
    src = WindowSource(psi=psi, drift=1.0, label="gap-fixture")
    rep = inertia_scan(X, h, src)
    ok = (bool(rep.exceedance_intervals)
          and max((r for _, r in rep.persistence), default=0.0) >= h / 8)
    for X in (10**3, 10**4, 10**5, 10**6):
        h = math.sqrt(X) * math.log(X)
        real = inertia_scan(X, h, EVERYTHING)
        if real.exceedance_intervals:
            ok = False
    report(10, ok, "synthetic gap detected with radius >= h/8; real-data "
                   "exceedance sets empty up to X=1e6")
