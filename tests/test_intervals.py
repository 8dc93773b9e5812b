import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from primelab import (CapacityError, NumberFieldSpec, ResidueClass,
                      StepCounter, UnsupportedPrimeError, WindowSource,
                      bt_check_ap, bt_check_field, cramer_window_scan, delta,
                      delta_K, delta_series, euler_phi, field_source,
                      inertia_scan, intervals, mean_square,
                      meansq_ratio, pi_K, pi_ap, preset, preset_names,
                      numfield, progression_source, psi_K, psi_ap,
                      sieve_primes, smoothed_sum, window_events)
from primelab.counters import drift, first_power_reads, target_label, \
    window_count, window_reads
from primelab.numfield import ideal_event_arrays
from primelab.sieve import EVERYTHING, event_arrays

from conftest import (LINUX_ONLY, mean_square_sampled, run_counting_faults,
                      sieve_ceiling, weighed)
from oracles import is_prime_trial


def synthetic_source(positions, weights, drift, label="synthetic"):
    psi = StepCounter.from_events(positions, weights)
    return WindowSource(psi=psi, drift=drift, label=label)


# --- euler phi ----------------------------------------------------------

def test_euler_phi_values():
    assert [euler_phi(q) for q in (1, 2, 4, 12, 97)] == [1, 1, 2, 4, 96]
    with pytest.raises(ValueError):
        euler_phi(0)


@settings(max_examples=60, deadline=None)
@given(a=st.integers(1, 300), b=st.integers(1, 300))
def test_euler_phi_multiplicative(a, b):
    if math.gcd(a, b) == 1:
        assert euler_phi(a * b) == euler_phi(a) * euler_phi(b)


def test_euler_phi_counts_units():
    for q in range(1, 60):
        assert euler_phi(q) == sum(math.gcd(a, q) == 1 for a in range(1, q + 1))


# --- delta --------------------------------------------------------------

def test_delta_spec_values():
    # psi(110) - psi(100) - 10 over all residues
    val = delta(100, 10, EVERYTHING)
    expect = math.fsum(math.log(p) for p in (101, 103, 107, 109)) - 10
    assert val == pytest.approx(expect, rel=1e-13)
    assert delta_K(preset("Q(i)"), 20, 5) == pytest.approx(
        2 * math.log(5) - 5, rel=1e-13)


# windows below, across and above a store cap of 2^12
CAPPED_WINDOWS = [(1000.5, 1600.25), (3900.0, 4400.5), (7000.75, 7900.0)]


@pytest.mark.parametrize("q", [1, 4, 7, 30])
def test_progression_reads_match_sieve_on_both_sides_of_cap(
        q, empty_stores, monkeypatch):
    """Under a store cap of 2^12, progression sources, first powers,
    Brun-Titchmarsh counts and delta equal the sieve's events of the
    class, read below the cap from Q's store and above it by a direct
    build; no store grows past the cap."""
    monkeypatch.setattr(numfield, "STORE_BOUND", 2**12)
    cls = ResidueClass(q, 1 % q)
    for hi in (3000.5, 2**12, 9000.25):
        pos, expo, w = weighed(event_arrays(1, hi, cls))
        src = progression_source(cls, hi)
        assert np.array_equal(src.psi.positions, pos.astype(np.float64))
        assert np.array_equal(src.psi.weights, w)
        got, got_expo, _ = window_events(cls, 1, hi)
        assert np.array_equal(got[got_expo == 1], pos[expo == 1])
    for x, top in CAPPED_WINDOWS:
        pos, expo, w = weighed(event_arrays(x, top, cls))
        h = top - x
        assert bt_check_ap(x, h, cls).metric == np.count_nonzero(expo == 1)
        # the drift term is h times the density 1/phi(q)
        assert delta(x, h, cls) == math.fsum(w) - h * (1 / euler_phi(q))
    assert all(bound <= 2**12 for bound, _ in numfield._stores.values())


# below, at and just above a store cap of 2^12, and three reads past it
TOTAL_XS = (1000.5, 4096, 4097, 12288.5)


def test_totals_read_in_bounded_reads_across_cap(empty_stores, monkeypatch):
    """Under a store cap of 2^12 the totals read (1, x] in reads of at
    most 2^12 norms: psi_ap and pi_ap equal the fsum and the prime count
    of the sieve's events of the class, psi_K and pi_K of Q(i) their
    values under the default cap, no store grows past the cap, and a
    repeated total builds only the norms above it."""
    qi = preset("Q(i)")
    expected = {x: (psi_K(qi, x), pi_K(qi, x)) for x in TOTAL_XS}
    monkeypatch.setattr(numfield, "_stores", {})
    monkeypatch.setattr(numfield, "STORE_BOUND", 2**12)
    for x in TOTAL_XS:
        for q in (1, 4, 7, 30):
            cls = ResidueClass(q, 1 % q)
            _, expo, w = weighed(event_arrays(1, x, cls))
            assert psi_ap(x, cls) == math.fsum(w)
            assert pi_ap(x, cls) == np.count_nonzero(expo == 1)
        assert (psi_K(qi, x), pi_K(qi, x)) == expected[x]
    assert all(bound <= 2**12 for bound, _ in numfield._stores.values())
    built = []
    build = numfield._build_events

    def recorded(fld, lo, hi, *cls):
        built.append(lo)
        return build(fld, lo, hi, *cls)

    monkeypatch.setattr(numfield, "_build_events", recorded)
    assert psi_K(qi, 12288.5) == expected[12288.5][0]
    assert built and min(built) >= 2**12


@pytest.mark.parametrize("piece", [1000, 2**12])
def test_totals_in_small_reads_equal_the_one_read_values(
        piece, empty_stores, monkeypatch):
    """With READ_PIECE lowered to 1000 or 2^12 norms the totals sweep
    (1, x] in many reads, and psi_ap, pi_ap, psi_K and pi_K equal, bit for
    bit, the values of one read of (1, x] (x <= 2^21, one default read).
    psi reads through ideal_event_arrays, pi counts through
    first_power_count, and both are recorded."""
    qi, classes = preset("Q(i)"), [ResidueClass(q, 1 % q) for q in (1, 4, 30)]
    xs = (1000.5, 4096, 70000.5, 2**21)

    def totals(x):
        return ([(psi_ap(x, cls), pi_ap(x, cls)) for cls in classes],
                psi_K(qi, x), pi_K(qi, x))

    expected = [totals(x) for x in xs]
    monkeypatch.setattr(numfield, "_stores", {})
    monkeypatch.setattr(numfield, "READ_PIECE", piece)
    reads = []

    def recorder(read):
        def recorded(fld, lo, hi, *cls):
            if cls:                     # a read of a total
                reads.append(math.floor(hi) - math.floor(lo))
            return read(fld, lo, hi, *cls)
        return recorded

    for name in ("ideal_event_arrays", "first_power_count"):
        monkeypatch.setattr(numfield, name,
                            recorder(getattr(numfield, name)))
    assert [totals(x) for x in xs] == expected
    assert len(reads) > 8 * 2**21 // piece
    assert all(width <= piece for width in reads)


def test_far_windows_are_exact_and_keep_no_store(empty_stores):
    """Windows above the store cap are built alone: delta is the exactly
    rounded window sum, and no store grows past the cap."""
    cls = ResidueClass(4, 1)
    _, _, w = weighed(event_arrays(1e8, 1e8 + 1000, cls))
    assert delta(1e8, 1000, cls) == math.fsum(w) - 500
    assert bt_check_field(preset("Q(i)"), 3e7, 1000).metric == 68
    assert all(bound <= numfield.STORE_BOUND
               for bound, _ in numfield._stores.values())


def record_reads(monkeypatch):
    """The (lo, hi) of every window_events read and first_power_reads
    sweep the experiments make."""
    calls = []

    def read(target, lo, hi):
        calls.append((lo, hi))
        return window_events(target, lo, hi)

    def sweep(target, edges):
        calls.append((edges[0], edges[-1]))
        return first_power_reads(target, edges)

    monkeypatch.setattr(intervals, "window_events", read)
    monkeypatch.setattr(intervals, "first_power_reads", sweep)
    return calls


@pytest.mark.parametrize("run", [
    lambda: delta_series(1000, 50, Q4),
    lambda: mean_square(1000, 50, QI),
    # positions are integers, so (1000, ...] holds every one >= 1000.5
    lambda: cramer_window_scan(1000.5, 2000, 4.0, Q4),
], ids=["delta_series", "mean_square", "cramer_window_scan"])
def test_experiments_read_only_their_range(monkeypatch, run):
    """One read, from the start of the experiment's range, not from 1."""
    calls = record_reads(monkeypatch)
    run()
    assert [lo for lo, _ in calls] == [1000]


def test_delta_series_starts_at_the_exact_window_sum():
    assert delta_series(3e7, 1000, EVERYTHING).values[0] \
        == delta(3e7, 1000, EVERYTHING)


def test_window_events_refuse_other_targets():
    with pytest.raises(TypeError):
        window_events("Q(i)", 1, 100)


def test_experiments_refuse_what_is_not_a_target():
    """A bare StepCounter has events but no drift and no label: a delta
    or a mean square of one raises TypeError instead of treating it as
    Q (drift 1) or failing on a missing attribute; so does any other
    object that is not a class, a field or a WindowSource."""
    counter = StepCounter.from_events([2, 3], [math.log(2), math.log(3)])
    for call in (lambda: drift(counter), lambda: target_label(counter),
                 lambda: delta(1, 3, counter),
                 lambda: mean_square(100, 10, counter),
                 lambda: drift("Q(i)"), lambda: target_label(4)):
        with pytest.raises(TypeError, match="not an experiment target"):
            call()


def test_theorem_experiments_refuse_a_window_source():
    """A WindowSource has a drift and a label but no modulus, degree or
    discriminant: meansq_ratio (its envelope) and cramer_window_scan (its
    window law) raise TypeError naming it, not AttributeError."""
    src = synthetic_source(np.arange(2.0, 5000.0), np.ones(4998), 1.0)
    assert mean_square(1000, 30, src) >= 0
    with pytest.raises(TypeError, match="WindowSource is not a residue "
                       "class or a number field, so it has no mean-square"):
        meansq_ratio(1000, 30, src)
    with pytest.raises(TypeError, match="WindowSource is not a residue "
                       "class or a number field, so it has no window law"):
        cramer_window_scan(100, 1000, 1.0, src)


def test_delta_series_matches_direct_probes():
    X, h = 1000, 50
    for target in (EVERYTHING, ResidueClass(4, 1), preset("Q(i)")):
        series = delta_series(X, h, target)
        rng = np.random.default_rng(3)
        xs = np.sort(rng.uniform(X, 2 * X, 300))
        if isinstance(target, ResidueClass):
            direct = [delta(float(x), h, target) for x in xs]
        else:
            direct = [delta_K(target, float(x), h) for x in xs]
        got = series.values[series.breakpoints.searchsorted(xs, side="right")]
        assert np.max(np.abs(got - np.array(direct))) < 1e-9


def test_delta_series_right_continuous():
    series = delta_series(100, 10, EVERYTHING)
    bp = series.breakpoints
    # value at a breakpoint equals the value just above it
    for b in bp[:20]:
        at, above = bp.searchsorted((float(b), float(b) + 1e-9), side="right")
        assert series.values[at] == series.values[above]
    assert series.piece_lengths().sum() == pytest.approx(100.0)


# --- mean square --------------------------------------------------------

def test_mean_square_validation():
    with pytest.raises(ValueError):
        mean_square(100, 1, EVERYTHING)
    with pytest.raises(ValueError):
        mean_square(100, 200, EVERYTHING)


def test_mean_square_synthetic_box():
    """One event of weight w in [X, 2X] with zero drift: Delta is w on
    [n - h, n) ... value checked analytically."""
    src = synthetic_source([150.0], [2.0], drift=0.0)
    # Delta = 2 on [150 - 20, 150), zero elsewhere in [100, 200]
    assert mean_square(100, 20, src) == pytest.approx(4.0 * 20.0)


def test_mean_square_constant_drift_only():
    src = synthetic_source([], [], drift=0.5)
    # Delta = -h * 0.5 everywhere
    assert mean_square(100, 10, src) == pytest.approx(25.0 * 100.0)


def test_mean_square_matches_sampled_oracle():
    for target in (EVERYTHING, ResidueClass(3, 1), preset("Q(i)")):
        for h in (5.0, 17.0):
            exact = mean_square(500, h, target)
            sampled = mean_square_sampled(500, h, target, step=1e-2)
            assert sampled == pytest.approx(exact, rel=2e-4), (target, h)


def test_mean_square_rational_field_equals_trivial_class():
    assert mean_square(300, 12, preset("Q")) \
        == pytest.approx(mean_square(300, 12, EVERYTHING), rel=1e-12)


def test_meansq_ratio_report():
    rep = meansq_ratio(1000, 30, ResidueClass(4, 1))
    assert rep.verdict == "report-only"
    assert rep.bound == pytest.approx(30 * 1000 * math.log(4000) ** 2)
    assert rep.ratio == pytest.approx(rep.metric / rep.bound)
    assert meansq_ratio(1000, 30, ResidueClass(4, 1),
                        ceiling=10.0).verdict == "pass"
    assert meansq_ratio(1000, 30, ResidueClass(4, 1),
                        ceiling=1e-12).verdict == "fail"


# --- inertia ------------------------------------------------------------

def gap_fixture(X=10**4, h=200.0):
    """Unit-weight events at integer spacing 1/drift, with a gap of
    length 2h cut around 1.5 X: inside the gap Delta drops to -h*drift
    and must exceed any quarter-drift threshold."""
    drift = 1.0
    positions = np.arange(2, int(2.5 * X), dtype=np.float64)
    gap_lo, gap_hi = 1.5 * X, 1.5 * X + 2 * h
    keep = (positions < gap_lo) | (positions >= gap_hi)
    positions = positions[keep]
    weights = np.full(len(positions), drift)
    return synthetic_source(positions, weights, drift,
                            label="gap-fixture"), gap_lo, gap_hi


def test_inertia_gap_detected():
    src, gap_lo, gap_hi = gap_fixture()
    h = 200.0
    report = inertia_scan(10**4, h, src)
    assert report.exceedance_intervals
    assert report.threshold == pytest.approx(h / 4)
    # some exceedance interval covers the middle of the gap
    mid = 0.5 * (gap_lo + gap_hi) - h / 2
    assert any(lo <= mid <= hi for lo, hi in report.exceedance_intervals)
    # persistence: |Delta| > h/8 on a radius >= h/8 around the worst point
    radii = [r for _, r in report.persistence]
    assert max(radii) >= h / 8
    assert report.persistence_level == pytest.approx(h / 8)


def test_inertia_persistence_is_honest():
    """The reported radius must be certified by the series itself."""
    src, _, _ = gap_fixture()
    report = inertia_scan(10**4, 200.0, src)
    for x_bar, radius in report.persistence:
        for probe in np.linspace(x_bar - radius * 0.999,
                                 x_bar + radius * 0.999, 11):
            i = report.series.breakpoints.searchsorted(probe, side="right")
            assert abs(report.series.values[i]) > report.persistence_level


def test_inertia_empty_for_smooth_fixture():
    src = synthetic_source(np.arange(2, 25000, dtype=np.float64),
                           np.ones(24998), 1.0)
    report = inertia_scan(10**4, 200.0, src)
    assert report.exceedance_intervals == []
    assert report.persistence == []


def test_inertia_rejects_empty_range():
    for X in (0, -5, math.nan):
        with pytest.raises(ValueError, match="X="):
            inertia_scan(X, 10, EVERYTHING)


def test_inertia_builds_one_source(monkeypatch):
    calls = record_reads(monkeypatch)
    inertia_scan(1000, 40, ResidueClass(4, 1))
    assert calls == [(1000, 2040)]


def test_inertia_range_warning(caplog):
    import logging
    src = synthetic_source(np.arange(2, 2600, dtype=np.float64),
                           np.ones(2598), 1.0)
    with caplog.at_level(logging.WARNING, logger="primelab.intervals"):
        inertia_scan(1000, 1.5, src)
    assert "range condition" in caplog.text


def inertia_walks(series, threshold, level):
    """Exceedance intervals and persistence (x_bar, radius) by walking the
    pieces one at a time: the reference for inertia_scan's array code."""
    edges = np.concatenate(([series.start], series.breakpoints,
                            [series.end]))
    vals = series.values
    exceed = np.abs(vals) > threshold
    nonzero = series.piece_lengths() > 0
    intervals = []
    spans = []          # (first_piece, last_piece) per interval
    i = 0
    while i < len(vals):
        if exceed[i] and nonzero[i]:
            j = i
            while j + 1 < len(vals) and (exceed[j + 1] or not nonzero[j + 1]):
                j += 1
            while not (exceed[j] and nonzero[j]):
                j -= 1
            intervals.append((float(edges[i]), float(edges[j + 1])))
            spans.append((i, j))
            i = j + 1
        else:
            i += 1
    persistence = []
    above = np.abs(vals) > level
    for first, last in spans:
        k = first + int(np.argmax(np.abs(vals[first:last + 1])))
        x_bar = 0.5 * (edges[k] + edges[k + 1])
        lo, hi = k, k
        while lo - 1 >= 0 and above[lo - 1]:
            lo -= 1
        while hi + 1 < len(vals) and above[hi + 1]:
            hi += 1
        radius = min(x_bar - edges[lo], edges[hi + 1] - x_bar)
        persistence.append((float(x_bar), float(radius)))
    return intervals, persistence


@settings(max_examples=300, deadline=None)
@given(positions=st.lists(st.integers(101, 260), max_size=60),
       weights=st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.0]),
                        min_size=60, max_size=60),
       h=st.integers(1, 40), drift=st.sampled_from([0.25, 0.5, 1.0, 2.0]),
       persist_c=st.sampled_from([0.125, 0.25, 0.5, 1.0]))
# |Delta| = 1 = threshold on a live piece, which therefore cuts
@example(positions=[108], weights=[3.0], h=16, drift=0.25, persist_c=0.25)
# Delta = -39 everywhere: the worst piece is not above the level 39, and
# the walk still starts there (radius 50, not 0)
@example(positions=[], weights=[], h=39, drift=1.0, persist_c=1.0)
def test_inertia_scan_equals_the_piece_walks(positions, weights, h, drift,
                                             persist_c):
    """Integer positions, repeated ones included, make zero-length pieces
    and values exactly at the threshold; the persistence level lies below,
    at and above the threshold (persist_c 0.25 is the threshold)."""
    positions = sorted(positions)
    src = synthetic_source(np.array(positions, dtype=np.float64),
                           weights[:len(positions)], drift)
    report = inertia_scan(100, h, src, persist_c=persist_c)
    assert (report.exceedance_intervals, report.persistence) == inertia_walks(
        report.series, report.threshold, report.persistence_level)


# --- Brun-Titchmarsh ----------------------------------------------------

def test_bt_ap_spec_example():
    rep = bt_check_ap(10**4, 400, ResidueClass(4, 1))
    assert rep.verdict == "pass"
    expect = sum(1 for n in range(10001, 10401)
                 if n % 4 == 1 and is_prime_trial(n))
    assert rep.metric == expect
    assert rep.bound == pytest.approx(2 * 400 / (2 * math.log(100)))


def test_bt_ap_counts_match_trial_division():
    rep = bt_check_ap(1000, 120, ResidueClass(3, 2))
    expect = sum(1 for n in range(1001, 1121)
                 if n % 3 == 2 and is_prime_trial(n))
    assert rep.metric == expect


def test_bt_ap_validation():
    with pytest.raises(ValueError, match="h > q"):
        bt_check_ap(1000, 4, ResidueClass(4, 1))
    with pytest.raises(ValueError, match="gcd"):
        bt_check_ap(1000, 100, ResidueClass(4, 2))


def test_bt_field_spec_example():
    rep = bt_check_field(preset("Q(i)"), 10**4, 400)
    assert rep.verdict == "pass"
    assert rep.bound == pytest.approx(8 * 400 / math.log(400))
    with pytest.raises(ValueError):
        bt_check_field(preset("Q(i)"), 100, 200)


# --- window counts ------------------------------------------------------

# x^2 + 3 has index 2 in the ring of integers of Q(sqrt-3): 2 is a bad prime
BAD_TWO = NumberFieldSpec.from_poly([3, 0, 1], field_disc=3, name="x^2 + 3")
COUNTER = StepCounter.from_events(np.arange(3, 9000, 7.5), np.ones(1200))
SYNTHETIC = WindowSource(COUNTER, 1.0, "synthetic")


def outcome(read):
    """read()'s value, or the type and message of what it raised."""
    try:
        return read()
    except Exception as exc:
        return type(exc), str(exc)


def mask_count(target, lo, hi):
    return int(np.count_nonzero(window_events(target, lo, hi)[1] == 1))


@settings(max_examples=80, deadline=None)
@given(target=st.one_of(
    st.integers(1, 60).flatmap(lambda q: st.builds(
        ResidueClass, st.just(q), st.integers(0, q - 1))),
    st.sampled_from(preset_names()).map(preset),
    st.sampled_from([BAD_TWO, COUNTER, SYNTHETIC])),
    filled=st.sampled_from([0, 1024, 2048]),
    cap=st.sampled_from([2**12, numfield.STORE_BOUND]),
    lo=st.floats(-10, 9000), width=st.floats(0, 3000))
@example(ResidueClass(30, 7), 2048, 2**12, 1000.5, 600)     # in the store
@example(ResidueClass(30, 6), 2048, 2**12, 1000.5, 600)     # a non-unit
@example(preset("Q(i)"), 1024, 2**12, 900, 500)      # across: a growth
@example(preset("cyclo12"), 1024, 2**12, 1500, 200)  # past the store
@example(ResidueClass(7, 3), 1024, 2**12, 5000, 1000)  # above the cap
@example(preset("Q(i)"), 1024, 2**12, -5, 5.5)       # ends below 1
@example(BAD_TWO, 0, 2**12, 120, 10)                 # holds 2^7
@example(BAD_TWO, 0, 2**12, 100, 20)
@example(COUNTER, 0, 2**12, 10, 100)
def test_window_count_equals_the_window_mask(target, filled, cap, lo, width):
    """window_count is the number of first powers window_events reads, or
    raises the same, from the same store: for classes q <= 60 (units and
    not), every preset, a field with a bad prime and synthetic sources,
    over windows in the store, across its bound, past it, above a
    lowered STORE_BOUND and ending below 1."""
    fld = preset("Q") if isinstance(target, ResidueClass) else target

    def fresh(count):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numfield, "_stores", {})
            mp.setattr(numfield, "STORE_BOUND", cap)
            if filled and isinstance(fld, NumberFieldSpec):
                outcome(lambda: ideal_event_arrays(fld, 1, filled))
            return outcome(lambda: count(target, lo, lo + width))

    assert fresh(window_count) == fresh(mask_count)


@pytest.mark.parametrize("target,lo,hi,error", [
    (ResidueClass(4, 1), 10, 5, ValueError),
    (preset("Q(i)"), 10, math.nan, ValueError),
    (ResidueClass(30, 7), math.nan, 10, ValueError),
    (COUNTER, 10, 5, ValueError),
    (SYNTHETIC, math.nan, 10, ValueError),
    (preset("Q(i)"), 50, 500, CapacityError),
    (ResidueClass(4, 1), 50, 500, CapacityError),
    (COUNTER, 50, 500, CapacityError),
    (SYNTHETIC, 50, 500, CapacityError),
    (BAD_TWO, 60, 70, UnsupportedPrimeError),
], ids=["class-inverted", "field-nan", "class-nan", "counter-inverted",
        "source-nan", "field-ceiling", "class-ceiling", "counter-ceiling",
        "source-ceiling", "bad-prime"])
def test_bad_windows_raise_alike_on_both_paths(target, lo, hi, error):
    with sieve_ceiling(100):
        got = outcome(lambda: window_count(target, lo, hi))
        assert got == outcome(lambda: mask_count(target, lo, hi))
    assert got[0] is error


def test_synthetic_windows_check_their_range():
    """A StepCounter or WindowSource refuses an inverted or NaN window as
    a field or a class does, on every reading path."""
    with pytest.raises(ValueError, match="got lo=10, hi=7"):
        delta(10, -3, SYNTHETIC)
    with pytest.raises(ValueError, match="got lo=nan, hi=nan"):
        smoothed_sum(10, math.nan, SYNTHETIC)
    for read in (window_events, window_count):
        with pytest.raises(ValueError, match="got lo=10, hi=5"):
            read(COUNTER, 10, 5)
    with pytest.raises(ValueError, match="got lo=20, hi=10"):
        list(window_reads(SYNTHETIC, [1, 20, 10]))


LAYOUT_TARGETS = {"class-unit": ResidueClass(30, 7),
                  "class-nonunit": ResidueClass(4, 2), "Q(i)": preset("Q(i)"),
                  "cyclo12": preset("cyclo12"), "bad-prime": BAD_TWO,
                  "counter": COUNTER, "source": SYNTHETIC}


@pytest.mark.parametrize("name", LAYOUT_TARGETS)
def test_every_read_has_numfield_layout(name):
    """window_events returns (positions, exponents, weights) as int64,
    int16 and float64 arrays (float64 positions for a synthetic source):
    a class's or a field's are ideal_event_arrays' byte for byte, and
    window_reads yields ideal_event_arrays' read of each pair of edges; a
    synthetic source's events all have exponent 1.  first_power_reads
    yields the float64 positions of each read's exponents 1.  The
    windows miss every power of BAD_TWO's bad prime 2."""
    target = LAYOUT_TARGETS[name]
    edges = [1030, 1300.5, 1700, 2040]

    def same(got, want):
        assert [(a.dtype, a.tobytes()) for a in got] == \
            [(a.dtype, a.tobytes()) for a in want]

    got = window_events(target, edges[0], edges[-1])
    synthetic = isinstance(target, (StepCounter, WindowSource))
    assert [a.dtype for a in got] == [
        np.float64 if synthetic else np.int64, np.int16, np.float64]
    reads = list(window_reads(target, edges))
    if synthetic:
        assert np.all(got[1] == 1)
        wants = [window_events(target, lo, hi)
                 for lo, hi in zip(edges, edges[1:])]
    else:
        fld, cls = (preset("Q"), target) if isinstance(
            target, ResidueClass) else (target, EVERYTHING)
        same(got, ideal_event_arrays(fld, edges[0], edges[-1], cls))
        wants = [ideal_event_arrays(fld, lo, hi, cls)
                 for lo, hi in zip(edges, edges[1:])]
    assert len(reads) == len(wants) == len(edges) - 1
    for read, want in zip(reads, wants):
        same(read, want)
    firsts = list(first_power_reads(target, edges))
    assert len(firsts) == len(reads)
    for got, (pos, expo, _) in zip(firsts, reads):
        same([got], [pos[expo == 1].astype(np.float64)])


@pytest.mark.parametrize("target", [ResidueClass(4, 1), preset("Q(i)"),
                                    SYNTHETIC],
                         ids=["class", "field", "source"])
def test_a_sweep_of_fewer_than_two_edges_reads_nothing(target, empty_stores,
                                                       monkeypatch):
    """window_reads and first_power_reads of no edge or of one edge yield
    nothing, build nothing and grow no store."""
    def refused(*args):
        raise AssertionError("a sweep without a read built events")

    monkeypatch.setattr(numfield, "_build_events", refused)
    for edges in ([], [5]):
        assert list(window_reads(target, edges)) == []
        assert list(first_power_reads(target, edges)) == []
    assert numfield._stores == {}


@pytest.mark.parametrize("target", ["Q(i)", 4])
def test_a_sweep_of_a_non_target_raises_at_its_first_read(target):
    """window_reads and first_power_reads make every check at each read:
    a non-target raises TypeError once the reads are consumed."""
    for sweep in (window_reads, first_power_reads):
        reads = sweep(target, [1, 10])
        with pytest.raises(TypeError, match="cannot read events"):
            next(reads)


def test_warm_bt_checks_build_nothing(monkeypatch):
    """Once the stores hold their windows (a total grows them),
    bt_check_ap and bt_check_field count from views of them: no build,
    no call of ideal_event_arrays, and the stores keep their bounds and
    their very pieces."""
    windows = [(5000, 400), (1000.5, 120), (7000, 900)]
    classes = [ResidueClass(1, 0), ResidueClass(30, 7), ResidueClass(4, 3)]
    fields = [preset(name) for name in ("Q(i)", "cyclo5", "Q(sqrt5)")]
    for fld in [preset("Q"), *fields]:
        pi_K(fld, 2**13)

    def checks():
        return [r.metric for x, h in windows for r in
                [bt_check_ap(x, h, cls) for cls in classes]
                + [bt_check_field(fld, x, h) for fld in fields]]

    expected = checks()
    stores = dict(numfield._stores)

    def refused(*args):
        raise AssertionError("a warm check read past the store")

    monkeypatch.setattr(numfield, "_build_events", refused)
    monkeypatch.setattr(numfield, "ideal_event_arrays", refused)
    assert checks() == expected
    assert numfield._stores.keys() == stores.keys()
    for key, (bound, pieces) in numfield._stores.items():
        assert bound == stores[key][0]
        assert len(pieces) == len(stores[key][1])
        assert all(a is b for a, b in zip(pieces, stores[key][1]))


# --- Cramer scans -------------------------------------------------------

def test_cramer_scan_trivial_class():
    res = cramer_window_scan(10**3, 10**4, 4.0, EVERYTHING)
    assert res.verdict == "pass"
    assert all(count >= 1 for _, _, count, _ in res.windows)
    assert res.c2_empirical > 0.25
    assert 0 < res.c1_empirical < 4.0
    # window law: h = 4 sqrt(x) log x for q = 1
    x, h, _, _ = res.windows[0]
    assert h == pytest.approx(4 * math.sqrt(x) * math.log(x))


def test_cramer_scan_gaussian_field():
    res = cramer_window_scan(10**3, 10**4, 4.0, preset("Q(i)"))
    assert res.verdict == "pass"
    x, h, _, _ = res.windows[0]
    expect = 4 * (2 * math.log(x) + math.log(4)) * math.sqrt(x)
    assert h == pytest.approx(expect)


def whole_range_scan(x_lo, x_hi, target, windows):
    """c1_empirical and each window's (count, normalized count) as the
    scan computed them from whole-range arrays: the gaps of the first
    powers in [x_lo, x_hi] over law(1, x), and a boolean count of
    (x, x + h]."""
    law, density = intervals._window_law(target)
    pos, expo, _ = window_events(target, 1, x_hi + 2 * windows[-1][1])
    pos = pos[expo == 1].astype(np.float64)
    inside = pos[(pos >= x_lo) & (pos <= x_hi)]
    c1 = 0.0
    if len(inside) >= 2:
        c1 = float(np.max(np.diff(inside) / law(1.0, inside[:-1], np)))
    counts = [int(np.count_nonzero((pos > x) & (pos <= x + h)))
              for x, h, _, _ in windows]
    return c1, [(count, count * density * math.log(x) / h)
                for (x, h, _, _), count in zip(windows, counts)]


@pytest.mark.parametrize("piece", [None, 1000])
@pytest.mark.parametrize("target, x_lo, x_hi", [
    (EVERYTHING, 1e3, 2e6), (ResidueClass(30, 7), 1e3, 1e7),
    (preset("Q(i)"), 1e3, 2e6), (EVERYTHING, 1000, 1008),
    (EVERYTHING, 1000, 1013), (EVERYTHING, 2**24 - 3e5, 2**24 + 3e5),
    (ResidueClass(30, 7), 2**24 - 3e5, 2**24 + 3e5),
    (preset("Q(i)"), 2**24 - 3e5, 2**24 + 3e5)],
    ids=["q=1", "q=30", "Q(i)", "no-gap", "one-gap", "q=1-across-cap",
         "q=30-across-cap", "Q(i)-across-cap"])
def test_cramer_statistic_equals_the_whole_range_expression(
        target, x_lo, x_hi, piece, monkeypatch):
    """The scan sweeps its range a read at a time (READ_PIECE norms, or
    1000 here, so that windows and gaps straddle read edges), carrying
    the count and the last event; c1_empirical and the window counts
    equal, bit for bit, the whole-range expression
    np.max(np.diff(inside) / law(1.0, inside[:-1], np)) and the boolean
    counts.  The first three ranges hold 83,000-150,000 first powers,
    more than one default read; the next two hold none and two (1009,
    1013); the last three cross the store cap 2^24, where reads stop
    slicing the store and are built alone."""
    if piece is not None:
        monkeypatch.setattr(numfield, "READ_PIECE", piece)
    res = cramer_window_scan(x_lo, x_hi, 4.0, target)
    c1, windows = whole_range_scan(x_lo, x_hi, target, res.windows)
    assert repr(res.c1_empirical) == repr(c1)
    assert [(count, norm) for _, _, count, norm in res.windows] == windows
    assert (c1 == 0.0) == (x_hi == 1008)


def test_cramer_carry_crosses_empty_reads(monkeypatch):
    """With reads of 50 norms, most reads of 7 mod 30 over
    [1e5, 1.5e5] hold no first power in the range (each holds one or two
    class members, and the reads past x_hi none in it), so the last event
    carries across runs of empty reads to the next read that holds one;
    c1_empirical and the window counts equal the whole-range expression
    bit for bit."""
    monkeypatch.setattr(numfield, "READ_PIECE", 50)
    target, x_lo, x_hi = ResidueClass(30, 7), 1e5, 1.5e5
    held = []

    def sweep(target, edges):
        for pos in first_power_reads(target, edges):
            held.append(int(np.count_nonzero((pos >= x_lo) & (pos <= x_hi))))
            yield pos

    monkeypatch.setattr(intervals, "first_power_reads", sweep)
    res = cramer_window_scan(x_lo, x_hi, 0.25, target)
    held = np.array(held)
    some = np.flatnonzero(held)
    inner = held[some[0]:some[-1]]      # between the first and last reads
    assert np.count_nonzero(held == 0) > len(held) / 2
    assert np.count_nonzero(inner == 0) > len(inner) / 2
    c1, windows = whole_range_scan(x_lo, x_hi, target, res.windows)
    assert repr(res.c1_empirical) == repr(c1)
    assert [(count, norm) for _, _, count, norm in res.windows] == windows
    assert len(windows) > 10


@LINUX_ONLY
def test_warm_cramer_scan_faults_in_no_fresh_pages():
    """After a psi_ap(1e8), a warm q = 1 scan over (1e3, 1e7] reuses the
    memory its reads free: under 500 minor page faults (none on a 2-core
    host), where joining the carried event to each read mapped a fresh
    read-sized array every time, 2,625 faults."""
    proc, faults = run_counting_faults(
        "from primelab import cramer_window_scan, psi_ap\n"
        "from primelab.sieve import EVERYTHING\npsi_ap(1e8)\n"
        "cramer_window_scan(1e3, 1e7, 4, EVERYTHING)",
        "cramer_window_scan(1e3, 1e7, 4, EVERYTHING)")
    assert proc.returncode == 0, proc.stderr
    assert faults < 500


def test_cramer_scan_counts_against_oracle():
    res = cramer_window_scan(2000, 3000, 4.0, EVERYTHING)
    for x, h, count, _ in res.windows:
        expect = sum(1 for n in range(int(math.floor(x)) + 1,
                                      int(math.floor(x + h)) + 1)
                     if n > x and n <= x + h and is_prime_trial(n))
        assert count == expect


def test_cramer_scan_requires_unit_class():
    with pytest.raises(ValueError):
        cramer_window_scan(10**3, 10**4, 4.0, ResidueClass(4, 2))


def test_cramer_window_reports_shape():
    res = cramer_window_scan(10**3, 2 * 10**3, 4.0, EVERYTHING)
    rows = res.window_reports()
    assert len(rows) == len(res.windows)
    assert all(r.experiment == "cramer_window" for r in rows)
    summary = res.summary_report()
    assert summary.metric == res.c2_empirical
    assert summary.verdict == "pass"


# --- sieve ceiling ------------------------------------------------------

QI = preset("Q(i)")
Q4 = ResidueClass(4, 1)

# every public entry point that reads positions, called past 100
ENTRY_POINTS = {
    "sieve_primes": lambda: sieve_primes(1, 1000),
    "event_arrays": lambda: event_arrays(1, 1000),
    "psi_ap": lambda: psi_ap(1000),
    "pi_ap": lambda: pi_ap(1000, Q4),
    "progression_source": lambda: progression_source(Q4, 1000),
    "psi_K": lambda: psi_K(QI, 1000),
    "pi_K": lambda: pi_K(QI, 1000),
    "ideal_event_arrays": lambda: ideal_event_arrays(QI, 1, 1000),
    "field_source": lambda: field_source(QI, 1000),
    "delta": lambda: delta(500, 100, Q4),
    "delta_K": lambda: delta_K(QI, 500, 100),
    "bt_check_ap": lambda: bt_check_ap(500, 100, Q4),
    "bt_check_field": lambda: bt_check_field(QI, 500, 100),
    "cramer_window_scan": lambda: cramer_window_scan(200, 1000, 4.0, Q4),
    "meansq_ratio": lambda: meansq_ratio(500, 50, Q4),
    "inertia_scan": lambda: inertia_scan(500, 50, Q4),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_entry_point_honours_ceiling(name):
    """Each call works under the default ceiling, which fills the field
    store past 100, and raises under a ceiling of 100."""
    ENTRY_POINTS[name]()
    with sieve_ceiling(100), pytest.raises(CapacityError):
        ENTRY_POINTS[name]()
