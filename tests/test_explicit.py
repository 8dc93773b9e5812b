import functools
import logging
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from primelab import (CapacityError, ResidueClass, StepCounter,
                      TruncationSpec, ZeroTable, ZeroTableError,
                      component_table, count_zeros, explicit, field_table,
                      numfield, predicted_count, preset, residual_scan,
                      smoothed_prediction, smoothed_sum, truncated_psi,
                      unweighted_sandwich)
from primelab.explicit import EVENT_NUDGE
from primelab.numfield import ideal_event_arrays
from primelab.sieve import EVERYTHING, event_arrays

from conftest import psi_prefix, run_within_rss, weighed


@pytest.fixture(scope="module")
def zeta_spec():
    return TruncationSpec(height=1000.0, zeros=component_table("zeta"))


@pytest.fixture(scope="module")
def psi_counter():
    pos, _, w = weighed(event_arrays(1, 10**6))
    return StepCounter.from_events(pos, w)


def one_zero_table(gamma, height=100.0):
    return ZeroTable(np.array([gamma]), height, "one")


# --- truncated psi ------------------------------------------------------

def test_truncation_spec_validation():
    tbl = one_zero_table(14.1347)
    with pytest.raises(ValueError):
        TruncationSpec(height=1.0, zeros=tbl)
    with pytest.raises(ZeroTableError):
        TruncationSpec(height=200.0, zeros=tbl)
    assert len(TruncationSpec(height=10.0, zeros=tbl).ordinates()) == 0
    assert len(TruncationSpec(height=14.1347, zeros=tbl).ordinates()) == 1


def test_truncated_psi_empty_table():
    spec = TruncationSpec(height=5.0, zeros=one_zero_table(14.0))
    x = 2.0
    expect = x - math.log(2 * math.pi) - 0.5 * math.log(1 - x**-2)
    assert truncated_psi(x, spec) == pytest.approx(expect, rel=1e-14)
    with pytest.raises(ValueError):
        truncated_psi(1.5, spec)


def test_truncated_psi_single_zero_complex_oracle():
    """One conjugate pair, evaluated independently with complex
    arithmetic."""
    g = 21.022039639
    spec = TruncationSpec(height=30.0, zeros=one_zero_table(g))
    for x in (5.0, 100.0, 12345.0):
        rho = 0.5 + 1j * g
        pair = 2 * (x**rho / rho).real
        expect = x - pair - math.log(2 * math.pi) \
            - 0.5 * math.log(1 - x**-2)
        assert truncated_psi(x, spec) == pytest.approx(expect, rel=1e-12)


def test_truncated_psi_tracks_counter(zeta_spec, psi_counter):
    """With 2T ~ 2000 zeros the formula lands within a few units of the
    actual step function away from jumps."""
    for x in (1000.5, 10**4 + 0.5, 10**5 + 0.5):
        approx = truncated_psi(x, zeta_spec)
        actual = psi_prefix(psi_counter.positions, psi_counter.weights, x)
        assert abs(approx - actual) \
            <= 5 * (x / zeta_spec.height) * math.log(x) ** 2


def test_residual_scan_normalization(zeta_spec, psi_counter):
    xs = [1000.5, 2000.5]
    scan = residual_scan(psi_counter, zeta_spec, xs)
    r = scan.residuals[0]
    x = scan.xs[0]
    T = zeta_spec.height
    assert scan.normalized[0] == pytest.approx(
        r * T / (x * math.log(x) ** 2), rel=1e-14)


def test_residual_scan_nudges_off_events(zeta_spec, psi_counter, caplog):
    with caplog.at_level(logging.WARNING, logger="primelab.explicit"):
        scan = residual_scan(psi_counter, zeta_spec, [997.0])
    assert "nudging" in caplog.text
    assert scan.xs[0] == pytest.approx(997.0 + 1e-6)


def test_doubling_height_shrinks_residual(psi_counter):
    """The normalized residual envelope is height-uniform: doubling T
    roughly halves the raw residual at fixed x, so the normalized values
    stay comparable."""
    tbl = component_table("zeta")
    xs = np.linspace(5000.5, 50000.5, 40)
    lo = residual_scan(psi_counter, TruncationSpec(500.0, tbl), xs)
    hi = residual_scan(psi_counter, TruncationSpec(1000.0, tbl), xs)
    assert np.abs(hi.residuals).max() < np.abs(lo.residuals).max()
    assert np.abs(hi.normalized).max() < 4 * np.abs(lo.normalized).max()


def colliding_event(pos, x):
    """The event within EVENT_NUDGE of probe x, or None."""
    i = np.searchsorted(pos, x - EVENT_NUDGE)
    if i < len(pos) and abs(pos[i] - x) <= EVENT_NUDGE:
        return float(pos[i])
    return None


def cumsum_residuals(pos, w, spec, xs):
    """(nudged x, residual) per probe from one whole-prefix np.cumsum,
    nudging as residual_scan documents."""
    pos = pos.astype(np.float64)
    prefix = np.concatenate(([0.0], np.cumsum(w)))
    out = []
    for x in xs:
        event = colliding_event(pos, x)
        if event is not None:
            x = event + EVENT_NUDGE
        value = prefix[np.searchsorted(pos, x, side="right")]
        out.append((x, value - truncated_psi(x, spec)))
    return out


# unsorted, with a repeat, on both sides of the read boundaries 4096 and
# 8192 under a store cap of 2^12, within EVENT_NUDGE of the prime powers
# 4096 and 8192 (norms of ideals of Q(i) too) and of 12289 = 1 mod 4, and
# just below the read edge 12288, which is not an event
SCAN_XS = [12288.5, 1000.5, 4096 + 5e-7, 4096 - 5e-7, 4096.0, 4097.5,
           1000.5, 8191.5, 8192 + 9e-7, 2.5, 8193.5, 12289 - 4e-7,
           12288 - 5e-7]
TARGETS = ["Q", "Q(i)", "q=4,a=1"]


@functools.cache
def scan_case(name, top=12400):
    """(target, spec, positions, weights) of a target's events up to top,
    read before any test lowers the store cap."""
    if name == "Q(i)":
        target = preset(name)
        pos, _, w = ideal_event_arrays(target, 1, top)
        return target, TruncationSpec(100.0, field_table(name), 2, 4), pos, w
    cls = EVERYTHING if name == "Q" else ResidueClass(4, 1)
    pos, _, w = weighed(event_arrays(1, top, cls))
    return (preset("Q") if name == "Q" else cls,
            TruncationSpec(100.0, component_table("zeta")), pos, w)


@pytest.mark.parametrize("name", TARGETS)
def test_residual_scan_reads_bounded_pieces_across_cap(
        name, empty_stores, monkeypatch):
    """Under a store cap of 2^12 residual_scan reads (0, max x] in one
    sweep of the reads `read_edges` cuts, and each residual equals the
    one from a whole-prefix cumsum over the target's events."""
    target, spec, pos, w = scan_case(name)
    expected = cumsum_residuals(pos, w, spec, SCAN_XS)
    monkeypatch.setattr(numfield, "_stores", {})
    monkeypatch.setattr(numfield, "STORE_BOUND", 2**12)
    sweeps = []
    sweep = explicit.window_reads

    def recorded(source, edges):
        sweeps.append(edges)
        return sweep(source, edges)

    monkeypatch.setattr(explicit, "window_reads", recorded)
    scan = residual_scan(target, spec, SCAN_XS)
    (edges,) = sweeps                   # one sweep
    assert list(zip(scan.xs.tolist(), scan.residuals.tolist())) == expected
    assert any(x != probe for x, probe in zip(scan.xs, SCAN_XS))
    assert edges == numfield.read_edges(0, max(SCAN_XS) + 3 * EVENT_NUDGE)
    assert len(edges) == 5
    assert all(bound <= 2**12 for bound, _ in numfield._stores.values())


# integers, integers moved by at most 15 EVENT_NUDGE / 10 either way and
# half-integers, around the read edges under a cap of 2^12 and anywhere
@st.composite
def probes(draw):
    n = draw(st.one_of(st.sampled_from([4096, 8191, 8192, 12288, 12289]),
                       st.integers(3, 12350)))
    return n + draw(st.one_of(st.just(0.0), st.just(0.5),
                              st.integers(-15, 15).map(lambda k: k * 1e-7)))


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(TARGETS), xs=st.lists(probes(), max_size=12))
@example(name="Q(i)", xs=[4096 - 1e-6, 4096 + 1e-6, 4096.0, 4096.0, 4099.0])
@example(name="q=4,a=1", xs=[12289 - 1.5e-6, 12288 + 1.5e-6, 5.0, 13.0])
@example(name="Q", xs=[67.000001])
def test_vectorised_nudge_matches_the_prefix_oracle(name, xs):
    """Under a store cap of 2^12 each probe, nudged or not, and its
    residual equal the whole-prefix cumsum's bit for bit, and one warning
    is logged per collision, in ascending probe order."""
    target, spec, pos, w = scan_case(name)
    expected = cumsum_residuals(pos, w, spec, xs)
    with pytest.MonkeyPatch.context() as mp, \
            mock.patch.object(explicit.log, "warning") as warning:
        mp.setattr(numfield, "_stores", {})
        mp.setattr(numfield, "STORE_BOUND", 2**12)
        scan = residual_scan(target, spec, xs)
    assert list(zip(scan.xs.tolist(), scan.residuals.tolist())) == expected
    # a probe at exactly n + EVENT_NUDGE collides though its nudge keeps it
    assert [call.args[1] for call in warning.call_args_list] == sorted(
        x for x in xs if colliding_event(pos.astype(np.float64), x) is not None)


def test_residual_scan_of_no_probes_reads_nothing(empty_stores,
                                                  monkeypatch, zeta_spec):
    """An empty scan returns before any read: no event is built and no
    store grows."""
    def refuse(*args):
        raise AssertionError("an empty scan built events")

    monkeypatch.setattr(numfield, "_build_events", refuse)
    scan = residual_scan(preset("Q"), zeta_spec, [])
    assert [len(a) for a in (scan.xs, scan.residuals, scan.normalized)] \
        == [0, 0, 0]
    assert numfield._stores == {}


def test_residual_scan_refuses_a_probe_below_2_before_any_read(
        empty_stores, monkeypatch, zeta_spec):
    """A probe just below 2, even one within EVENT_NUDGE of the event at
    2, is refused up front: no event is built and no store grows."""
    def refuse(*args):
        raise AssertionError("a refused scan built events")

    monkeypatch.setattr(numfield, "_build_events", refuse)
    with pytest.raises(ValueError, match="x must be >= 2, got 1.9999986"):
        residual_scan(preset("Q"), zeta_spec, [1000.5, 1.9999986])
    assert numfield._stores == {}


def test_residual_scan_rejects_probes_it_cannot_read(psi_counter,
                                                    zeta_spec):
    """A NaN or a probe past the ceiling would read on without end, even
    from a counter, and a probe below 2 would read (1, x] with x < 1."""
    with pytest.raises(ValueError, match="x must be >= 2, got nan"):
        residual_scan(psi_counter, zeta_spec, [1000.5, math.nan])
    with pytest.raises(CapacityError):
        residual_scan(psi_counter, zeta_spec, [1000.5, 1e300])
    with pytest.raises(ValueError, match="x must be >= 2, got 0.5"):
        residual_scan(preset("Q(i)"), zeta_spec, [1000.5, 0.5])


@pytest.mark.parametrize("call,match", [
    (lambda spec: count_zeros(spec.zeros, math.nan), "T must be a number"),
    (lambda spec: TruncationSpec(math.nan, spec.zeros), "height must be"),
    (lambda spec: truncated_psi(math.nan, spec), "x must be >= 2"),
    (lambda spec: smoothed_prediction(math.nan, 10, spec), "need x - h"),
    (lambda spec: smoothed_prediction(100, math.nan, spec), "h must be pos"),
    (lambda spec: smoothed_prediction(100, 0, spec), "h must be positive"),
    (lambda spec: smoothed_prediction(100, -5, spec), "h must be positive"),
    (lambda spec: predicted_count(1, 1, math.nan), "T must be >= 2"),
    (lambda spec: truncated_psi(math.inf, spec),
     "x must be >= 2 and finite, got inf"),
    (lambda spec: smoothed_prediction(math.inf, 10, spec),
     "need x - h >= 2 and x \\+ h finite, got x=inf, h=10"),
    (lambda spec: predicted_count(1, 1, math.inf),
     "T must be >= 2 and finite, got inf"),
], ids=["count-zeros-nan", "height-nan", "psi-nan", "prediction-x-nan",
        "prediction-h-nan", "prediction-h-zero", "prediction-h-negative",
        "predicted-count-nan", "psi-inf", "prediction-x-inf",
        "predicted-count-inf"])
def test_explicit_and_zero_counts_refuse_nan_and_nonpositive_h(
        call, match, zeta_spec):
    """A NaN, an infinite argument or a window h <= 0 raises ValueError,
    not a NaN, a count of every zero or a ZeroDivisionError."""
    with pytest.raises(ValueError, match=match):
        call(zeta_spec)


def test_explicit_at_1e8_stays_under_100_mb():
    """explicit sweeps (1, 1e8] in reads of READ_PIECE norms, after one
    growth of the store: the child peaks under 100 MB (about 60 MB; 81 MB
    in reads of 2^24 norms, and about 460 MB with the whole-prefix
    counter)."""
    proc = run_within_rss("from primelab.cli import main\n"
                          "status = main(sys.argv[1:])", 100,
                          "explicit", "--T", "100", "--x-lo", "1e8",
                          "--x-hi", "1e8")
    assert proc.returncode == 0, proc.stderr
    header, row = proc.stdout.splitlines()
    residual = float(row.split(",")[-4])
    x = 1e8
    assert abs(residual) <= 5 * (x / 100) * math.log(x) ** 2


# --- smoothed sums ------------------------------------------------------

def test_smoothed_sum_hand_value(psi_counter):
    """W(100, 10) enumerated by hand over the window (90, 110)."""
    contrib = {97: 0.7, 101: 0.9, 103: 0.7, 107: 0.3, 109: 0.1}
    expect = math.fsum(f * math.log(p) for p, f in contrib.items())
    assert smoothed_sum(100, 10, psi_counter) == pytest.approx(
        expect, rel=1e-14)


def test_smoothed_sum_open_window(psi_counter):
    # 101 sits exactly h away and gets zero weight; the window is open
    assert smoothed_sum(104, 3, psi_counter) == pytest.approx(
        math.log(103) * (2 / 3), rel=1e-14)


@settings(max_examples=25, deadline=None)
@given(x=st.floats(50, 900), h=st.floats(2, 40))
def test_smoothed_sum_is_convolution(x, h, psi_counter):
    """W(x, h) = (Psi(x+h) - 2 Psi(x) + Psi(x-h)) / h where
    Psi(t) = sum_{n <= t} (t - n) w_n, each Psi evaluated brute force."""
    pos = psi_counter.positions
    w = psi_counter.weights

    def big_psi(t):
        keep = pos <= t
        return math.fsum((t - pos[keep]) * w[keep])

    expect = (big_psi(x + h) - 2 * big_psi(x) + big_psi(x - h)) / h
    assert smoothed_sum(x, h, psi_counter) == pytest.approx(
        expect, rel=1e-9, abs=1e-9)


def test_smoothed_prediction_envelope(zeta_spec, psi_counter):
    for x in (10**4, 10**5):
        for h in (x**0.55, x**0.7):
            pred = smoothed_prediction(x, h, zeta_spec)
            actual = smoothed_sum(x, h, psi_counter)
            err = abs(pred - actual)
            assert err <= 4 * (x / zeta_spec.height) * math.log(x) ** 2, \
                (x, h, err)


def test_smoothed_prediction_validation(zeta_spec):
    with pytest.raises(ValueError):
        smoothed_prediction(10, 9, zeta_spec)
    spec = TruncationSpec(height=5.0, zeros=one_zero_table(14.0))
    assert smoothed_prediction(100, 7.0, spec) == 7.0


# --- sandwich -----------------------------------------------------------

def test_sandwich_brackets_window(psi_counter):
    pos, w = psi_counter.positions, psi_counter.weights
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = float(rng.uniform(100, 9 * 10**5))
        h = float(rng.uniform(5, 0.02 * x))
        eps = float(rng.uniform(0.05, 0.9))
        lower, upper = unweighted_sandwich(x, h, eps, psi_counter)
        actual = psi_prefix(pos, w, x + h) - psi_prefix(pos, w, x - h)
        assert lower <= actual + 1e-9 <= upper + 2e-9, (x, h, eps)


def test_sandwich_tightens_with_eps(psi_counter):
    x, h = 10**5 + 0.5, 500.0
    widths = [u - l for l, u in
              (unweighted_sandwich(x, h, e, psi_counter)
               for e in (0.8, 0.4, 0.1))]
    assert widths[0] > widths[1] > widths[2] > 0


def test_sandwich_validation(psi_counter):
    with pytest.raises(ValueError):
        unweighted_sandwich(100, 10, 0.0, psi_counter)
    with pytest.raises(ValueError):
        unweighted_sandwich(100, 10, 1.0, psi_counter)


# --- field variant ------------------------------------------------------

def test_field_residual_uses_field_normalization():
    """For the Gaussian integers the residual normalization carries
    n_K = 2 and log d_K = log 4."""
    from primelab import field_source, preset
    src = field_source(preset("Q(i)"), 10**5)
    tbl = field_table("Q(i)")
    spec = TruncationSpec(height=500.0, zeros=tbl, degree=2, disc=4)
    xs = [10**4 + 0.5]
    scan = residual_scan(src.psi, spec, xs)
    x = scan.xs[0]
    scale = 500.0 / (x * (2 * math.log(x) + math.log(4)) * math.log(x))
    assert scan.normalized[0] == pytest.approx(scan.residuals[0] * scale,
                                               rel=1e-14)
    assert abs(scan.normalized[0]) < 5.0
