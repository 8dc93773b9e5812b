import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from primelab import (CapacityError, ResidueClass, numfield, pi_ap, preset,
                      psi_ap, sieve, sieve_primes)
from primelab.numfield import ideal_event_arrays
from primelab.sieve import (DEFAULT_CEILING, EVERYTHING, base_primes,
                            check_capacity, event_arrays)

from conftest import (LINUX_ONLY, run_counting_faults, run_python,
                      run_within_rss, sieve_ceiling, weighed)
from oracles import trial_prime_power, trial_primes


def q_events(lo, hi, cls=EVERYTHING):
    """Q's (positions, exponents, weights) in (lo, hi] and cls, as
    lists, read through the event store."""
    return [a.tolist() for a in ideal_event_arrays(preset("Q"), lo, hi, cls)]


def test_textbook_primes():
    assert list(sieve_primes(0, 10)) == [2, 3, 5, 7]


def test_window_primes_match_trial_division():
    assert list(sieve_primes(100, 110)) == [101, 103, 107, 109]


def test_empty_interval():
    assert list(sieve_primes(8, 8)) == []


def test_bounds_are_half_open():
    assert 11 not in sieve_primes(11, 20)
    assert 19 in sieve_primes(11, 19)


@pytest.mark.parametrize("cls", [EVERYTHING, ResidueClass(30, 7)])
@pytest.mark.parametrize("lo, hi", [(math.nan, 10), (2, math.nan),
                                    (math.nan, math.nan), (10, 2.5)])
def test_bad_bounds_raise_value_error_quoting_both(lo, hi, cls):
    """A NaN bound, or hi below lo, is refused with both bounds quoted."""
    with pytest.raises(ValueError, match=re.escape(f"lo={lo}, hi={hi}")):
        sieve_primes(lo, hi, cls)


@pytest.mark.parametrize("lo", [0, 0.5, -3])
def test_event_arrays_refuse_lo_below_1(lo):
    with pytest.raises(ValueError, match=f"lo must be >= 1, got {lo}"):
        event_arrays(lo, 100)


@pytest.mark.parametrize("cls", [EVERYTHING, ResidueClass(30, 7),
                                 ResidueClass(6, 2), ResidueClass(4, 3)])
def test_minus_infinity_acts_like_minus_five(cls):
    """lo = -inf sieves from the first prime, as lo = -5 does; a window
    (-inf, -inf] is empty."""
    expect = [p for p in trial_primes(-5, 200) if p % cls.modulus
              == cls.residue]
    assert sieve_primes(-math.inf, 200, cls).tolist() == expect
    assert sieve_primes(-5, 200, cls).tolist() == expect
    assert sieve_primes(-math.inf, -math.inf, cls).tolist() == []


def test_capacity_error():
    with pytest.raises(CapacityError):
        sieve_primes(0, 10**9 + 1)
    with sieve_ceiling(1000):
        assert check_capacity(1000) == 1000
        with pytest.raises(CapacityError):
            sieve_primes(0, 2000)
    assert check_capacity(2000) == DEFAULT_CEILING
    assert len(sieve_primes(0, 2000)) == 303


@pytest.mark.parametrize("ceiling", [math.nan, 0, -5, 0.5,
                                     DEFAULT_CEILING + 1, 5 * 10**9])
def test_ceiling_may_only_lower_the_limit(ceiling):
    """A ceiling set by library code outside [1, DEFAULT_CEILING] is
    rejected on every read: NaN would pass every hi, and a value above
    10^9 would lift the documented limit."""
    with sieve_ceiling(ceiling):
        for hi in (10, 5e9):
            with pytest.raises(ValueError, match="ceiling"):
                check_capacity(hi)
        with pytest.raises(ValueError, match="ceiling"):
            sieve_primes(0, 100)
    assert check_capacity(10) == DEFAULT_CEILING


# counts the calls of sieve_primes that one cold sieve makes, through the
# module attribute that the sieve's own calls would go through
SIEVE_CALLS = """
from primelab import sieve
calls = []
inner = sieve.sieve_primes
def counted(*args, **kwargs):
    calls.append(args)
    return inner(*args, **kwargs)
sieve.sieve_primes = counted
sieve.sieve_primes(1, 100)
print(len(calls))
"""


def test_a_cold_sieve_is_one_call():
    """The base primes come from their own table, not from the sieve
    calling itself, so a tracer of sieve_primes counts one cold call as
    one."""
    proc = run_python(["-c", SIEVE_CALLS])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1"]


def test_base_primes_stop_at_their_table():
    """Every limit up to 2^15, which covers sqrt(10^9) and its power of
    two, is served in full; a limit past the table raises rather than
    cutting the list short."""
    assert base_primes(2**15).tolist() == trial_primes(0, 2**15)
    assert base_primes(1).tolist() == []
    with pytest.raises(ValueError, match="base primes"):
        base_primes(2**15 + 1)


def test_modulus_fits_int64():
    assert ResidueClass(2**63 - 1, 1).modulus == 2**63 - 1
    for q in (2**63, 10**21, 0, -4):
        with pytest.raises(ValueError, match="modulus"):
            ResidueClass(q, 1 if q > 0 else 0)


@settings(max_examples=40, deadline=None)
@given(lo=st.integers(0, 3000), width=st.integers(0, 400))
def test_sieve_matches_trial_division(lo, width):
    assert list(sieve_primes(lo, lo + width)) == trial_primes(lo, lo + width)


@settings(max_examples=60, deadline=None)
@given(segment=st.integers(8, 64),
       lo=st.one_of(st.sampled_from([0, 1, 2, 3]), st.integers(0, 3000)),
       width=st.one_of(st.integers(0, 3), st.integers(0, 600)))
@example(segment=8, lo=0, width=2).via("2 alone, added by hand")
@example(segment=8, lo=2, width=0).via("an empty window")
@example(segment=8, lo=3, width=16).via("an odd window one segment wide")
@example(segment=8, lo=1, width=49).via("an odd end, 49 = 7^2")
def test_odd_only_segments_match_trial_division(segment, lo, width):
    """Segments of a few odd numbers each put many segment ends inside
    the window; lo in {0, 1, 2, 3} puts 2 and 3 at its start."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sieve, "DEFAULT_SEGMENT", segment)
        primes = sieve_primes(lo, lo + width)
    assert primes.dtype == np.int64
    assert primes.tolist() == trial_primes(lo, lo + width)


@st.composite
def classes(draw):
    q = draw(st.integers(1, 60))
    return ResidueClass(q, draw(st.integers(0, q - 1)))


@settings(max_examples=150, deadline=None)
@given(segment=st.integers(8, 64), cls=classes(),
       lo=st.one_of(st.sampled_from([0, 1, 2, 3]), st.integers(0, 3000)),
       width=st.one_of(st.integers(0, 3), st.integers(0, 2000)))
@example(segment=8, cls=ResidueClass(3, 2), lo=0, width=40).via(
    "2 in a unit class of odd q, added by hand")
@example(segment=8, cls=ResidueClass(4, 2), lo=1, width=40).via(
    "even q and even a: 2 alone")
@example(segment=8, cls=ResidueClass(9, 3), lo=0, width=100).via(
    "a non-unit class holding its prime 3")
@example(segment=8, cls=ResidueClass(5, 0), lo=4, width=1).via(
    "a = 0: the prime is q")
@example(segment=8, cls=ResidueClass(60, 49), lo=100, width=2000).via(
    "step 60, r = 49 = 7^2")
@example(segment=8, cls=ResidueClass(59, 2), lo=0, width=150).via(
    "step 118, wider than the first windows")
def test_class_segments_match_trial_division(segment, cls, lo, width):
    """Segments of a few class members each put many segment ends inside
    the window; q runs over odd and even moduli and a over every residue,
    non-units and 0 among them."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sieve, "DEFAULT_SEGMENT", segment)
        primes = sieve_primes(lo, lo + width, cls)
    assert primes.dtype == np.int64
    assert primes.tolist() == [p for p in trial_primes(lo, lo + width)
                               if p % cls.modulus == cls.residue]


@pytest.mark.parametrize("q", [2**62 + 1, 2**63 - 1, 10**9 + 7])
def test_steps_wider_than_the_window_are_tested_alone(q):
    """A step past the window, or past int64, leaves one member at most
    in a window: 101 is the only prime of 101 mod q below 10^9."""
    for a, prime in ((101, [101]), (2, [2]), (100, []), (0, [])):
        cls = ResidueClass(q, a)
        assert sieve_primes(0, 1000, cls).tolist() == prime
        assert sieve_primes(1e7, 1.0002e7, cls).tolist() == []
    assert pi_ap(3e7, ResidueClass(q, 101)) == 1


@pytest.mark.parametrize("segment, cls, lo, hi", [
    (None, EVERYTHING, 1000, 30000), (None, ResidueClass(30, 7), 100, 30000),
    (64, EVERYTHING, 10, 3000), (8, ResidueClass(30, 7), 0, 3000),
    (64, EVERYTHING, 0, 3000), (None, EVERYTHING, 1, 2),
    (None, ResidueClass(5, 0), 0, 10), (None, EVERYTHING, 24, 28),
    (None, ResidueClass(30, 7), 24, 28)],
    ids=["one-segment", "one-class-segment", "segments", "class-segments",
         "segments-and-head", "head-2", "head-q", "empty-segment",
         "empty-one-member"])
def test_every_return_shape_matches_trial_division(segment, cls, lo, hi,
                                                   monkeypatch):
    """The sieve returns one segment with no head number as it was built,
    and joins the rest: several segments (DEFAULT_SEGMENT patched small),
    a head number alone (2, or q of a = 0), or none.  Each is int64 and
    C-contiguous, equals trial division, and owns its buffer or views one
    of its own size, so no caller keeps a larger buffer alive."""
    if segment is not None:
        monkeypatch.setattr(sieve, "DEFAULT_SEGMENT", segment)
    primes = sieve_primes(lo, hi, cls)
    assert primes.dtype == np.int64
    assert primes.flags.c_contiguous
    assert primes.base is None or primes.base.nbytes == primes.nbytes
    assert primes.tolist() == [p for p in trial_primes(lo, hi)
                               if p % cls.modulus == cls.residue]


def columns_in_class(columns, cls):
    keep = columns[0] % cls.modulus == cls.residue
    return [a[keep] for a in columns]


@pytest.mark.parametrize("cap,stored,lo,hi", [
    (2**12, 1024, 100, 900), (2**12, 1024, 2500.5, 3900),
    (2**12, 1024, 3000, 9000.5), (2**12, 1024, 5000, 5000.5),
    (2**16, 2**14, 100, 14000), (2**16, 2**14, 20000.5, 60000),
    (2**16, 2**14, 30000, 90000.5), (2**16, 2**14, 70000, 70000.5)],
    ids=["store", "past-store", "above-cap", "empty", "store-2^16",
         "past-store-2^16", "above-cap-2^16", "empty-2^16"])
def test_class_reads_equal_the_filtered_whole_read(cap, stored, lo, hi,
                                                   empty_stores,
                                                   monkeypatch):
    """Under a cap of 2^12 or 2^16, a class read that slices the store,
    starts past it or ends above the cap gives, column for column, the
    dtypes and bytes of Q's whole read with the class kept.  Under 2^12
    every read holds fewer events than RESIDUE_CROSSOVER, so its class
    masks take `%`; the store read under 2^16 holds about 1,600, which
    take the floor-division form."""
    monkeypatch.setattr(numfield, "STORE_BOUND", cap)
    psi_ap(stored)                      # the store holds (1, stored]
    for q in (1, 2, 3, 4, 6, 30, 49):
        for a in range(min(q, 8)):
            cls = ResidueClass(q, a)
            got = ideal_event_arrays(preset("Q"), lo, hi, cls)
            want = columns_in_class(ideal_event_arrays(preset("Q"), lo, hi),
                                    cls)
            assert [(c.dtype, c.tobytes()) for c in got] \
                == [(c.dtype, c.tobytes()) for c in want]
    q_field = preset("Q")
    assert numfield._stores[(q_field.coefficients, q_field.field_disc)][0] \
        == stored


def test_class_reads_above_the_cap_sieve_only_their_class(empty_stores,
                                                          monkeypatch):
    """A total above the cap hands its class to the sieve, so each class
    sieves its own progression rather than every odd number."""
    calls = []
    sieve_all = sieve.sieve_primes

    def recorded(lo, hi, cls=EVERYTHING):
        calls.append((hi, cls))
        return sieve_all(lo, hi, cls)

    monkeypatch.setattr(sieve, "sieve_primes", recorded)
    monkeypatch.setattr(numfield, "STORE_BOUND", 2**12)
    cls = ResidueClass(30, 7)
    assert pi_ap(20000, cls) == sum(1 for p in trial_primes(0, 20000)
                                    if p % 30 == 7)
    above = [c for hi, c in calls if hi > 2**12]
    assert above and set(above) == {cls}


# prime powers p^k, k >= 2, on which the test windows start or end
PRIME_POWERS = [4, 8, 9, 16, 25, 27, 32, 49, 121, 125, 128, 243, 256, 343,
                1024, 1331, 2187, 2197, 3125, 4096, 6561, 16807, 65536]


@pytest.mark.parametrize("n", PRIME_POWERS)
def test_merge_puts_prime_powers_in_order(n):
    """Windows that start or end on a prime power n: the powers merged
    into the sieved primes sit where trial division puts them, with and
    without a class (one that keeps n, one that drops it)."""
    windows = [(n - 1, n), (n, n), (n, n + 40), (max(1, n - 40), n),
               (max(1, n - 40), n + 40)]
    for lo, hi in windows:
        for cls in (EVERYTHING, ResidueClass(5, n % 5),
                    ResidueClass(6, (n + 1) % 6)):
            pos, expo, weights = weighed(event_arrays(lo, hi, cls))
            expect = [(k, *trial_prime_power(k)) for k in range(lo + 1, hi + 1)
                      if trial_prime_power(k) and k % cls.modulus
                      == cls.residue]
            assert list(zip(pos.tolist(), expo.tolist())) \
                == [(k, m) for k, _, m in expect]
            base = np.array([p for _, p, _ in expect], dtype=np.float64)
            assert np.array_equal(weights, np.log(base))


def test_prime_power_events_to_ten():
    pos, expo, weights = q_events(1, 10)
    assert pos == [2, 3, 4, 5, 7, 8, 9]
    assert expo == [1, 1, 2, 1, 1, 3, 2]
    expected = [math.log(p) for p in [2, 3, 2, 5, 7, 2, 3]]
    assert weights == pytest.approx(expected, rel=1e-15)
    assert (pos[2], expo[2]) == (4, 2)
    assert weights[2] == pytest.approx(math.log(2), rel=1e-15)


def test_events_respect_residue_class():
    positions = q_events(1, 100, ResidueClass(4, 1))[0]
    assert 5 in positions and 9 in positions and 13 in positions \
        and 97 in positions
    assert all(p % 4 == 1 for p in positions)


def test_even_prime_powers_are_powers_of_two():
    assert q_events(1, 10, ResidueClass(2, 0))[0] == [2, 4, 8]


def test_psi_small_values():
    assert psi_ap(10) == pytest.approx(
        3 * math.log(2) + 2 * math.log(3) + math.log(5) + math.log(7))
    assert psi_ap(1.5) == 0.0
    assert psi_ap(1.5, ResidueClass(7, 3)) == 0.0
    assert psi_ap(10, ResidueClass(2, 0)) == pytest.approx(3 * math.log(2))


def test_pi_small_values():
    assert pi_ap(100, ResidueClass(4, 1)) == 11
    assert pi_ap(100, ResidueClass(4, 3)) == 13
    assert pi_ap(1) == 0


def test_totals_reject_nan():
    for total in (psi_ap, pi_ap):
        with pytest.raises(ValueError, match="x must be >= 0"):
            total(math.nan)


# psi(1e8; 30, a) for the units a mod 30, recorded from a math.fsum total
PSI_1E8_MOD_30 = {1: 12500396.052297065, 7: 12499988.766029537,
                  11: 12500808.224994626, 13: 12497040.625280749,
                  17: 12499143.984889342, 19: 12503524.041703759,
                  23: 12501666.09971179, 29: 12495621.698279563}


def test_psi_to_1e8_stays_under_65_mb():
    """psi_ap(1e8) grows Q's store to 2^24 a piece at a time and reads the
    rest in reads of READ_PIECE norms, each built in its final layout,
    weighed and dropped before the next: the child peaks under 65 MB
    (39.2 MB on a 2-core host, 40.7 MB while the sieve built each read
    through copy-only temporaries, 48.3 MB with int64 norms in one store
    column, 52 MB while the store kept a weights column), where reads of
    2^24 norms took 68 MB, building every
    event at once about 460 MB, building each read through wider
    temporaries 128 MB, and keeping a bases column and the previous read
    of pi_ap 89 MB.  Its totals are pinned: pi(10^8) = 5761455, and
    psi, whole and mod 30, to the bit of the math.fsum totals they were
    recorded from."""
    proc = run_within_rss(
        "from primelab import ResidueClass, pi_ap, psi_ap\n"
        "print(pi_ap(1e8), repr(psi_ap(1e8)))\n"
        "for a in (1, 7, 11, 13, 17, 19, 23, 29):\n"
        "    print(a, repr(psi_ap(1e8, ResidueClass(30, a))))", 65)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "5761455 99998242.79662678"
    assert {int(a): float(psi) for a, psi in map(str.split, lines[1:])} \
        == PSI_1E8_MOD_30


def test_cold_psi_to_1e8_stays_under_45_mb():
    """A cold psi_ap(1e8) grows Q's store to 2^24 one piece of READ_PIECE
    norms at a time, at 6 B per event, and copies no earlier piece, its
    weights made one read at a time as they are summed: the child peaks
    under 45 MB (39.3 MB on a 2-core host, 40.7 MB while the sieve built
    each read through copy-only temporaries), where one store at 10 B per
    event, grown in one build and by concatenation, peaked at 48 MB, and
    one that kept a weights column, 18 B per event, at 52 MB."""
    proc = run_within_rss(
        "from primelab import psi_ap\nprint(repr(psi_ap(1e8)))", 45)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["99998242.79662678"]


@LINUX_ONLY
def test_warm_psi_to_1e8_faults_in_no_fresh_pages():
    """A second psi_ap(1e8) in one process reuses the memory the first
    freed: under 3,000 minor page faults (577 on a 2-core host), where
    the sieve's copy-only temporaries, a scaled and a shifted copy of each
    segment's indices and the join of a read's one segment, were mapped
    afresh on every read, 27,300 faults (about 680 per read of 2^21
    norms).  Either copy alone is enough to fault.  The total is unchanged."""
    proc, faults = run_counting_faults(
        "from primelab import psi_ap\npsi_ap(1e8)",
        "print(repr(psi_ap(1e8)))")
    assert proc.returncode == 0, proc.stderr
    assert faults < 3000
    assert proc.stdout.split() == ["99998242.79662678"]


def test_pi_partition_at_four():
    for x in (2, 10, 97, 1000, 10**4):
        assert pi_ap(x, ResidueClass(4, 1)) + pi_ap(x, ResidueClass(4, 3)) \
            + 1 == pi_ap(x)


def test_event_partition_is_exact():
    """Splitting the event set over residue classes changes nothing:
    the per-class arrays reassemble to the full set and the fsum-based
    psi values agree exactly."""
    x = 10**4
    full_pos, _, full_w = weighed(event_arrays(1, x))
    for q in (1, 2, 3, 6, 10):
        parts_pos, parts_w = [], []
        for a in range(q):
            pos, _, w = weighed(event_arrays(1, x, ResidueClass(q, a)))
            parts_pos.append(pos)
            parts_w.append(w)
        pos = np.concatenate(parts_pos)
        w = np.concatenate(parts_w)
        order = np.argsort(pos)
        assert np.array_equal(pos[order], full_pos)
        assert np.array_equal(w[order], full_w)
        total = math.fsum(np.concatenate(parts_w))
        assert total == psi_ap(x)


def test_chebyshev_envelope():
    pos, _, w = weighed(event_arrays(1, 10**6))
    psi = np.cumsum(w)
    keep = pos >= 100
    x = pos[keep].astype(np.float64)
    envelope = 2 * np.sqrt(x) * np.log(x) ** 2
    # check on both sides of every jump
    assert np.all(np.abs(psi[keep] - x) <= envelope)
    assert np.all(np.abs(psi[keep] - w[keep] - x) <= envelope)


def test_residue_class_validation():
    with pytest.raises(ValueError):
        ResidueClass(0, 0)
    with pytest.raises(ValueError):
        ResidueClass(4, 4)
    assert ResidueClass(4, 3).is_unit
    assert not ResidueClass(4, 2).is_unit
    # a float modulus or residue was once kept, and its class read empty
    for q, a in ((30, 7.5), (30.0, 7), (30, "7")):
        with pytest.raises(TypeError):
            ResidueClass(q, a)
    assert ResidueClass(np.int64(30), np.int64(7)).is_unit


def test_events_require_lo_at_least_one():
    with pytest.raises(ValueError):
        q_events(0, 10)


def test_euler_phi_on_both_sides_of_the_sympy_switch():
    """Above 2^32 phi comes from sympy, below from trial division; a
    62-bit prime, where trial division would take minutes, is checked
    through the CLI in test_cli."""
    from primelab.sieve import euler_phi
    assert euler_phi(2**62) == 2**61
    assert euler_phi(2**32 + 1) == 640 * 6700416      # 641 * 6700417
    # 2^32 - 1 = 3 * 5 * 17 * 257 * 65537, just below the switch
    assert euler_phi(2**32 - 1) == 2 * 4 * 16 * 256 * 65536
