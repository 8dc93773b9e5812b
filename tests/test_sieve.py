import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from primelab import (CapacityError, ResidueClass, pi_ap, preset, psi_ap,
                      sieve_primes)
from primelab.numfield import ideal_event_arrays
from primelab.sieve import (DEFAULT_CEILING, EVERYTHING, check_capacity,
                            event_arrays)

from conftest import run_within_rss, sieve_ceiling
from oracles import trial_primes


def q_events(lo, hi, cls=EVERYTHING):
    """Q's (positions, bases, exponents, weights) in (lo, hi] and cls, as
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


def test_modulus_fits_int64():
    assert ResidueClass(2**63 - 1, 1).modulus == 2**63 - 1
    for q in (2**63, 10**21, 0, -4):
        with pytest.raises(ValueError, match="modulus"):
            ResidueClass(q, 1 if q > 0 else 0)


@settings(max_examples=40, deadline=None)
@given(lo=st.integers(0, 3000), width=st.integers(0, 400))
def test_sieve_matches_trial_division(lo, width):
    assert list(sieve_primes(lo, lo + width)) == trial_primes(lo, lo + width)


def test_prime_power_events_to_ten():
    pos, base, expo, weights = q_events(1, 10)
    assert pos == [2, 3, 4, 5, 7, 8, 9]
    assert base == [2, 3, 2, 5, 7, 2, 3]
    assert expo == [1, 1, 2, 1, 1, 3, 2]
    expected = [math.log(p) for p in [2, 3, 2, 5, 7, 2, 3]]
    assert weights == pytest.approx(expected, rel=1e-15)
    assert (pos[2], base[2], expo[2]) == (4, 2, 2)
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


def test_psi_to_1e8_stays_under_200_mb():
    """psi_ap(1e8) reads (1, 1e8] in bounded reads: the child peaks under
    200 MB, where building every event at once took about 460 MB."""
    proc = run_within_rss("from primelab import psi_ap\n"
                          "print(repr(psi_ap(1e8)))", 200)
    assert proc.returncode == 0, proc.stderr
    x = 1e8
    assert abs(float(proc.stdout) - x) < 2 * math.sqrt(x) * math.log(x) ** 2


def test_pi_partition_at_four():
    for x in (2, 10, 97, 1000, 10**4):
        assert pi_ap(x, ResidueClass(4, 1)) + pi_ap(x, ResidueClass(4, 3)) \
            + 1 == pi_ap(x)


def test_event_partition_is_exact():
    """Splitting the event set over residue classes changes nothing:
    the per-class arrays reassemble to the full set and the fsum-based
    psi values agree exactly."""
    x = 10**4
    full_pos, _, _, full_w = event_arrays(1, x)
    for q in (1, 2, 3, 6, 10):
        parts_pos, parts_w = [], []
        for a in range(q):
            pos, _, _, w = event_arrays(1, x, ResidueClass(q, a))
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
    pos, _, _, w = event_arrays(1, 10**6)
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
