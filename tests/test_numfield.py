import math

import numpy as np
import pytest

from primelab import (CapacityError, NumberFieldSpec, UnsupportedPrimeError,
                      cramer_window_scan, dedekind_index_test,
                      factor_degrees_mod_p, field_source, fppoly,
                      kronecker_symbol, numfield, pi_K, pi_ap,
                      poly_discriminant, preset, preset_names,
                      prime_ideal_events, psi_K, psi_ap,
                      quadratic_splitting_oracle, sieve_primes,
                      splitting_type)
from primelab.numfield import ideal_event_arrays

from conftest import is_prime_trial, run_python, sieve_ceiling

QUADRATIC_PRESETS = {
    "Q(i)": -4,
    "Q(sqrt-3)": -3,
    "Q(sqrt5)": 5,
    "Q(sqrt2)": 8,
    "Q(sqrt-2)": -8,
}


# --- discriminants -----------------------------------------------------

def test_discriminant_quadratics():
    assert poly_discriminant([1, 0, 1]) == -4       # x^2 + 1
    assert poly_discriminant([-1, -1, 1]) == 5      # x^2 - x - 1
    assert poly_discriminant([-3, 1]) == 1          # x - 3


def test_discriminant_matches_b2_minus_4c():
    for b in range(-5, 6):
        for c in range(-5, 6):
            assert poly_discriminant([c, b, 1]) == b * b - 4 * c


def test_discriminant_cubic_depressed():
    # disc(x^3 + px + q) = -4p^3 - 27q^2
    for p in range(-4, 5):
        for q in range(-4, 5):
            assert poly_discriminant([q, p, 0, 1]) == -4 * p**3 - 27 * q**2


def test_discriminant_requires_monic():
    with pytest.raises(ValueError):
        poly_discriminant([1, 2])
    with pytest.raises(ValueError):
        poly_discriminant([1])


# --- factorization mod p and the index test ----------------------------

def test_factor_degrees_gaussian_poly():
    assert factor_degrees_mod_p([1, 0, 1], 5) == [(1, 1), (1, 1)]
    assert factor_degrees_mod_p([1, 0, 1], 3) == [(2, 1)]
    assert factor_degrees_mod_p([1, 0, 1], 2) == [(1, 2)]


def test_factor_degrees_sum_to_degree():
    coeffs = [3, 1, 4, 1, 5, 1]  # arbitrary monic quintic
    for p in (2, 3, 5, 7, 11, 101):
        assert sum(d * m for d, m in factor_degrees_mod_p(coeffs, p)) == 5


def test_dedekind_index_test():
    assert dedekind_index_test([1, 0, 1], 2)        # Z[i] is maximal
    assert dedekind_index_test([1, 0, 1], 5)
    assert not dedekind_index_test([-5, 0, 1], 2)   # index 2 in Q(sqrt5)


def test_dedekind_index_test_closed_form():
    """Z[k sqrt d] has index k in O_K for d = 2, 3 mod 4 and 2k for
    d = 1 mod 4 (d squarefree), so p divides the index of x^2 - d k^2
    exactly when p | k, or p = 2 and d = 1 mod 4."""
    squarefree = [d for d in range(-30, 31) if d not in (0, 1)
                  and all(d % (r * r) for r in range(2, 6))]
    for d in squarefree:
        for k in range(1, 7):
            for p in (2, 3, 5, 7, 11, 13):
                divides = k % p == 0 or (p == 2 and d % 4 == 1)
                assert dedekind_index_test([-d * k * k, 0, 1], p) \
                    == (not divides), (d, k, p)


def test_non_monogenic_polynomial_rejected_without_disc():
    with pytest.raises(ValueError, match="field_disc"):
        NumberFieldSpec.from_poly([-5, 0, 1])


def test_non_monogenic_polynomial_with_disc():
    fld = NumberFieldSpec.from_poly([-5, 0, 1], field_disc=5)
    assert fld.bad_primes == frozenset({2})
    with pytest.raises(UnsupportedPrimeError):
        splitting_type(fld, 2)
    with pytest.raises(UnsupportedPrimeError):
        prime_ideal_events(fld, 1, 10)
    # odd primes still split fine and match the maximal-order oracle
    assert splitting_type(fld, 11).factors \
        == quadratic_splitting_oracle(5, 11).factors


def test_reducible_polynomial_rejected():
    with pytest.raises(ValueError, match="reducible"):
        NumberFieldSpec.from_poly([-1, 0, 1])       # x^2 - 1


def test_field_disc_must_divide():
    with pytest.raises(ValueError):
        NumberFieldSpec.from_poly([1, 0, 1], field_disc=3)


# --- presets ------------------------------------------------------------

@pytest.mark.parametrize("name", preset_names())
def test_preset_equals_validated_field(name):
    """Each preset, read from its file line, is the field sympy derives
    from its polynomial: degree, signed disc(f), d_K and no index prime."""
    fld = preset(name)
    assert fld == NumberFieldSpec.from_poly(fld.coefficients, name=name)


@pytest.mark.parametrize("m", [5, 7, 8, 12])
def test_cyclotomic_preset_discriminants(m):
    """d_K of Q(zeta_m) = (-1)^(phi/2) m^phi / prod_{p | m} p^(phi/(p-1))."""
    phi = sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)
    d = (-1) ** (phi // 2) * m**phi
    for p in range(2, m + 1):
        if m % p == 0 and is_prime_trial(p):
            d //= p ** (phi // (p - 1))
    fld = preset(f"cyclo{m}")
    assert (fld.degree, fld.poly_disc, fld.field_disc) == (phi, d, abs(d))


def test_presets_and_field_commands_do_not_import_sympy():
    """sympy serves user polynomials only: loading the presets, counting
    on every one and running the field CLI commands leave it unloaded."""
    argvs = [
        ["zeros", "--field", "Q(i)", "--T", "100"],
        ["field-scan", "--field", "Q(i)", "--x-lo", "1000", "--x-hi", "1e4"],
        ["bt", "--field", "cyclo7", "--x", "10000", "--h", "400"],
        ["explicit", "--T", "100", "--field", "Q(i)", "--x-lo", "50.5",
         "--x-hi", "500.5", "--x-step", "50"],
        ["smoothed", "--x", "10000", "--T", "100", "--h", "200",
         "--eps", "0.5"],
    ]
    proc = run_python(["-c", "import contextlib, io, sys\n"
                       "from primelab import cli, numfield\n"
                       "for fld in numfield.load_presets().values():\n"
                       "    numfield.pi_K(fld, 1000)\n"
                       "codes = []\n"
                       f"for argv in {argvs!r}:\n"
                       "    with contextlib.redirect_stdout(io.StringIO()):\n"
                       "        codes.append(cli.main(argv))\n"
                       "print(codes, [m for m in sys.modules"
                       " if m.split('.')[0] == 'sympy'])\n"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{[0] * len(argvs)} []\n", proc.stderr


# --- splitting types ----------------------------------------------------

def test_gaussian_splitting():
    qi = preset("Q(i)")
    assert splitting_type(qi, 5).factors == ((1, 1), (1, 1))
    assert splitting_type(qi, 3).factors == ((2, 1),)
    assert splitting_type(qi, 2).factors == ((1, 2),)


def test_splitting_invariants_all_presets():
    for name in preset_names():
        fld = preset(name)
        for p in sieve_primes(1, 1000):
            st = splitting_type(fld, int(p))
            assert st.degree_sum == fld.degree
            for k in range(1, fld.degree + 1):
                assert st.norm_count(k) <= fld.degree / k


def test_quadratic_oracle_agreement_small():
    for name, d in QUADRATIC_PRESETS.items():
        fld = preset(name)
        assert fld.poly_disc == d
        for p in sieve_primes(1, 2000):
            assert splitting_type(fld, int(p)).factors \
                == quadratic_splitting_oracle(d, int(p)).factors, (name, p)


def test_oracle_cases():
    assert quadratic_splitting_oracle(-4, 13).factors == ((1, 1), (1, 1))
    assert quadratic_splitting_oracle(-4, 7).factors == ((2, 1),)
    assert quadratic_splitting_oracle(-4, 2).factors == ((1, 2),)
    with pytest.raises(ValueError):
        quadratic_splitting_oracle(6, 5)            # not fundamental
    with pytest.raises(ValueError):
        quadratic_splitting_oracle(-12, 5)


def test_kronecker_symbol_euler_criterion():
    for p in sieve_primes(2, 200):
        p = int(p)
        for a in range(1, p):
            euler = pow(a, (p - 1) // 2, p)
            expected = 1 if euler == 1 else -1
            assert kronecker_symbol(a, p) == expected


def test_kronecker_symbol_multiplicative():
    for a in range(-20, 21):
        for b in range(-20, 21):
            for n in (3, 5, 7, 9, 15):
                assert kronecker_symbol(a * b, n) \
                    == kronecker_symbol(a, n) * kronecker_symbol(b, n)


# --- events and counters ------------------------------------------------

def test_gaussian_events_to_twenty():
    qi = preset("Q(i)")
    events = prime_ideal_events(qi, 1, 20)
    assert [e.position for e in events] \
        == [2, 4, 5, 5, 8, 9, 13, 13, 16, 17, 17]
    expected_w = [math.log(v) for v in [2, 2, 5, 5, 2, 9, 13, 13, 2, 17, 17]]
    assert [e.weight for e in events] == pytest.approx(expected_w, rel=1e-14)


def test_gaussian_no_ideal_of_norm_three():
    assert prime_ideal_events(preset("Q(i)"), 2.5, 3.5) == []


def test_gaussian_counts_at_twenty():
    qi = preset("Q(i)")
    assert pi_K(qi, 20) == 8
    assert psi_K(qi, 20) == pytest.approx(
        4 * math.log(2) + 2 * math.log(5) + math.log(9)
        + 2 * math.log(13) + 2 * math.log(17))
    assert pi_K(qi, 1.5) == 0


def test_degree_one_preset_reduces_to_rational_counters():
    q = preset("Q")
    for x in (10, 100.5, 5000, 10**5):
        assert psi_K(q, x) == psi_ap(x)
        assert pi_K(q, x) == pi_ap(x)


def test_fast_path_matches_full_splitting():
    """Root counting for large primes must agree with the full
    factorization route."""
    fld = preset("cyclo12")
    pos, _, _, _ = ideal_event_arrays(fld, 1100, 1300)
    for p in sieve_primes(1100, 1300):
        st = splitting_type(fld, int(p))
        assert st.norm_count(1) == int(np.sum(pos == p))


def test_prime_ideal_theorem_envelope():
    for name in ("Q", "Q(i)", "cyclo5"):
        fld = preset(name)
        for x in (10**3, 10**4, 10**5):
            err = abs(psi_K(fld, x) - x)
            scale = math.sqrt(x) * (fld.degree * math.log(x)
                                    + fld.log_disc) * math.log(x)
            assert err / scale < 2.0, (name, x, err / scale)


def test_split_prime_stress_window():
    """A split prime contributes degree-many ideals at one position."""
    qi = preset("Q(i)")
    p = next(int(p) for p in sieve_primes(10**6 - 10**3, 10**6)
             if p % 4 == 1)
    assert is_prime_trial(p)
    events = prime_ideal_events(qi, p - 1, p + 1)
    assert [e.position for e in events] == [p, p]


def test_event_enumeration_against_brute_force():
    """Every ideal norm <= 200 for Q(sqrt-3), checked per prime from the
    splitting type by hand."""
    fld = preset("Q(sqrt-3)")
    expected = []
    for p in sieve_primes(1, 200):
        p = int(p)
        sym = kronecker_symbol(-3, p)
        if sym == 1:
            shapes = [(1, 2)]    # (residue degree, ideal count)
        elif sym == -1:
            shapes = [(2, 1)]
        else:
            shapes = [(1, 1)]
        for f, count in shapes:
            norm = p**f
            while norm <= 200:
                expected.extend([norm] * count)
                norm *= p**f
    events = prime_ideal_events(fld, 1, 200)
    assert sorted(expected) == [e.position for e in events]


# --- the event store ----------------------------------------------------

@pytest.mark.parametrize("name", preset_names())
def test_store_growth_matches_fresh_build(name, empty_stores, monkeypatch):
    """Growing a field's store by doubling its bound gives the arrays of
    one fresh build, and builds each norm range once: at most one root
    count per prime up to the final bound."""
    fld = preset(name)
    calls = []
    count_roots = fppoly.count_roots

    def counted(f, p):
        calls.append(p)
        return count_roots(f, p)

    monkeypatch.setattr(fppoly, "count_roots", counted)
    bound = 1024
    while bound <= 2**15:
        pi_K(fld, bound)
        bound *= 2
    grown = numfield._cached_events(fld, 1, 2**15)
    assert len(calls) <= len(sieve_primes(1, 2**15))
    monkeypatch.setattr(numfield, "_stores", {})
    fresh = numfield._cached_events(fld, 1, 2**15)
    for a, b in zip(grown, fresh):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


def test_field_queries_reject_nan_and_inverted_ranges():
    qi = preset("Q(i)")
    for query in (psi_K, pi_K, field_source):
        with pytest.raises(ValueError):
            query(qi, math.nan)
    with pytest.raises(ValueError):
        cramer_window_scan(1000, math.nan, 4.0, qi)
    with pytest.raises(ValueError):
        ideal_event_arrays(qi, 10, 5)


# --- capacity ceiling ---------------------------------------------------

def test_field_queries_honour_ceiling(empty_stores):
    """Under a ceiling of 100 an empty store grows only to 100, and every
    query past 100 raises, also once the store already covers it."""
    qi = preset("Q(i)")
    key = (qi.coefficients, qi.field_disc)
    expected = pi_K(qi, 100)
    numfield._stores.clear()
    for bound in (100, 1024):       # empty store, then one grown past 100
        with sieve_ceiling(100):
            assert pi_K(qi, 100) == expected
            assert numfield._stores[key][0] == bound
            for query in (pi_K, psi_K):
                with pytest.raises(CapacityError):
                    query(qi, 1000)
            for query in (ideal_event_arrays, prime_ideal_events):
                with pytest.raises(CapacityError):
                    query(qi, 1, 1000)
        pi_K(qi, 1000)              # grows the store to 1024


def test_field_source_infinite_bound_is_capacity_error():
    """In a child process, so that a hang fails instead of stalling."""
    proc = run_python(["-c", "import math, primelab\n"
                       "try:\n"
                       "    primelab.field_source(primelab.preset('Q(i)'),"
                       " math.inf)\n"
                       "except primelab.CapacityError:\n"
                       "    raise SystemExit(4)\n"])
    assert proc.returncode == 4, proc.stderr
