import functools
import math
from types import SimpleNamespace

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from primelab import (CapacityError, NumberFieldSpec, UnsupportedPrimeError,
                      bt_check_ap, bt_check_field, cramer_window_scan,
                      dedekind_index_test, field_source, fppoly, numfield,
                      pi_K, pi_ap, poly_discriminant, preset, preset_names,
                      psi_K, psi_ap, ResidueClass, sieve, sieve_primes,
                      splitting_type, splitting_types, window_events)
from primelab.fppoly import factor_degree_multiset
from primelab.numfield import first_power_count, ideal_event_arrays
from primelab.sieve import EVERYTHING, base_primes

from conftest import (run_python, run_within_rss, sieve_ceiling, traced_peak,
                      weighed)
from oracles import (cyclotomic_splitting, is_prime_trial, kronecker_symbol,
                     quadratic_splitting, trial_prime_power, trial_primes)

QUADRATIC_PRESETS = {
    "Q(i)": -4,
    "Q(sqrt-3)": -3,
    "Q(sqrt5)": 5,
    "Q(sqrt2)": 8,
    "Q(sqrt-2)": -8,
}


def bases_and_degrees(positions, exponents):
    """Each event's base p and residue degree f, from trial division of
    its norm p^k: f = k / m for its exponent m, which must divide k."""
    bases, degrees = [], []
    for n, m in zip(positions.tolist(), exponents.tolist()):
        p, k = trial_prime_power(n)
        assert k % m == 0, (n, m)
        bases.append(p)
        degrees.append(k // m)
    return np.array(bases, np.int64), np.array(degrees, np.int64)


def assert_weights_are_f_log_p(weights, bases, degrees):
    """An event's weight is f log p, to the bit."""
    assert np.array_equal(weights,
                          degrees * np.log(bases.astype(np.float64)))


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
    assert factor_degree_multiset([1, 0, 1], 5) == [(1, 1), (1, 1)]
    assert factor_degree_multiset([1, 0, 1], 3) == [(2, 1)]
    assert factor_degree_multiset([1, 0, 1], 2) == [(1, 2)]


def test_factor_degrees_sum_to_degree():
    coeffs = [3, 1, 4, 1, 5, 1]  # arbitrary monic quintic
    for p in (2, 3, 5, 7, 11, 101):
        assert sum(d * m for d, m in factor_degree_multiset(coeffs, p)) == 5


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
        ideal_event_arrays(fld, 1, 10)
    # odd primes still split fine and match the maximal-order oracle
    assert splitting_type(fld, 11).factors == quadratic_splitting(5, 11)


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
    """sympy and fppoly serve user polynomials only: loading the presets,
    splitting each one's ramified primes, counting on every one below and
    above the store cap and running the field CLI commands call no fppoly
    function and leave sympy unloaded."""
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
                       "from primelab import cli, fppoly, numfield\n"
                       "def refuse(*args):\n"
                       "    raise AssertionError('a preset called fppoly')\n"
                       "for name in ('count_roots', 'degree_counts',"
                       " 'factor_degree_multiset'):\n"
                       "    setattr(fppoly, name, refuse)\n"
                       "fields = numfield.load_presets().values()\n"
                       "for fld in fields:\n"
                       "    numfield.pi_K(fld, 1000)\n"
                       "    numfield.splitting_types(fld, [p for p in"
                       " (2, 3, 5, 7) if fld.field_disc % p == 0])\n"
                       "codes = []\n"
                       f"for argv in {argvs!r}:\n"
                       "    with contextlib.redirect_stdout(io.StringIO()):\n"
                       "        codes.append(cli.main(argv))\n"
                       "numfield.STORE_BOUND = 2**12\n"
                       "for fld in fields:\n"
                       "    numfield.pi_K(fld, 10**4)   # 2 reads past cap\n"
                       "print(codes, [m for m in sys.modules"
                       " if m.split('.')[0] == 'sympy'])\n"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{[0] * len(argvs)} []\n", proc.stderr


@pytest.mark.parametrize("line,message", [
    ("Q(i); 2; -4; 1 0; 4; 2", "line 3: a generator of H is not a unit "
                                "mod 4"),
    ("Q(i); 2; -4; 1 0; 5;", r"line 3: n_K = 2 is not phi\(5\)/\|H\|"),
    ("Q(sqrt5); 2; 5; -1 -1; 5; 2", r"line 3: n_K = 2 is not phi\(5\)/"),
], ids=["non-unit", "conductor", "subgroup"])
def test_presets_with_a_wrong_subgroup_are_refused(line, message, tmp_path,
                                                   monkeypatch):
    """A preset line whose generators are not units mod m, or whose
    degree is not phi(m)/|H|, raises ValueError naming its line."""
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "field_presets.txt").write_text(
        f"# header\nQ; 1; 1; -1; 1;\n{line}\n")
    monkeypatch.setattr(numfield, "resources",
                        SimpleNamespace(files=lambda package: tmp_path))
    with pytest.raises(ValueError, match=f"^preset {message}"):
        numfield.load_presets()


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
                assert [f for f, _ in st.factors].count(k) <= fld.degree / k


def test_quadratic_oracle_agreement_small():
    for name, d in QUADRATIC_PRESETS.items():
        fld = preset(name)
        assert fld.poly_disc == d
        for p in sieve_primes(1, 2000):
            assert splitting_type(fld, int(p)).factors \
                == quadratic_splitting(d, int(p)), (name, p)


@pytest.mark.parametrize("m", [5, 7, 8, 12])
def test_cyclotomic_oracle_agreement(m, empty_stores):
    """Q(zeta_m) against the order-of-p oracle: splitting_type for
    p <= 1e4, one batched splitting_types call for every p <= 1e5, and
    every event of the built store up to norm 1e5 with its residue
    degree, which covers the N_1 lanes, the full-pattern lanes and the
    ramified primes; pi_K on a grid follows from it."""
    fld = preset(f"cyclo{m}")
    primes = [int(p) for p in sieve_primes(1, 10**5)]
    oracle = {p: cyclotomic_splitting(m, p) for p in primes}
    for p in primes[:len(sieve_primes(1, 10**4))]:
        assert splitting_type(fld, p).factors == oracle[p], p
    for st in splitting_types(fld, primes):
        assert st.factors == oracle[st.prime], st.prime
    expected = sorted((p ** (f * k), p, f, k)
                      for p in primes for f, _ in oracle[p]
                      for k in range(1, 18) if p ** (f * k) <= 10**5)
    pos, expo, weights = ideal_event_arrays(fld, 1, 10**5)
    base, deg = bases_and_degrees(pos, expo)
    assert_weights_are_f_log_p(weights, base, deg)
    assert sorted(zip(*(a.tolist() for a in (pos, base, deg, expo)))) \
        == expected
    for x in (10, 100, 1000, 10**4, 10**5):
        assert pi_K(fld, x) == sum(1 for n, _, _, k in expected
                                   if k == 1 and n <= x)


@pytest.mark.parametrize("name", preset_names())
def test_preset_table_matches_the_polynomial_to_1e6(name):
    """A preset's splitting table, built from its conductor and subgroup,
    against its polynomial for every p <= 10^6: the unramified primes
    against one batched degree_counts call, and each ramified prime
    against sympy's factorisation mod p."""
    fld = preset(name)
    types = splitting_types(fld, sieve_primes(1, 10**6))
    unramified = [st for st in types if fld.poly_disc % st.prime]
    counts = fppoly.degree_counts(
        fld.coefficients, [st.prime for st in unramified], fld.degree)
    assert [st.factors for st in unramified] == [
        tuple((d, 1) for d, c in enumerate(row, 1) for _ in range(c))
        for row in counts.tolist()]
    ramified = [st for st in types if fld.poly_disc % st.prime == 0]
    assert [st.prime for st in ramified] == [
        p for p in range(2, fld.field_disc + 1)
        if fld.field_disc % p == 0 and is_prime_trial(p)]
    x = sympy.Symbol("x")
    for st in ramified:
        factors = sympy.Poly(fld.coefficients[::-1], x,
                             modulus=st.prime).factor_list()[1]
        assert st.factors == tuple(sorted((g.degree(), e)
                                          for g, e in factors)), st.prime


def _next_prime(n):
    return int(sympy.nextprime(n))


# small primes; primes near 2^30, where from degree 7 or 8 on a sum of
# n + 1 products overflows int64 and the lanes run on Python ints; primes
# above 2^31.5, where one product overflows
PRIMES = st.one_of(st.integers(1, 60).map(_next_prime),
                   st.integers(2**30 - 10**5, 2**30 + 10**5).map(_next_prime),
                   st.integers(2**32, 2**40).map(_next_prime))


@settings(max_examples=120, deadline=None)
@given(lower=st.lists(st.integers(-10**4, 10**4), min_size=1, max_size=12),
       primes=st.lists(PRIMES, min_size=1, max_size=4))
@example(lower=[3, -1, 4, 1, -5, 9, 2, -6, 5, 3, 5], primes=[1073741827])
# x^10 = -(1 + x + ... + x^9) mod Phi_11: squaring it sums ten products
# of (p - 1)^2
@example(lower=[1] * 10, primes=[1073741789, 1073741827])
@example(lower=[1, 1, 0, 1, 0, 0, 7, 1], primes=[2, 4294967311])
def test_kernel_matches_sympy_factorisation(lower, primes):
    """The Frobenius kernel against sympy's factorisation over F_p, which
    shares no code with fppoly: factor_degree_multiset per prime, and one
    batched degree_counts and count_roots call over the primes where f is
    squarefree."""
    f = lower + [1]
    n = len(lower)
    x = sympy.Symbol("x")
    squarefree, expected_counts = [], []
    for p in primes:
        factors = sympy.Poly(f[::-1], x, modulus=p).factor_list()[1]
        expected = sorted((g.degree(), mult) for g, mult in factors)
        assert factor_degree_multiset(f, p) == expected, (f, p)
        if all(mult == 1 for _, mult in expected):
            squarefree.append(p)
            expected_counts.append([sum(1 for d, _ in expected if d == k)
                                    for k in range(1, n + 1)])
    if squarefree:
        lanes = np.array(squarefree, dtype=object)
        counts = fppoly.degree_counts(f, lanes, n)
        assert counts.tolist() == expected_counts, (f, squarefree)
        assert fppoly.count_roots(f, lanes).tolist() \
            == [row[0] for row in expected_counts], (f, squarefree)


def test_root_counts_are_distinct_roots_where_f_is_not_squarefree():
    """count_roots (top 1 of degree_counts) needs no squarefree f: it is
    the degree of gcd(x^p - x, f), the number of distinct roots of f mod
    p, which a brute-force evaluation at every residue checks at each
    prime p < 5000 dividing disc f, for 300 random monic f of degree 2-7."""
    rng = np.random.default_rng(19)
    small = trial_primes(1, 5000)
    x = sympy.Symbol("x")
    pairs = 0
    for _ in range(300):
        f = rng.integers(-6, 7, size=int(rng.integers(2, 8))).tolist() + [1]
        disc = int(sympy.discriminant(sympy.Poly(f[::-1], x)))
        lanes = [p for p in small if disc % p == 0]
        expected = []
        for p in lanes:
            values = np.zeros(p, dtype=np.int64)
            for c in reversed(f):               # Horner at every residue
                values = (values * np.arange(p) + c) % p
            expected.append(int(np.count_nonzero(values == 0)))
        got = fppoly.count_roots(f, np.array(lanes, dtype=np.int64))
        assert got.tolist() == expected, (f, lanes)
        pairs += len(lanes)
    assert pairs > 500


def test_oracle_cases():
    assert quadratic_splitting(-4, 13) == ((1, 1), (1, 1))
    assert quadratic_splitting(-4, 7) == ((2, 1),)
    assert quadratic_splitting(-4, 2) == ((1, 2),)
    with pytest.raises(ValueError):
        quadratic_splitting(6, 5)                   # not fundamental
    with pytest.raises(ValueError):
        quadratic_splitting(-12, 5)


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
    pos, expo, weights = ideal_event_arrays(qi, 1, 20)
    base, deg = bases_and_degrees(pos, expo)
    assert pos.tolist() == [2, 4, 5, 5, 8, 9, 13, 13, 16, 17, 17]
    assert base.tolist() == [2, 2, 5, 5, 2, 3, 13, 13, 2, 17, 17]
    assert deg.tolist() == [1, 1, 1, 1, 1, 2, 1, 1, 1, 1, 1]
    assert expo.tolist() == [1, 2, 1, 1, 3, 1, 1, 1, 4, 1, 1]
    expected_w = [math.log(v) for v in [2, 2, 5, 5, 2, 9, 13, 13, 2, 17, 17]]
    assert weights.tolist() == pytest.approx(expected_w, rel=1e-14)


def test_gaussian_no_ideal_of_norm_three():
    assert all(len(a) == 0
               for a in ideal_event_arrays(preset("Q(i)"), 2.5, 3.5))


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


def test_psi_total_is_the_fsum_of_its_reads(monkeypatch):
    """psi_K adds weights >= 1/2 in integer fixed point, across reads,
    and rounds once: the value math.fsum gives, also where a float
    running sum drifts."""
    rng = np.random.default_rng(7)
    reads = [np.array([0.5, np.nextafter(0.5, 1), math.log(2)]),
             np.array([]), rng.uniform(0.5, 21, 10**5),
             np.full(10**5, 20.1), np.array([np.nextafter(21, 0)])]
    monkeypatch.setattr(numfield, "_reads_to", lambda *args: iter(reads))
    total = psi_K(preset("Q(i)"), 100)
    assert total == math.fsum(np.concatenate(reads))
    assert total != np.cumsum(np.concatenate(reads))[-1]


@pytest.mark.parametrize("weight", [0.25, 0.5 - 2**-54, math.nan, -1.0])
def test_psi_total_refuses_a_weight_below_one_half(weight, monkeypatch):
    """The limbs are exact only for weights >= 1/2 (f log p >= log 2
    always is): a read holding a smaller weight or NaN raises
    ArithmeticError rather than give an inexact total."""
    reads = [np.ones(3), np.array([1.0, weight, 2.0])]
    monkeypatch.setattr(numfield, "_reads_to", lambda *args: iter(reads))
    with pytest.raises(ArithmeticError, match="below 1/2"):
        psi_K(preset("Q(i)"), 100)


def test_fast_path_matches_full_splitting():
    """Root counting for large primes must agree with the full
    factorization route."""
    fld = preset("cyclo12")
    pos = ideal_event_arrays(fld, 1100, 1300)[0]
    for p in sieve_primes(1100, 1300):
        st = splitting_type(fld, int(p))
        assert [f for f, _ in st.factors].count(1) == int(np.sum(pos == p))


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
    pos, expo, weights = ideal_event_arrays(qi, p - 1, p + 1)
    base, deg = bases_and_degrees(pos, expo)
    assert pos.tolist() == base.tolist() == [p, p]
    assert deg.tolist() == expo.tolist() == [1, 1]
    assert_weights_are_f_log_p(weights, base, deg)


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
    assert sorted(expected) == ideal_event_arrays(fld, 1, 200)[0].tolist()


# --- the event store ----------------------------------------------------

@pytest.mark.parametrize("name", preset_names())
def test_store_growth_matches_fresh_build(name, empty_stores, monkeypatch):
    """Growing a field's store by doubling its bound gives the arrays of
    one fresh build, and builds each norm range once.  On the preset's
    from_poly twin, which the kernel splits, every prime up to the final
    bound enters the kernel's N_1 lanes at most once, and only primes up
    to sqrt(2^15) get the full pattern.  The preset itself, split from
    its conductor, makes no kernel call and grows the same arrays.  Both
    share one store key, so the stores are emptied between builds."""
    fld = preset(name)
    twin = NumberFieldSpec.from_poly(fld.coefficients, name=name)
    calls = []
    degree_counts = fppoly.degree_counts

    def counted(f, primes, top=1):
        calls.append((tuple(f), top, [int(p) for p in primes]))
        return degree_counts(f, primes, top)

    def grow(target):
        bound = 1024
        while bound <= 2**15:
            pi_K(target, bound)
            bound *= 2
        return ideal_event_arrays(target, 1, 2**15)

    monkeypatch.setattr(fppoly, "degree_counts", counted)
    grown = grow(twin)
    # a ramified prime's squarefree parts are other polynomials
    kernel = [(top, lanes) for f, top, lanes in calls
              if f == fld.coefficients]
    root_lanes = [p for top, lanes in kernel if top == 1 for p in lanes]
    assert root_lanes or fld.degree == 1
    assert len(set(root_lanes)) == len(root_lanes) \
        <= len(sieve_primes(1, 2**15))
    assert all(p <= math.isqrt(2**15)
               for top, lanes in kernel if top > 1 for p in lanes)
    monkeypatch.setattr(numfield, "_stores", {})
    fresh = ideal_event_arrays(twin, 1, 2**15)
    for a, b in zip(grown, fresh):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)
    monkeypatch.setattr(numfield, "_stores", {})
    calls.clear()
    for a, b in zip(grow(fld), grown):
        assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes())
    assert calls == []


def test_store_pieces_take_6_bytes_per_event(empty_stores):
    """A store keeps, in each piece, int32 norms (below STORE_BOUND, so
    exact) and int16 exponents (at most 30 below 10^9), 6 B per event,
    and no weights: an event's weight is log of its norm, save for the
    rows `merge_events` writes (the ideals above the primes up to
    sqrt(hi)), whose slots in the piece and weights (one int64 and one
    float64 per row) it keeps beside.  Neither base nor residue degree is
    kept, as the norm p^k and the exponent m give both (f = k / m).  Each
    column is a buffer of its own, so a piece holds nothing more (rows of
    a (4, N) int64 block kept 42 B per event, four columns with the bases
    26 B, three with the weights 18 B, and int64 norms 10 B).  A read
    still returns int64 positions, int16 exponents and float64 weights."""
    qi = preset("Q(i)")
    read = ideal_event_arrays(qi, 1, 2**16)
    assert [a.dtype for a in read] == [np.int64, np.int16, np.float64]
    (top, *columns), = numfield._store(qi)[1]
    pos, expo, slots, row_weights = columns
    assert top == 2**16
    assert [a.dtype for a in columns] \
        == [np.int32, np.int16, np.int64, np.float64]
    assert pos.nbytes + expo.nbytes == 6 * len(pos)
    assert slots.nbytes + row_weights.nbytes == 16 * len(slots)
    assert all(a.base is None for a in columns)
    assert 0 < len(slots) < len(pos) / 20
    assert np.array_equal(pos, read[0])


def test_int32_norms_need_store_bound_below_2_to_31():
    """A store's norms are int32, exact only while every norm a store
    holds, at most STORE_BOUND, stays below 2^31.  Raising the sieve
    ceiling to 10^12 (ROADMAP item 6) moves positions past 2^31 only
    above STORE_BOUND, in reads built alone as int64, so it leaves this
    bound alone."""
    assert numfield.STORE_BOUND < 2**31 == np.iinfo(np.int32).max + 1
    assert numfield.READ_PIECE <= numfield.STORE_BOUND


CROSSOVER = numfield.RESIDUE_CROSSOVER


@settings(max_examples=200, deadline=None)
@given(wide=st.booleans(),
       n=st.one_of(st.integers(0, 8), st.integers(CROSSOVER - 2,
                                                  CROSSOVER + 2),
                   st.integers(0, 4 * CROSSOVER)),
       top=st.one_of(st.integers(1, 2**12), st.integers(1, 2**31 - 1),
                     st.integers(1, 2**63 - 1)),
       q=st.one_of(st.integers(1, 60), st.integers(2**31 - 2, 2**31 + 2),
                   st.integers(1, 2**63 - 1)),
       seed=st.integers(0, 2**32 - 1), data=st.data())
@example(wide=False, n=CROSSOVER, top=2**24, q=22, seed=0, data=None)
@example(wide=False, n=CROSSOVER, top=2**24, q=2**40, seed=1, data=None)
@example(wide=True, n=CROSSOVER + 7, top=2**63 - 1, q=2**63 - 1, seed=2,
         data=None)
@example(wide=True, n=3, top=2**63 - 1, q=2**63 - 1, seed=3, data=None)
def test_residues_equal_the_remainder_on_both_sides_of_the_crossover(
        wide, n, top, q, seed, data):
    """`_residues` and `_in_class` equal Python's %, taken value by value,
    on int64 builds and on int32 views into a store piece, below and at
    or above RESIDUE_CROSSOVER values, for q past int32 on int32 norms
    and q = 2^63 - 1 on int64 positions; the class residue a is 0 when
    no draw picks it."""
    dtype = np.int64 if wide else np.int32
    top = min(top, np.iinfo(dtype).max)
    piece = np.random.default_rng(seed).integers(0, top, n + 2,
                                                 dtype=dtype, endpoint=True)
    values = piece[1:-1]                  # a view, as a store slice is
    before = values.copy()
    a = data.draw(st.integers(0, q - 1), label="a") if data else 0
    want = [v % q for v in values.tolist()]
    got = numfield._residues(values, q)
    assert got.dtype == dtype
    assert got.tolist() == want
    assert numfield._in_class(values, ResidueClass(q, a)).tolist() \
        == [r == a for r in want]
    assert np.array_equal(values, before)           # values untouched


def whole_pieces(fld, step):
    """The store's pieces that end on a read edge (a multiple of step),
    which no growth extends."""
    return [p for p in numfield._store(fld)[1] if p[0] % step == 0]


@pytest.mark.parametrize("name, piece, tops", [
    ("Q", None, [2**21, 2**22, 2**23, 2**24]),
    ("Q(i)", 1000, [2**12, 2**13, 2**14, 2**15, 2**16])],
    ids=["Q-2^21-to-2^24", "Q(i)-piece-1000"])
def test_growth_keeps_every_earlier_piece(name, piece, tops, empty_stores,
                                          monkeypatch):
    """A growth builds only the new range, extends only the last piece if
    it ends off a read edge, and appends the rest: every earlier whole
    piece stays the very same object, and the pieces are cut at the
    multiples of min(READ_PIECE, STORE_BOUND)."""
    if piece is not None:
        monkeypatch.setattr(numfield, "READ_PIECE", piece)
    step = min(numfield.READ_PIECE, numfield.STORE_BOUND)
    fld = preset(name)
    first_power_count(fld, 1, tops[0])
    for top in tops[1:]:
        before = whole_pieces(fld, step)
        first_power_count(fld, 1, top)
        bound, pieces = numfield._store(fld)
        assert bound == top
        assert [p[0] for p in pieces] == [*range(step, top, step), top]
        assert all(a is b for a, b in zip(before, pieces))
        assert len(pieces) > len(before)


@pytest.mark.parametrize("start", ["first_power_count", "first_powers"])
@pytest.mark.parametrize("name, cls", [("Q", ResidueClass(30, 7)),
                                       ("Q(i)", EVERYTHING)],
                         ids=["Q-mod30", "Q(i)"])
def test_growth_started_by_a_count_matches_a_weighed_read(
        start, name, cls, empty_stores, monkeypatch):
    """With STORE_BOUND lowered to 2^12 and READ_PIECE to 1000, a growth
    of an empty store that a first-power read of (1, 3000] starts leaves
    the same store, its bound and every piece byte for byte, as one that
    ideal_event_arrays starts; each builds every new range once and
    nothing else, and the count is that of the weighed read's first
    powers, first_powers their positions."""
    monkeypatch.setattr(numfield, "STORE_BOUND", 2**12)
    monkeypatch.setattr(numfield, "READ_PIECE", 1000)
    fld = preset(name)
    built = []
    build = numfield._build_events

    def recorded(f, lo, hi, *rest):
        built.append((lo, hi))
        return build(f, lo, hi, *rest)

    monkeypatch.setattr(numfield, "_build_events", recorded)
    edges = numfield.read_edges(1, 2**12)

    def grown(read):
        numfield._stores.clear()
        built.clear()
        got = read(fld, 1, 3000, cls)
        assert built == list(zip(edges, edges[1:]))
        return got, numfield._store(fld)

    (pos, expo, _), (want_bound, want) = grown(ideal_event_arrays)
    got, (bound, pieces) = grown(getattr(numfield, start))
    assert bound == want_bound == 2**12
    assert len(pieces) == len(want) == len(edges) - 1
    for piece, other in zip(pieces, want):
        assert piece[0] == other[0]
        for a, b in zip(piece[1:], other[1:], strict=True):
            assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes())
    first = expo == 1
    if start == "first_power_count":
        assert got == np.count_nonzero(first) > 0
    else:
        assert (got.dtype, got.tobytes()) == \
            (np.float64, pos[first].astype(np.float64).tobytes())


def test_ten_preset_stores_stay_under_110_mb():
    """The ten presets' stores grown to 2^24 in one process hold 65 MB of
    pieces at 6 B per event and the child peaks under 110 MB (97.8 MB on
    a 2-core host), where stores at 10 B per event, grown by
    concatenation, held 108 MB and peaked at 160 MB."""
    proc = run_within_rss(
        "from primelab import numfield\n"
        "for name in numfield.preset_names():\n"
        "    numfield.pi_K(numfield.preset(name), 2**24)\n"
        "print(sorted({bound for bound, _ in numfield._stores.values()}),"
        " len(numfield._stores))", 110)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[16777216]", "10"]


STRADDLE_TARGETS = {"Q": EVERYTHING, "Q-mod30": ResidueClass(30, 7),
                    "Q-mod12-nonunit": ResidueClass(12, 4),
                    "Q(i)": EVERYTHING, "cyclo12": EVERYTHING}


@functools.cache
def pieced_stores(name, piece):
    """Stores grown to 2^16 in pieces of `piece` norms: the field's, or
    Q's for a class."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numfield, "_stores", {})
        mp.setattr(numfield, "READ_PIECE", piece)
        pi_K(preset(name.partition("-")[0]), 2**16)
        return numfield._stores


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(list(STRADDLE_TARGETS)),
       piece=st.sampled_from([1000, 2**12]), edge=st.integers(1, 15),
       before=st.integers(1, 5000), after=st.integers(0, 5000))
@example(name="Q(i)", piece=1000, edge=1, before=999, after=64535)
def test_reads_across_piece_edges_equal_a_fresh_build(name, piece, edge,
                                                      before, after):
    """A read that straddles one or more piece edges joins its slices:
    it equals a fresh `_build_events` read of its window, weighed, in
    dtype and bytes, for Q, a unit and a non-unit class of Q, and two
    fields, in pieces of 1000 and 2^12 norms."""
    fld, cls = preset(name.partition("-")[0]), STRADDLE_TARGETS[name]
    lo, hi = max(1, edge * piece - before), min(edge * piece + after, 2**16)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numfield, "_stores", pieced_stores(name, piece))
        got = ideal_event_arrays(fld, lo, hi, cls)
        assert numfield._stores is pieced_stores(name, piece)
    want = weighed(numfield._build_events(fld, lo, hi, cls))
    for a, b in zip(got, want, strict=True):
        assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes())


def reference_event_arrays(lo, hi, cls=EVERYTHING):
    """Q's events as sieve.event_arrays built them before merge_events:
    the powers go into the sieved primes by three np.insert calls, and the
    exponents are int64."""
    primes = sieve_primes(lo, hi, cls)
    rows = []                # (p^m, p, m) for m >= 2
    for p in sieve_primes(1, math.sqrt(hi)).tolist():
        n, m = p * p, 2
        while n <= hi:
            if n > lo and n % cls.modulus == cls.residue:
                rows.append((n, p, m))
            n, m = n * p, m + 1
    powers = np.array(sorted(rows), dtype=np.int64).reshape(-1, 3).T
    at = np.searchsorted(primes, powers[0])
    pos = np.insert(primes, at, powers[0])
    base = np.insert(primes, at, powers[1])
    expo = np.insert(np.ones(len(primes), dtype=np.int64), at, powers[2])
    return pos, expo, np.log(base.astype(np.float64))


def reference_build_events(fld, lo, hi, cls=EVERYTHING):
    """numfield._build_events before merge_events: every event a row of
    one int64 table, stacked, lexsorted by (norm, degree) and split into
    columns."""
    if fld.degree == 1:
        pos, expo, weights = reference_event_arrays(lo, hi, cls)
        return pos, expo.astype(np.int16), weights
    root = math.isqrt(hi)
    primes = np.concatenate([sieve_primes(1, root),
                             sieve_primes(max(lo, root), hi)])
    primes = primes[~np.isin(primes, sorted(fld.bad_primes))]
    disc = primes.astype(object if abs(fld.poly_disc) >> 62 else np.int64)
    full = (primes <= root) | (fld.poly_disc % disc == 0).astype(bool)
    lanes = primes[~full]
    large = np.repeat(lanes, numfield._root_counts(fld, lanes))
    rows = []                # (norm, p, residue degree, exponent)
    for st in splitting_types(fld, primes[full]):
        for f, _ in st.factors:
            norm, m = st.prime**f, 1
            while norm <= hi:
                if norm > lo:
                    rows.append((norm, st.prime, f, m))
                norm, m = norm * st.prime**f, m + 1
    ones = np.ones_like(large)
    table = np.concatenate([np.array(rows, dtype=np.int64).reshape(-1, 4),
                            np.stack([large, large, ones, ones], axis=1)])
    order = np.lexsort((table[:, 2], table[:, 0]))
    pos, base, deg, expo = table[order].T.copy()
    weights = deg * np.log(base.astype(np.float64))
    keep = pos % cls.modulus == cls.residue
    return pos[keep], expo.astype(np.int16)[keep], weights[keep]


@functools.cache
def twin(name):
    """The preset's from_poly twin, which the Frobenius kernel splits."""
    return NumberFieldSpec.from_poly(preset(name).coefficients, name=name)


BOUNDS = st.lists(st.integers(1, 2**20), min_size=2, max_size=2).map(sorted)

# ramified at the prime 1000003 = 3 mod 4, far above the square root of
# any bound near it
RAMIFIED_HIGH = NumberFieldSpec.from_poly([-1000003, 0, 1],
                                          name="x^2 - 1000003")


@settings(max_examples=60, deadline=None)
@given(bounds=BOUNDS, target=st.one_of(
    st.sampled_from(preset_names()).map(preset),
    st.sampled_from(["Q(i)", "cyclo5", "cyclo12"]).map(twin),
    st.integers(1, 60).flatmap(lambda q: st.builds(
        lambda a: (preset("Q"), ResidueClass(q, a)), st.integers(0, q - 1)))))
@example(bounds=[1, 2**20], target=preset("cyclo7"))
@example(bounds=[1, 2**20], target=twin("cyclo5"))
@example(bounds=[840, 841], target=twin("Q(i)"))    # two ideals of norm 29^2
@example(bounds=[960, 961], target=preset("Q(i)"))  # 31 is inert
@example(bounds=[120, 125], target=(preset("Q"), ResidueClass(5, 0)))
@example(bounds=[999000, 1000003], target=RAMIFIED_HIGH)
@example(bounds=[999000, 1000003], target=(RAMIFIED_HIGH, ResidueClass(4, 3)))
def test_builds_equal_the_stacked_reference(bounds, target):
    """_build_events, which merges the first-degree primes with the other
    rows, equals the builds it replaced column by column: the same dtypes,
    the same values and bit-equal weights.  Covers every preset, Q with a
    class (units and not), from_poly twins, whose root counts come from
    fppoly.count_roots and whose small ramified primes from sympy, and a
    field ramified at a prime above sqrt(hi), whole and in a class, where
    the reference splits that prime with sympy and the build counts its
    roots."""
    lo, hi = bounds
    fld, cls = target if isinstance(target, tuple) else (target, EVERYTHING)
    got = weighed(numfield._build_events(fld, lo, hi, cls))
    for a, b in zip(got, reference_build_events(fld, lo, hi, cls),
                    strict=True):
        assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes())


@pytest.mark.parametrize("target, cls, budget", [
    ("Q", EVERYTHING, 22), ("Q", ResidueClass(30, 7), 22),
    ("Q(i)", EVERYTHING, 25.8), ("Q(sqrt5)", EVERYTHING, 25.8),
    ("cyclo7", EVERYTHING, 25.8), ("cyclo5 twin", EVERYTHING, 25.8)],
    ids=["Q", "Q-mod30", "Q(i)", "Q(sqrt5)", "cyclo7", "cyclo5-twin"])
def test_a_read_is_built_in_its_final_layout(target, cls, budget):
    """One read of (2^22, 2^23] allocates little beyond what it holds
    while the positions are built, the stream and the positions, 16 B per
    event, and keeps 10 B per event and its rows (tracemalloc's peak:
    20-21 B on Q, 24-25.2 B on fields, as when it kept 18 B with the
    weights; 26.1 B on fields while the primes above sqrt(hi) outlived
    their stream; with a bases column 26 B and 34 B, and the stacked
    builds 48 B on Q and 145 B on fields): the columns are filled in
    place around the stream of primes above sqrt(hi), which the merge
    frees once the positions are built, and a field's stream repeats
    each prime once per root.  Every column owns its buffer, so no
    column keeps another alive."""
    name, _, kind = target.partition(" ")
    fld = twin(name) if kind else preset(name)
    base_primes(2**12)                  # grows the cache before the trace
    columns, peak = traced_peak(
        lambda: numfield._build_events(fld, 2**22, 2**23, cls))
    assert peak <= budget * len(columns[0])
    assert all(a.base is None for a in columns)


def test_read_past_the_store_builds_only_its_window(empty_stores):
    """A read that starts past the store's bound builds (lo, hi] alone
    and leaves the store as it was; one that starts inside it grows the
    store to the next power of two above hi.  Both give the events of
    one fresh build."""
    qi = preset("Q(i)")
    key = (qi.coefficients, qi.field_disc)
    window = ideal_event_arrays(qi, 5000.5, 6000)
    assert key not in numfield._stores
    ideal_event_arrays(qi, 1, 100)
    assert numfield._stores[key][0] == 1024
    ideal_event_arrays(qi, 1024, 1500)          # starts at the bound
    assert numfield._stores[key][0] == 2048
    ideal_event_arrays(qi, 2049, 3000)
    assert numfield._stores[key][0] == 2048
    whole = ideal_event_arrays(qi, 1, 8000)
    assert numfield._stores[key][0] == 8192
    keep = (whole[0] > 5000) & (whole[0] <= 6000)
    for a, b in zip(window, whole):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b[keep])


@pytest.mark.parametrize("name", ["Q", "Q(i)"])
def test_fractional_bounds_slice_like_their_floors(name):
    """Norms are integers, so (lo, hi] holds the events of
    (floor lo, floor hi]: a read just below, at and above an event's
    norm gets it or not as the half-open window says."""
    fld = preset(name)
    for lo, hi in [(4.5, 13.9), (4.999, 13.0), (5.0, 12.999), (1.5, 2.0)]:
        got = ideal_event_arrays(fld, lo, hi)
        ref = [n for n in ideal_event_arrays(fld, 1, 20)[0].tolist()
               if lo < n <= hi]
        assert got[0].tolist() == ref
        expect = ideal_event_arrays(fld, math.floor(lo), math.floor(hi))
        for a, b in zip(got, expect):
            assert np.array_equal(a, b)


def test_equal_norms_in_ascending_residue_degree(empty_stores):
    """In the non-Galois field Q(2^(1/3)) a prime p = 2 mod 3 has ideals of
    residue degree 1 and 2, so p^2 is the norm of both P_1^2 and P_2; the
    store lists equal norms by ascending residue degree, as one prime's
    factors were always listed."""
    fld = NumberFieldSpec.from_poly([-2, 0, 0, 1], name="Q(cbrt2)")
    pos, expo, weights = ideal_event_arrays(fld, 1, 10**4)
    base, deg = bases_and_degrees(pos, expo)
    assert_weights_are_f_log_p(weights, base, deg)
    rows = list(zip(pos.tolist(), deg.tolist(), expo.tolist()))
    assert rows == sorted(rows)
    assert [r for r in rows if r[0] == 25] == [(25, 1, 2), (25, 2, 1)]


def test_empty_store_read_below_two(empty_stores):
    """The first read of a field may end below norm 2: it has no events,
    and the store is built anyway."""
    qi = preset("Q(i)")
    assert len(field_source(qi, 1.0).psi.positions) == 0
    assert len(ideal_event_arrays(qi, 1, 1.5)[0]) == 0
    assert pi_K(qi, 5) == 3      # norms 2, 5, 5


def test_field_queries_reject_nan_and_inverted_ranges():
    qi = preset("Q(i)")
    for query in (psi_K, pi_K, field_source):
        with pytest.raises(ValueError):
            query(qi, math.nan)
    with pytest.raises(ValueError):
        cramer_window_scan(1000, math.nan, 4.0, qi)
    with pytest.raises(ValueError):
        ideal_event_arrays(qi, 10, 5)


def test_windows_may_start_or_end_below_1():
    """No norm is below 2: a field's or a class's window from below 1
    reads the same events as one from 1, one ending below 1 reads none,
    and an inverted window's message quotes the values as given."""
    for target in (preset("Q(i)"), ResidueClass(4, 1)):
        from_1 = window_events(target, 1, 50)
        for got, want in zip(window_events(target, -7.5, 50), from_1):
            assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())
        for got, want in zip(window_events(target, -7.5, 0.5), from_1):
            assert (got.dtype, len(got)) == (want.dtype, 0)
        with pytest.raises(ValueError, match="got lo=0.7, hi=0.5"):
            window_events(target, 0.7, 0.5)


@pytest.mark.parametrize("lo,hi", [(1000.5, 1600.25), (7000.75, 7900.0)],
                         ids=["below-cap", "above-cap"])
def test_field_reads_keep_the_residue_class_on_both_sides_of_cap(
        lo, hi, empty_stores, monkeypatch):
    monkeypatch.setattr(numfield, "STORE_BOUND", 2**12)
    qi, cls = preset("Q(i)"), ResidueClass(5, 1)
    if hi <= 2**12:
        pi_K(qi, hi)        # grows the store, so that both reads slice it
    got = ideal_event_arrays(qi, lo, hi, cls)
    every = ideal_event_arrays(qi, lo, hi)
    keep = every[0] % 5 == 1
    assert 0 < keep.sum() < len(keep)
    for a, b in zip(got, every):
        assert np.array_equal(a, b[keep])


def test_bad_prime_rejects_only_windows_holding_its_powers():
    """x^2 + 3 has index 2 in the ring of integers of Q(sqrt-3); every odd
    prime splits as in the preset, so a window with no power of 2 counts
    the same, and one holding 128 raises."""
    fld = NumberFieldSpec.from_poly([3, 0, 1], field_disc=3)
    ref = preset("Q(sqrt-3)")
    odd = sieve_primes(2, 2000)
    assert [t.factors for t in splitting_types(fld, odd)] \
        == [t.factors for t in splitting_types(ref, odd)]
    assert bt_check_field(fld, 100, 20).metric \
        == bt_check_field(ref, 100, 20).metric
    with pytest.raises(UnsupportedPrimeError):
        bt_check_field(fld, 120, 10)


# Q(i) by x^2 + 1009^2, whose index 1009 is a bad prime: its reads below
# hold no power of 1009 but 1009 itself
BAD_1009 = NumberFieldSpec.from_poly([1009**2, 0, 1], field_disc=4,
                                     name="x^2 + 1009^2")
WEIGHED_WINDOW = (1010.5, 6000.25)      # holds no power of 1009


@pytest.mark.parametrize("target, cls", [
    ("Q", EVERYTHING), ("Q", ResidueClass(30, 7)), ("Q", ResidueClass(12, 4)),
    ("Q(i)", EVERYTHING), ("cyclo7", EVERYTHING), ("cyclo12", EVERYTHING),
    ("cyclo5 twin", EVERYTHING), ("bad", EVERYTHING)],
    ids=["Q", "Q-mod30", "Q-mod12-nonunit", "Q(i)", "cyclo7", "cyclo12",
         "cyclo5-twin", "bad-prime"])
def test_weights_agree_on_every_path(target, cls, monkeypatch):
    """A store keeps no weights, so every read weighs its own events
    (`sieve.weigh`).  The window's weights are the same bytes from a
    store slice, from a build of the window alone (it starts past the
    store's bound), from a store grown by doubling, from the reads of a
    sweep, and from the stacked reference build; so are its positions
    and exponents.  Every store starts with a read of (1, 1000], so that
    no read holds a power of the bad prime 1009."""
    name, _, kind = target.partition(" ")
    fld = BAD_1009 if name == "bad" else twin(name) if kind else preset(name)
    lo, hi = WEIGHED_WINDOW
    key = (fld.coefficients, fld.field_disc)

    def fresh_store(*tops):
        monkeypatch.setattr(numfield, "_stores", {})
        ideal_event_arrays(fld, 1, 1000)
        for top in tops:
            ideal_event_arrays(fld, 1010, top)
        return [bound for bound, _ in numfield._stores.values()]

    reads = {}
    assert fresh_store(8000) == [8192]
    reads["slice"] = ideal_event_arrays(fld, lo, hi, cls)
    monkeypatch.setattr(numfield, "_stores", {})
    reads["alone"] = ideal_event_arrays(fld, lo, hi, cls)
    assert key not in numfield._stores
    assert fresh_store(2000, 4000, 8000) == [8192]
    reads["doubled"] = ideal_event_arrays(fld, lo, hi, cls)
    fresh_store()
    edges = [lo, 2000, 2**12, 5000, hi]
    reads["sweep"] = [np.concatenate(column) for column in zip(
        *(ideal_event_arrays(fld, a, b, cls)
          for a, b in zip(edges, edges[1:])))]
    assert numfield._stores[key][0] == 8192
    reads["reference"] = reference_build_events(
        fld, math.floor(lo), math.floor(hi), cls)
    want = reads.pop("reference")
    assert len(want[0]) > 0
    for path, got in reads.items():
        for a, b in zip(got, want, strict=True):
            assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), path


def test_growth_and_counts_weigh_nothing(empty_stores, monkeypatch):
    """Only a sum weighs its reads: a cold and a warm pi_K of Q to 2^22
    weigh nothing, a cold psi_K weighs each event it sums once (its two
    reads are the store's two pieces), so the growth of the store weighs
    none, and Brun-Titchmarsh counts, warm or built past the store, and a
    q = 1 Cramer scan over (1e3, 1e7] weigh nothing."""
    weighed_events = []
    weigh = sieve.weigh

    def counted(pos, slots, row_weights):
        weighed_events.append(len(pos))
        return weigh(pos, slots, row_weights)

    monkeypatch.setattr(sieve, "weigh", counted)
    q = preset("Q")
    assert pi_K(q, 2**22) == pi_K(q, 2**22) == 295947     # cold, then warm
    assert weighed_events == []
    numfield._stores.clear()
    psi_K(q, 2**22)
    bound, pieces = numfield._store(q)
    assert bound == 2**22
    assert weighed_events == [len(pos) for _, pos, *_ in pieces]
    weighed_events.clear()
    bt_check_ap(10**6, 1000, ResidueClass(30, 7))
    bt_check_ap(10**6, 1000, EVERYTHING)
    bt_check_ap(3e7, 1000, ResidueClass(4, 1))
    bt_check_field(preset("Q(i)"), 3e7, 1000)
    assert cramer_window_scan(1e3, 1e7, 4.0, EVERYTHING).verdict == "pass"
    assert weighed_events == []


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
            with pytest.raises(CapacityError):
                ideal_event_arrays(qi, 1, 1000)
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
