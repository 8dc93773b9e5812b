import io
import math
import os
import re

import numpy as np
import pytest

from primelab import (ZeroTable, ZeroTableError, combine, component_table,
                      count_zeros, field_table, load_zeros, predicted_count)
from primelab.zeros import MANIFEST_ENV, load_manifest

GAMMA_1 = 14.134725142       # first ordinate of zeta
GAMMA_CHI4_1 = 6.020948906   # first ordinate of the conductor-4 component


def make_table(ordinates, height=100.0, label="t"):
    return ZeroTable(np.array(ordinates, dtype=np.float64), height, label)


# --- parsing ------------------------------------------------------------

def test_load_from_stream():
    text = "# header\n14.1347\n\n21.0220  # comment\n25.0109\n"
    tbl = load_zeros(io.StringIO(text), 30.0, "demo")
    assert len(tbl) == 3
    assert tbl.ordinates[0] == pytest.approx(14.1347)
    assert tbl.completeness_height == 30.0


def test_load_from_bytes_and_path(tmp_path):
    blob = b"1.5\n2.5\n"
    assert len(load_zeros(blob, 3.0, "b")) == 2
    p = tmp_path / "z.txt"
    p.write_text("1.5\n2.5\n3.5\n")
    assert len(load_zeros(p, 4.0, "p")) == 3


def test_parse_error_reports_line_number():
    with pytest.raises(ZeroTableError, match="line 2"):
        load_zeros(io.StringIO("14.1\nbogus\n"), 20.0, "x")


def test_monotonicity_enforced():
    with pytest.raises(ZeroTableError, match="monotonicity"):
        load_zeros(io.StringIO("14.1\n13.9\n"), 20.0, "x")


def test_tiny_ordinate_rejected():
    with pytest.raises(ZeroTableError, match="below"):
        load_zeros(io.StringIO("1e-9\n"), 20.0, "x")


# --- counting -----------------------------------------------------------

def test_count_doubles_positive_ordinates():
    tbl = make_table([5.0, 10.0, 15.0])
    assert count_zeros(tbl, 4.0) == 0
    assert count_zeros(tbl, 10.0) == 4      # boundary included
    assert count_zeros(tbl, 99.0) == 6


def test_count_beyond_height_raises():
    tbl = make_table([5.0], height=50.0)
    with pytest.raises(ZeroTableError, match="beyond"):
        count_zeros(tbl, 50.1)


def test_combine_is_multiset_union():
    a = make_table([5.0, 10.0], height=100.0, label="a")
    b = make_table([5.0, 7.0], height=60.0, label="b")
    c = combine([a, b])
    assert list(c.ordinates) == [5.0, 5.0, 7.0, 10.0]
    assert c.completeness_height == 60.0
    assert c.label == "a+b"
    # one table comes back as a sorted copy, its label and height kept
    one = combine([b])
    assert one.ordinates is not b.ordinates
    assert (list(one.ordinates), one.completeness_height, one.label) \
        == ([5.0, 7.0], 60.0, "b")
    with pytest.raises(ValueError):
        combine([])


def test_predicted_count_values():
    # independent two-term evaluation
    T = 100.0
    expect = (2 / math.pi) * T * math.log(T) \
        + (T / math.pi) * (math.log(4) - 2 * math.log(2 * math.pi * math.e))
    assert predicted_count(2, 4, T) == pytest.approx(expect, rel=1e-14)
    # for n_K = 1, d_K = 1 the second term is -(T/pi) log(2 pi e)
    assert predicted_count(1, 1, 50.0) == pytest.approx(
        (50 / math.pi) * (math.log(50) - math.log(2 * math.pi * math.e)))
    with pytest.raises(ValueError):
        predicted_count(1, 1, 1.0)


# --- shipped tables -----------------------------------------------------

def test_shipped_zeta_table():
    tbl = component_table("zeta")
    assert tbl.ordinates[0] == pytest.approx(GAMMA_1, abs=1e-6)
    assert count_zeros(tbl, 15.0) == 2
    assert count_zeros(tbl, 100.0) == 58
    assert tbl.completeness_height >= 2000.0


def test_shipped_component_tables_certified():
    for label in ("zeta", "chi4", "chi5"):
        tbl = component_table(label)
        assert tbl.completeness_height >= 600.0
        # the last tabulated zero sits just below the certified height
        assert float(tbl.ordinates[-1]) >= tbl.completeness_height - 15
        assert np.all(np.diff(tbl.ordinates) > 0)


def test_counting_formula_envelope():
    """Counted zeros track the two-term prediction within a slowly
    growing window over the whole certified range."""
    cases = [("zeta", 1, 1), ("chi4", 1, 4), ("chi5", 1, 5)]
    for label, n_K, d_K in cases:
        tbl = component_table(label)
        for T in np.linspace(14.5, tbl.completeness_height, 200):
            gap = abs(count_zeros(tbl, T) - predicted_count(n_K, d_K, T))
            assert gap <= 2.5 + 0.6 * math.log(T), (label, T, gap)


def test_gaussian_field_table_merges_components():
    tbl = field_table("Q(i)")
    assert tbl.ordinates[0] == pytest.approx(GAMMA_CHI4_1, abs=1e-6)
    zeta = component_table("zeta")
    chi4 = component_table("chi4")
    T = tbl.completeness_height
    assert count_zeros(tbl, T) \
        == count_zeros(zeta, T) + count_zeros(chi4, T)
    with pytest.raises(ZeroTableError, match="no shipped"):
        field_table("cyclo7")


def test_external_manifest_via_env(tmp_path, monkeypatch):
    zfile = tmp_path / "three.txt"
    zfile.write_text("5.0\n10.0\n15.0\n")
    man = tmp_path / "man.txt"
    man.write_text("toy; three.txt; 20.0\n")
    monkeypatch.setenv(MANIFEST_ENV, str(man))
    entries = load_manifest()
    assert "toy" in entries
    tbl = component_table("toy", str(man))
    assert count_zeros(tbl, 20.0) == 6


def test_cache_follows_manifest_env(tmp_path, monkeypatch):
    # the vendored zeta table is cached first; pointing the environment at
    # another manifest must then serve that manifest's table
    vendored = component_table("zeta")
    zfile = tmp_path / "two.txt"
    zfile.write_text("5.0\n10.0\n")
    man = tmp_path / "man.txt"
    man.write_text("zeta; two.txt; 20.0\n")
    monkeypatch.setenv(MANIFEST_ENV, str(man))
    assert len(component_table("zeta")) == 2
    # the same (label, resolved manifest) is the same table, however named
    assert component_table("zeta") is component_table("zeta", str(man))
    assert count_zeros(field_table("Q"), 20.0) == 4
    monkeypatch.delenv(MANIFEST_ENV)
    assert component_table("zeta") is vendored
    # a relative, a dotted and an absolute spelling of one manifest are one
    # table; after a chdir the relative spelling names another manifest
    (tmp_path / "mf").mkdir()
    (tmp_path / "mf" / "two.txt").write_text("5.0\n10.0\n")
    (tmp_path / "mf" / "man.txt").write_text("zeta; two.txt; 20.0\n")
    monkeypatch.chdir(tmp_path)
    spellings = ["mf/man.txt", "./mf/man.txt", str(tmp_path / "mf/man.txt")]
    first = component_table("zeta", spellings[0])
    assert all(component_table("zeta", s) is first for s in spellings)
    other = tmp_path / "elsewhere"
    (other / "mf").mkdir(parents=True)
    (other / "mf" / "one.txt").write_text("5.0\n")
    (other / "mf" / "man.txt").write_text("zeta; one.txt; 20.0\n")
    monkeypatch.chdir(other)
    assert len(component_table("zeta", "mf/man.txt")) == 1


def test_manifest_bad_line(tmp_path):
    man = tmp_path / "man.txt"
    man.write_text("only-two; fields\n")
    with pytest.raises(ZeroTableError, match="line 1"):
        load_manifest(str(man))


@pytest.mark.parametrize("height,message", [
    ("nan", "positive and finite, got nan"),
    ("inf", "positive and finite, got inf"),
    ("0", "positive and finite, got 0.0"),
    ("-5", "positive and finite, got -5.0"),
    ("abc", "manifest line 2: expected `label; file; height` with a "
            "numeric height, got 'zeta; z.txt; abc'"),
])
def test_manifest_height_must_be_positive_and_finite(tmp_path, height,
                                                     message):
    """A height that is not a positive finite number would let every
    count pass (NaN, inf) or none; it is a table error, not a count."""
    (tmp_path / "z.txt").write_text("5.0\n10.0\n")
    man = tmp_path / "man.txt"
    man.write_text(f"# label; file; height\nzeta; z.txt; {height}\n")
    with pytest.raises(ZeroTableError, match=re.escape(message)):
        component_table("zeta", str(man))


def test_unknown_component():
    with pytest.raises(ZeroTableError, match="no component"):
        component_table("nope")
