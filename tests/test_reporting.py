"""Report record and grid parsing."""

import re

import numpy as np
import pytest

from hydro2d.reporting import GridSpec, VerificationReport


def test_from_errors_absolute_pass_logic():
    rep = VerificationReport.from_errors("x", "g", [(1e-9, 5e-3)], 1e-8)
    assert (rep.max_abs_err, rep.max_rel_err) == (1e-9, 1e-9 / 5e-3)
    assert rep.passed
    rep = VerificationReport.from_errors("x", "g", [(2e-8, 2e4)], 1e-8)
    assert rep.max_rel_err == 1e-12
    assert not rep.passed


def test_from_errors_relative_pass_logic():
    rep = VerificationReport.from_errors("x", "g", [(5.0, 5e13)], 1e-12, relative=True)
    assert rep.max_abs_err == 5.0
    assert rep.passed  # judged on the relative column
    rep = VerificationReport.from_errors("x", "g", [(1e-15, 1e-4)], 1e-12, relative=True)
    assert not rep.passed


def test_from_errors_broadcasts_lazy_pairs():
    pairs = ((np.full((2, 3), 1e-3 * k), np.array([1.0, 2.0, 4.0])) for k in (1, 3, 2))
    rep = VerificationReport.from_errors("x", "g", pairs, 1e-2)
    assert (rep.max_abs_err, rep.max_rel_err) == (3e-3, 3e-3)
    assert type(rep.max_abs_err) is float and type(rep.passed) is bool


def test_from_errors_zero_scale_counts_towards_absolute_only():
    pairs = [(np.array([1e-9, 3.0]), np.array([1.0, 0.0]))]
    rep = VerificationReport.from_errors("x", "g", pairs, 1e-8, relative=True)
    assert (rep.max_abs_err, rep.max_rel_err) == (3.0, 1e-9)
    assert rep.passed
    assert not VerificationReport.from_errors("x", "g", pairs, 1e-8).passed


@pytest.mark.parametrize("relative", [False, True])
def test_from_errors_nan_fails(relative):
    # Python's max keeps its first argument when the second is NaN; the
    # reduction must not, wherever the NaN sits.
    pairs = [(0.0, 1.0), (np.array([1e-20, np.nan]), 1.0), (1e-20, 1.0)]
    rep = VerificationReport.from_errors("x", "g", pairs, 1.0, relative=relative)
    assert np.isnan(rep.max_abs_err) and np.isnan(rep.max_rel_err)
    assert rep.passed is False
    # A NaN at a zero-scale point reaches only the absolute column, and still fails.
    rep = VerificationReport.from_errors("x", "g", [(np.nan, 0.0), (0.0, 1.0)], 1.0,
                                         relative=relative)
    assert np.isnan(rep.max_abs_err) and rep.max_rel_err == 0.0
    assert rep.passed is False


def test_from_errors_fails_when_nothing_was_compared():
    for pairs in ([], [(np.empty(0), 1.0)]):
        rep = VerificationReport.from_errors("x", "g", pairs, 1.0)
        assert (rep.max_abs_err, rep.max_rel_err) == (0.0, 0.0)
        assert rep.passed is False


def test_to_dict_schema():
    rep = VerificationReport.from_errors("name", "grid", [(0.0, 1.0)], 1e-6, notes="hi")
    d = rep.to_dict()
    assert list(d.keys()) == ["check_name", "grid_desc", "max_abs_err",
                              "max_rel_err", "tolerance", "pass", "notes"]
    assert d["pass"] is True
    assert d["notes"] == "hi"


def test_gridspec_parse_linear():
    g = GridSpec.parse("0:5:6")
    assert (g.min, g.max, g.points, g.scale) == (0.0, 5.0, 6, "linear")
    vals = g.values()
    assert vals[0] == 0.0 and vals[-1] == 5.0 and len(vals) == 6
    assert np.allclose(np.diff(vals), 1.0)


def test_gridspec_parse_log():
    g = GridSpec.parse("0.05:20:20:log")
    assert g.scale == "log"
    vals = g.values()
    assert vals[0] == pytest.approx(0.05) and vals[-1] == pytest.approx(20.0)
    ratios = vals[1:] / vals[:-1]
    assert np.allclose(ratios, ratios[0])


_GRID_ERRORS = {
    "1:2": "grid must look like min:max:points",
    "a:b:c:d:e": "grid must look like min:max:points",
    "5:1:10": "grid needs min < max",
    "0:5:1": "grid needs at least 2 points",
    "0:5:6:cubic": "grid suffix must be 'log' when present",
    "0:5:6:log": "log grid needs min > 0",
    "-1:5:6:log": "log grid needs min > 0",
    "a:1:3": "grid min must be a number, got 'a'",
    "0:1e3x:3": "grid max must be a number, got '1e3x'",
    "0:1:3.5": "grid points must be an integer, got '3.5'",
    "0:1:": "grid points must be an integer, got ''",
}


@pytest.mark.parametrize("bad", list(_GRID_ERRORS))
def test_gridspec_rejects(bad):
    # Each error names the field it rejects, not the builtin that failed to parse it.
    with pytest.raises(ValueError, match="^" + re.escape(_GRID_ERRORS[bad])):
        GridSpec.parse(bad)


def test_gridspec_rejects_an_unknown_scale():
    # parse rejects the suffix first, so only a direct construction reaches this.
    with pytest.raises(ValueError, match="grid scale must be 'linear' or 'log'"):
        GridSpec(0.0, 1.0, 3, "cubic")


@pytest.mark.parametrize("points", [2.5, 3.0, True, "3"])
def test_gridspec_rejects_points_that_are_not_an_integer(points):
    # A direct construction checks points as parse does: 2.5 reached numpy's
    # TypeError in values(), and True counted as 1 point.
    with pytest.raises(ValueError, match="^grid points must be an integer, got "):
        GridSpec(0.0, 1.0, points)


@pytest.mark.parametrize("text, field", [
    ("0:inf:3", "max"), ("nan:5:3", "min"), ("-inf:5:3", "min"), ("1:nan:3:log", "max"),
])
def test_gridspec_rejects_non_finite_bounds(text, field):
    with pytest.raises(ValueError, match=f"grid {field} must be finite"):
        GridSpec.parse(text)
