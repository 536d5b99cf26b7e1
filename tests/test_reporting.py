"""Report record and grid parsing."""

import numpy as np
import pytest

from hydro2d.reporting import GridSpec, VerificationReport


def test_from_abs_pass_logic():
    rep = VerificationReport.from_abs("x", "g", 1e-9, 2e-7, 1e-8)
    assert rep.passed
    rep = VerificationReport.from_abs("x", "g", 2e-8, 1e-12, 1e-8)
    assert not rep.passed


def test_from_rel_pass_logic():
    rep = VerificationReport.from_rel("x", "g", 5.0, 1e-13, 1e-12)
    assert rep.passed  # judged on the relative column
    rep = VerificationReport.from_rel("x", "g", 1e-15, 1e-11, 1e-12)
    assert not rep.passed


def test_to_dict_schema():
    rep = VerificationReport.from_abs("name", "grid", 0.0, 0.0, 1e-6, notes="hi")
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
    assert "log" in g.describe()


@pytest.mark.parametrize("bad", [
    "1:2", "a:b:c:d:e", "5:1:10", "0:5:1", "0:5:6:cubic", "0:5:6:log", "-1:5:6:log",
])
def test_gridspec_rejects(bad):
    with pytest.raises(ValueError):
        GridSpec.parse(bad)


@pytest.mark.parametrize("text, field", [
    ("0:inf:3", "max"), ("nan:5:3", "min"), ("-inf:5:3", "min"), ("1:nan:3:log", "max"),
])
def test_gridspec_rejects_non_finite_bounds(text, field):
    with pytest.raises(ValueError, match=f"grid {field} must be finite"):
        GridSpec.parse(text)
