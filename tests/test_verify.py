from types import SimpleNamespace

import pytest

from fracdim2d import ParameterError, SUITES, fracint, run_suite, verify
from fracdim2d.verify import Check, SuiteReport


def test_all_suites_pass_at_quick_scale():
    for name in SUITES:
        report = run_suite(name, "quick")
        assert report.passed, [c.name for c in report.checks if not c.passed]
        assert report.suite == name and report.scale == "quick"
        assert len(report.checks) >= 1


def test_report_json_shape():
    report = run_suite("separable", "quick", g="identity")
    doc = report.to_json()
    assert doc["suite"] == "separable" and doc["passed"] is True
    assert doc["scale"] == "quick"
    for entry in doc["checks"]:
        assert set(entry) >= {"name", "gap", "tolerance", "passed"}
        assert entry["gap"] <= entry["tolerance"]


def test_fn_narrows_a_suite():
    report = run_suite("boundedness", "quick", fn="sinxy")
    assert report.passed
    assert [c.name for c in report.checks] == ["boundedness:sinxy"]


def test_unknown_suite_and_scale():
    with pytest.raises(ParameterError):
        run_suite("nope")
    with pytest.raises(ParameterError):
        run_suite("semigroup", scale="medium")
    with pytest.raises(ParameterError):
        run_suite("separable", g="cosh")


def test_check_and_report_logic():
    good = Check(name="a", gap=0.5, tolerance=1.0, passed=True)
    bad = Check(name="b", gap=2.0, tolerance=1.0, passed=False, note="too big")
    rep = SuiteReport(suite="s", scale="quick", checks=(good, bad))
    assert not rep.passed
    doc = rep.to_json()
    assert doc["passed"] is False
    assert doc["checks"][1]["note"] == "too big"


def test_sandwich_passes_at_full_scale():
    report = run_suite("sandwich", "full")
    assert report.passed, [c.name for c in report.checks if not c.passed]
    assert report.scale == "full"
    assert all(c.gap == 0.0 for c in report.checks)


def test_hadamard_rate_fails_when_the_coordinate_crowds_toward_one(monkeypatch):
    # u = s^rho/rho without the shift crowds toward 1/rho as rho -> 0 and loses about
    # -log10(rho) digits; the O(eps) limit then turns around before eps = 1e-12
    real = fracint._power_map

    def crowded(weight):
        rho = weight + 1.0
        if 0.0 < rho < 1.0:
            return (lambda s: s**rho / rho), (lambda u: (rho * u) ** (1.0 / rho))
        return real(weight)

    rates = [c for c in run_suite("special-cases", "quick").checks if c.name.startswith("hadamard-rate:")]
    assert [c.name for c in rates] == ["hadamard-rate:constant:1", "hadamard-rate:sinxy", "hadamard-rate:plane"]
    assert all(c.passed for c in rates)
    monkeypatch.setattr(fracint, "_power_map", crowded)
    checks = {c.name: c for c in run_suite("special-cases", "quick").checks}
    assert checks["hadamard-limit:constant:1"].passed
    assert not any(c.passed for name, c in checks.items() if name.startswith("hadamard-rate:"))


def test_dimension_bounds_samples_each_grid_once(monkeypatch):
    # at full scale the named checks and the dimension-floor loop share their 1025^2 grids
    sampled = []
    monkeypatch.setattr(verify, "sample", lambda src, spec, threads=None: sampled.append((src.name, spec.m)))
    monkeypatch.setattr(verify, "dimension_fit", lambda g, deltas, which: SimpleNamespace(slope=2.0))
    monkeypatch.setattr(verify, "katugampola_2d_grid", lambda *args, **kwargs: None)
    report = run_suite("dimension-bounds", "full")
    assert len(sampled) == len(set(sampled)) >= 4 and {m for _, m in sampled} == {1025}
    assert [c.name for c in report.checks][:3] == ["dimension:plane", "dimension:t-parabola-sine", "dimension:weierstrass"]
