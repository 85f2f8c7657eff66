import hashlib
import math
from types import SimpleNamespace

import pytest

from fracdim2d import ParameterError, SUITES, VerificationError, cli, fracint, run_suite, verify
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
    # u = s^rho/rho, not anchored at lo, crowds toward 1/rho as rho -> 0 and loses about
    # -log10(rho) digits; the O(eps) limit then turns around before eps = 1e-12
    real = fracint._power_map

    def crowded(weight, lo):
        rho = weight + 1.0
        if 0.0 < rho < 1.0:
            return (lambda s: s**rho / rho), (lambda u: (rho * u) ** (1.0 / rho))
        return real(weight, lo)

    rates = [c for c in run_suite("special-cases", "quick").checks if c.name.startswith("hadamard-rate:")]
    assert [c.name for c in rates] == ["hadamard-rate:constant:1", "hadamard-rate:sinxy", "hadamard-rate:plane"]
    assert all(c.passed for c in rates)
    monkeypatch.setattr(fracint, "_power_map", crowded)
    checks = {c.name: c for c in run_suite("special-cases", "quick").checks}
    assert checks["hadamard-limit:constant:1"].passed
    assert not any(c.passed for name, c in checks.items() if name.startswith("hadamard-rate:"))


def test_a_suite_refuses_the_flag_it_does_not_read():
    with pytest.raises(ParameterError) as exc:
        run_suite("separable", fn="plane")
    assert exc.value.parameter == "fn"
    for name in set(SUITES) - {"separable"}:
        with pytest.raises(ParameterError) as exc:
            run_suite(name, g="sin")
        assert exc.value.parameter == "g"


def test_semigroup_at_full_scale_checks_the_gap_shrinks_with_the_panels():
    report = run_suite("semigroup", "full", fn="constant:1")
    assert [c.name for c in report.checks] == ["semigroup:constant:1", "semigroup-refinement:constant:1"]
    refinement = report.checks[1]
    assert report.passed and refinement.gap == 0.24421699982881068
    assert refinement.note == "gap ratios across panels (32, 64, 128)"


def test_a_failed_certificate_is_a_failed_check(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise VerificationError("boundedness violated")

    monkeypatch.setattr(verify, "boundedness_certificate", fail)
    (check,) = run_suite("boundedness", "quick", fn="sinxy").checks
    assert (check.name, check.gap, check.passed, check.note) == ("boundedness:sinxy", math.inf, False, "boundedness violated")
    assert cli.main(["verify", "boundedness", "--fn", "sinxy"]) == 4
    out = capsys.readouterr().out
    assert out == "verify boundedness (quick): 0/1 checks passed; failed: boundedness:sinxy\n"


def test_dimension_bounds_samples_each_grid_once(monkeypatch):
    # at full scale the named checks and the dimension-floor loop share the counts of their 1025^2 grids
    sampled = []
    monkeypatch.setattr(verify, "_row_reader", lambda src, spec: sampled.append((src.name, spec.m)))
    monkeypatch.setattr(verify, "dimension_fit", lambda g, deltas, which: SimpleNamespace(slope=2.0))
    monkeypatch.setattr(verify, "katugampola_2d_grid", lambda *args, **kwargs: None)
    report = run_suite("dimension-bounds", "full")
    assert len(sampled) == len(set(sampled)) >= 4 and {m for _, m in sampled} == {1025}
    assert [c.name for c in report.checks][:3] == ["dimension:plane", "dimension:t-parabola-sine", "dimension:weierstrass"]


def test_dimension_bounds_counts_rows_without_sampling_a_grid(monkeypatch, tmp_path):
    # the slopes come from rows read a band at a time, and the report keeps the bytes it had
    # when every grid was sampled whole
    def refuse(*args, **kwargs):
        raise AssertionError("a grid was sampled")

    monkeypatch.setattr(verify, "sample", refuse)
    out = tmp_path / "report.json"
    assert cli.main(["verify", "dimension-bounds", "--scale", "quick", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == "8a8d700796eb8685915bd71ba8d1aa690e81ce47a28c931d23a3be8d2c8290ce"


@pytest.mark.parametrize("scale, levels", [("quick", (32, 64, 128)), ("full", (64, 128, 256))])
def test_bv_preservation_runs_fn_on_the_scales_levels(scale, levels):
    (check,) = run_suite("bv-preservation", scale, fn="plane").checks
    assert check.name == "bv-saturation:plane" and check.passed
    assert check.note.startswith(f"levels {levels}, values ")


def test_bv_preservation_at_full_scale_checks_its_three_functions():
    report = run_suite("bv-preservation", "full")
    names = [c.name for c in report.checks]
    assert names == ["bv-saturation:plane", "bv-saturation:sinxy", "bv-saturation:t-parabola-sine"]
    assert report.passed and all(c.note.startswith("levels (64, 128, 256), ") for c in report.checks)


def test_dimension_bounds_fn_runs_one_window_check():
    (check,) = run_suite("dimension-bounds", "quick", fn="plane").checks
    assert check.name == "dimension:plane" and check.passed
    assert check.note.endswith(" vs window [1.85, 2.7]")
