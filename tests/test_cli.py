import json
import math
import subprocess
import sys

import numpy as np
import pytest

import fracdim2d.cli as cli
import fracdim2d.fracint as fracint
from fracdim2d import Box, GridSpec, read_samples_csv
from fracdim2d.special import log_normaliser


def run_cli(capsys, *argv):
    """Invoke the CLI in-process; returns (exit_code, stdout, parsed stderr JSON or None)."""
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    err = json.loads(captured.err) if captured.err.strip() else None
    return code, captured.out, err


# ---------------------------------------------------------------------------
# integrate


def test_integrate_closed_form(capsys):
    code, out, err = run_cli(
        capsys,
        "integrate", "--op", "katugampola", "--fn", "constant:1", "--rect", "1,2,1,2",
        "--alpha", ".5", "--beta", ".5", "--p", "0", "--q", "0", "--grid", "33,33", "--panels", "128",
    )
    assert code == 0 and err is None
    value = float(out.split("=")[1].split(";")[0])
    assert value == pytest.approx(4.0 / math.pi, rel=1e-6)
    assert "bound ok" in out


def test_integrate_missing_alpha_names_parameter(capsys):
    code, out, err = run_cli(capsys, "integrate", "--fn", "constant:1")
    assert code == 2
    assert err == {"code": 2, "message": "--alpha is required", "parameter": "alpha"}


def test_integrate_p_minus_one_points_to_hadamard(capsys):
    code, _, err = run_cli(capsys, "integrate", "--fn", "constant:1", "--alpha", ".5", "--beta", ".5", "--p", "-1")
    assert code == 2
    assert err["parameter"] == "p"
    assert "hadamard" in err["message"]


def test_integrate_writes_grid_csv(capsys, tmp_path):
    out_path = tmp_path / "grid.csv"
    code, _, _ = run_cli(
        capsys,
        "integrate", "--fn", "plane", "--alpha", "1", "--beta", "1", "--grid", "5,5",
        "--out", str(out_path),
    )
    assert code == 0
    gs = read_samples_csv(str(out_path))
    assert gs.spec.m == gs.spec.n == 5
    # order (1,1) of x+y has the elementary closed form
    assert gs.value(4, 4) == pytest.approx(3.0, rel=1e-9)
    assert np.all(gs.matrix[0, :] == 0)


def test_normaliser_matches_gamma_and_large_orders_exit_cleanly(capsys):
    for order in (0.3, 0.5, 1.0, 2.5):
        for weight in (0.0, 1.0):
            expect = (1.0 + weight) ** -order / math.gamma(order)
            assert math.exp(log_normaliser(order, weight)) == pytest.approx(expect, rel=1e-13)
    # Gamma(200) overflows float64; the log-space constant does not
    code, out, err = run_cli(
        capsys, "integrate", "--fn", "sinxy", "--alpha", "200", "--beta", ".5", "--grid", "5,5", "--panels", "16"
    )
    if code == 0:
        assert err is None and math.isfinite(float(out.split("=")[1].split(";")[0]))
    else:
        assert code == 3 and err["code"] == 3


def test_integrate_huge_weight_is_a_numeric_error(capsys):
    code, _, err = run_cli(capsys, "integrate", "--fn", "sinxy", "--alpha", ".5", "--beta", ".5", "--p", "1e6")
    assert code == 3 and err["code"] == 3 and "overflows" in err["message"]


def test_integrate_certifies_the_grid_it_computed(capsys, monkeypatch):
    # the separable route needs no tensor panel cap, and neither does its certificate
    code, out, err = run_cli(
        capsys, "integrate", "--fn", "plane", "--alpha", ".5", "--beta", ".5", "--grid", "9,9", "--panels", "16384"
    )
    assert code == 0 and err is None and "bound ok" in out

    specs = []
    real = fracint.katugampola_2d_grid

    def counting(f, spec, *args, **kwargs):
        specs.append(spec)
        return real(f, spec, *args, **kwargs)

    monkeypatch.setattr(fracint, "katugampola_2d_grid", counting)
    monkeypatch.setattr(cli, "katugampola_2d_grid", counting)
    code, out, _ = run_cli(
        capsys, "integrate", "--fn", "sinxy", "--alpha", ".5", "--beta", ".5", "--grid", "17,17", "--panels", "32"
    )
    assert code == 0 and "bound ok" in out
    assert specs.count(GridSpec(Box(1.0, 2.0, 1.0, 2.0), 17, 17)) == 1


def test_riemann_liouville_huge_order_exits_cleanly(capsys):
    # Gamma(200) overflows float64; the oracle's constant goes through lgamma
    code, out, err = run_cli(
        capsys, "integrate", "--op", "riemann-liouville", "--fn", "plane", "--alpha", "200", "--beta", ".5",
        "--grid", "3,3", "--panels", "8",
    )
    assert (code == 0 and err is None and "value" in out) or (code == 3 and err["code"] == 3)


def test_power_weight_rounding_the_box_away_is_a_numeric_error(capsys):
    # u = s^(p+1) rounds to 1 on the whole box; the answer was a confident 0
    code, out, err = run_cli(
        capsys, "integrate", "--fn", "sinxy", "--alpha", "20", "--beta", ".5", "--p", "-0.9999999999999999",
        "--grid", "3,3", "--panels", "8",
    )
    assert code == 3 and err["code"] == 3 and out == ""


def test_integrate_rejects_weights_for_classical_ops(capsys):
    code, _, err = run_cli(
        capsys, "integrate", "--op", "riemann-liouville", "--fn", "plane", "--alpha", ".5", "--beta", ".5", "--p", "1"
    )
    assert code == 2 and err["parameter"] == "p"


def test_integrate_hadamard_closed_form(capsys):
    e = repr(math.e)
    code, out, _ = run_cli(
        capsys,
        "integrate", "--op", "hadamard", "--fn", "constant:1", "--rect", f"1,{e},1,{e}",
        "--alpha", ".5", "--beta", ".5", "--grid", "3,3",
    )
    assert code == 0
    value = float(out.split("=")[1].strip())
    assert value == pytest.approx(4.0 / math.pi, rel=1e-9)


def test_integrate_domain_error_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "integrate", "--fn", "constant:1", "--rect", "0,1,1,2", "--alpha", ".5", "--beta", ".5"
    )
    assert code == 2 and "a > 0" in err["message"]


def test_integrate_shift_moves_the_box(capsys):
    code, out, _ = run_cli(
        capsys,
        "integrate", "--fn", "parabola-sine", "--shift", "1,1", "--alpha", ".5", "--beta", ".5", "--grid", "5,5",
    )
    assert code == 0
    assert "[1,1.5]x[1,2]" in out


def _one_json_error(capsys, *argv):
    """Run the CLI; return (exit code, the one JSON object stderr must hold)."""
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and captured.out == ""
    return code, json.loads(lines[0])


def test_integrate_too_few_panels_for_the_certificate_writes_nothing(capsys, tmp_path):
    out_path = tmp_path / "grid.csv"
    code, err = _one_json_error(
        capsys,
        "integrate", "--fn", "plane", "--alpha", ".5", "--beta", ".5", "--grid", "2,2", "--panels", "4",
        "--out", str(out_path),
    )
    assert code == 2 and err["parameter"] == "panels"
    assert not out_path.exists()


def test_integrate_failed_certificate_writes_nothing(capsys, monkeypatch, tmp_path):
    def fail(*args, **kwargs):
        raise cli.VerificationError("boundedness violated")

    monkeypatch.setattr(cli, "boundedness_certificate", fail)
    out_path = tmp_path / "grid.csv"
    code, _ = _one_json_error(
        capsys,
        "integrate", "--fn", "plane", "--alpha", ".5", "--beta", ".5", "--grid", "3,3", "--panels", "8",
        "--out", str(out_path),
    )
    assert code == 4
    assert not out_path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("integrate", "--fn", "rational-indicator", "--shift", "1,1", "--grid", "5,5", "--panels", "16"),
        ("integrate", "--fn", "t:rational-indicator", "--shift", "1,1", "--grid", "5,5", "--panels", "16"),
        ("integrate", "--op", "hadamard", "--fn", "rational-indicator", "--shift", "1,1", "--grid", "3,3"),
        ("dimension", "--fn", "rational-indicator", "--integral", "--shift", "1,1", "--grid", "9,9"),
    ],
)
def test_quadrature_unsafe_sources_are_refused(capsys, argv):
    code, err = _one_json_error(capsys, *argv, "--alpha", ".5", "--beta", ".5")
    assert code == 2 and err["parameter"] == "fn"
    assert "quadrature-unsafe" in err["message"]


# ---------------------------------------------------------------------------
# dimension


def test_dimension_plane_slope_two(capsys, tmp_path):
    fit_path = tmp_path / "fit.json"
    code, out, _ = run_cli(
        capsys, "dimension", "--fn", "plane", "--grid", "257,257", "--fit-out", str(fit_path)
    )
    assert code == 0
    doc = json.loads(fit_path.read_text())
    assert 1.9 <= doc["slope"] <= 2.1
    assert doc["r_squared"] >= 0.98
    assert doc["which"] == "lower"


def test_dimension_counts_csv_is_sandwiched(capsys, tmp_path):
    counts = tmp_path / "counts.csv"
    code, _, _ = run_cli(
        capsys,
        "dimension", "--fn", "sinxy", "--grid", "129,129", "--oracle", "--out", str(counts),
    )
    assert code == 0
    rows = counts.read_text().strip().splitlines()
    assert rows[0] == "delta,count_lower,count_upper,count_oracle"
    for row in rows[1:]:
        _, lo, hi, mid = row.split(",")
        assert int(lo) <= int(mid) <= int(hi)


def test_dimension_counts_from_synthetic(capsys, tmp_path):
    path = tmp_path / "syn.csv"
    path.write_text("delta,count\n" + "".join(f"{2.0**-k},{int(4.0**k)}\n" for k in range(1, 6)))
    code, out, _ = run_cli(capsys, "dimension", "--counts-from", str(path))
    assert code == 0
    assert "slope = 2.000000" in out


def test_dimension_counts_from_excludes_fn(capsys, tmp_path):
    path = tmp_path / "syn.csv"
    path.write_text("delta,count\n0.5,4\n0.25,16\n0.125,64\n")
    code, _, err = run_cli(capsys, "dimension", "--counts-from", str(path), "--fn", "plane")
    assert code == 2 and err["parameter"] == "counts-from"


@pytest.mark.parametrize("deltas", ["0.5,abc", ","])
def test_dimension_malformed_deltas_exit_2(capsys, deltas):
    code, _, err = run_cli(capsys, "dimension", "--fn", "plane", "--grid", "33,33", "--deltas", deltas)
    assert code == 2 and err["parameter"] == "deltas"


def test_dimension_counts_from_non_numeric_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("delta,count\n0.5,4\n0.25,many\n")
    code, _, err = run_cli(capsys, "dimension", "--counts-from", str(path))
    assert code == 2 and err["parameter"] == "counts-from"


def test_dimension_counts_from_header_only_prints_one_json_error(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("delta,count\n")
    proc = subprocess.run(
        [sys.executable, "-m", "fracdim2d", "dimension", "--counts-from", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert json.loads(proc.stderr)["parameter"] == "counts-from"  # one JSON object, nothing else


def test_dimension_of_integral_samples_no_f(capsys, monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("f sampled on the grid")

    monkeypatch.setattr(cli, "sample", refuse)
    fit_path = tmp_path / "fit.json"
    code, _, err = run_cli(
        capsys, "dimension", "--fn", "plane", "--grid", "129,129", "--integral", "--alpha", ".5", "--beta", ".5",
        "--panels", "32", "--fit-out", str(fit_path),
    )
    assert code == 0 and err is None
    assert 1.9 <= json.loads(fit_path.read_text())["slope"] <= 2.1


def test_dimension_too_coarse_grid_exit_3(capsys):
    code, _, err = run_cli(
        capsys, "dimension", "--fn", "plane", "--grid", "5,5", "--deltas", "0.001,0.0005,0.00025"
    )
    assert code == 3 and "deltas" in err["message"]


def test_dimension_of_integral(capsys, tmp_path):
    fit_path = tmp_path / "fit.json"
    code, _, _ = run_cli(
        capsys,
        "dimension", "--fn", "plane", "--grid", "129,129", "--integral",
        "--alpha", ".5", "--beta", ".5", "--panels", "32", "--fit-out", str(fit_path),
    )
    assert code == 0
    doc = json.loads(fit_path.read_text())
    assert 1.9 <= doc["slope"] <= 2.1


# the counts files these runs wrote before the fit's counts stopped being
# computed a second time; the bytes must not move
PINNED_COUNTS = [
    (
        ("--fn", "weierstrass", "--grid", "257,257"),
        "delta,count_lower,count_upper\n0.25,133,164\n0.125,740,867\n0.0625,4073,4584\n0.03125,21245,23292\n",
    ),
    (
        ("--fn", "sinxy", "--grid", "129,129", "--oracle", "--which", "upper"),
        "delta,count_lower,count_upper,count_oracle\n0.25,32,60,35\n0.125,126,242,150\n0.0625,505,971,599\n",
    ),
]


@pytest.mark.parametrize("argv,expected", PINNED_COUNTS)
def test_dimension_counts_file_bytes_are_pinned(capsys, tmp_path, argv, expected):
    path = tmp_path / "counts.csv"
    code, _, err = run_cli(capsys, "dimension", *argv, "--out", str(path))
    assert code == 0 and err is None
    assert path.read_bytes() == expected.encode()


def test_dimension_without_out_counts_only_for_the_fit(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("counts computed again for a file nobody asked for")

    monkeypatch.setattr(cli, "oscillation_counts", refuse)
    code, out, err = run_cli(capsys, "dimension", "--fn", "weierstrass", "--grid", "257,257")
    assert code == 0 and err is None and "slope = 2.441915" in out


def test_dimension_oracle_without_out_counts_nothing_and_prints_the_same(capsys, monkeypatch):
    argv = ("dimension", "--fn", "sinxy", "--grid", "129,129")
    code, plain, err = run_cli(capsys, *argv)
    assert code == 0 and err is None

    def refuse(*args, **kwargs):
        raise AssertionError("direct 3-d counts computed for a file nobody asked for")

    monkeypatch.setattr(cli, "boxcount_bruteforce_3d", refuse)
    code, out, err = run_cli(capsys, *argv, "--oracle")
    assert code == 0 and err is None and out == plain


# ---------------------------------------------------------------------------
# variation


def test_variation_constant_is_zero(capsys):
    code, out, _ = run_cli(capsys, "variation", "--fn", "constant:5", "--grid", "9,9")
    assert code == 0
    assert ": 0 (path of 1 nodes)" in out


def test_variation_checkerboard_csv(capsys, tmp_path):
    path = tmp_path / "chk.csv"
    path.write_text("x,y,value\n0,0,0\n0,1,1\n1,0,1\n1,1,0\n")
    out_json = tmp_path / "var.json"
    code, out, _ = run_cli(capsys, "variation", "--fn", f"csv:{path}", "--out", str(out_json))
    assert code == 0
    doc = json.loads(out_json.read_text())
    assert doc["value"] == 2.0
    assert len(doc["path"]) == 3


def test_variation_trend_of_staircase_increases(capsys, tmp_path):
    out_json = tmp_path / "trend.json"
    code, _, _ = run_cli(
        capsys, "variation", "--fn", "t-parabola-sine", "--trend", "--levels", "16,32,64", "--out", str(out_json)
    )
    assert code == 0
    levels = json.loads(out_json.read_text())["levels"]
    vals = [v for _, v in levels]
    assert vals[0] < vals[1] < vals[2]


def test_variation_trend_needs_levels(capsys):
    code, _, err = run_cli(capsys, "variation", "--fn", "plane", "--trend")
    assert code == 2 and err["parameter"] == "levels"


def test_variation_trend_oversized_level_is_a_size_error(capsys):
    # 200000^2 nodes would ask numpy for 298 GiB; refused before allocating
    code, out, err = run_cli(capsys, "variation", "--fn", "t-parabola-sine", "--trend", "--levels", "2,3,200000")
    assert code == 3 and err["code"] == 3 and "budget" in err["message"] and out == ""


# ---------------------------------------------------------------------------
# construct


def test_construct_round_trip_reproduces_nodes(capsys, tmp_path):
    path = tmp_path / "t.csv"
    code, _, _ = run_cli(capsys, "construct", "--fn", "t-parabola-sine", "--grid", "17,17", "--out", str(path))
    assert code == 0
    direct = run_cli(capsys, "variation", "--fn", "t-parabola-sine", "--grid", "17,17")
    again = run_cli(capsys, "variation", "--fn", f"csv:{path}")
    assert direct[1].split(":")[-1] == again[1].split(":")[-1]


def test_construct_first_slice_matches_seed(capsys, tmp_path):
    t_path = tmp_path / "t.csv"
    s_path = tmp_path / "seed.csv"
    run_cli(capsys, "construct", "--fn", "t-parabola-sine", "--grid", "9,5", "--out", str(t_path))
    run_cli(capsys, "construct", "--fn", "parabola-sine", "--grid", "5,5", "--out", str(s_path))
    t = read_samples_csv(str(t_path))
    s = read_samples_csv(str(s_path))
    # the left half of the construction grid covers [0, 0.5] = the seed box
    assert np.array_equal(t.matrix[:5, :], s.matrix)


def test_construct_seam_violation_exit_2(capsys):
    code, _, err = run_cli(capsys, "construct", "--fn", "t:plane")
    assert code == 2 and "seam" in err["message"]


def test_construct_oversized_grid_is_a_size_error(capsys, tmp_path):
    path = tmp_path / "big.csv"
    code, out, err = run_cli(capsys, "construct", "--fn", "sinxy", "--grid", "200000,200000", "--out", str(path))
    assert code == 3 and err["code"] == 3 and "budget" in err["message"] and out == ""
    assert not path.exists()


def test_construct_unknown_function_exit_2(capsys):
    code, _, err = run_cli(capsys, "construct", "--fn", "zeppelin")
    assert code == 2 and "zeppelin" in err["message"]


# ---------------------------------------------------------------------------
# verify


def test_verify_passing_suites(capsys, tmp_path):
    report = tmp_path / "rep.json"
    code, out, _ = run_cli(capsys, "verify", "semigroup", "--fn", "constant:1", "--out", str(report))
    assert code == 0 and "checks passed" in out
    doc = json.loads(report.read_text())
    assert doc["passed"] is True
    assert all({"name", "gap", "tolerance", "passed"} <= set(c) for c in doc["checks"])
    code, _, _ = run_cli(capsys, "verify", "separable", "--g", "constant:1")
    assert code == 0


def test_verify_unknown_suite_exit_2(capsys):
    code, _, err = run_cli(capsys, "verify", "nonesuch")
    assert code == 2 and err["parameter"] == "suite"


def test_verify_failed_checks_exit_4(capsys, monkeypatch, tmp_path):
    from fracdim2d.verify import Check, SuiteReport

    fake = SuiteReport(
        suite="semigroup",
        scale="quick",
        checks=(Check(name="semigroup:x", gap=1.0, tolerance=0.1, passed=False),),
    )
    monkeypatch.setattr(cli, "run_suite", lambda *a, **k: fake)
    report = tmp_path / "rep.json"
    code, out, err = run_cli(capsys, "verify", "semigroup", "--out", str(report))
    assert code == 4
    assert "failed: semigroup:x" in out
    assert err["code"] == 4
    assert json.loads(report.read_text())["passed"] is False


# ---------------------------------------------------------------------------
# shared plumbing


def test_no_subcommand_exit_2(capsys):
    code, _, err = run_cli(capsys)
    assert code == 2 and "subcommand" in err["message"]


def test_unknown_flag_exit_2(capsys):
    code, _, err = run_cli(capsys, "integrate", "--zap")
    assert code == 2 and err["code"] == 2


def test_bad_rect_and_grid_strings(capsys):
    code, _, err = run_cli(capsys, "integrate", "--fn", "plane", "--alpha", "1", "--beta", "1", "--rect", "1,2,1")
    assert code == 2 and err["parameter"] == "rect"
    code, _, err = run_cli(capsys, "variation", "--fn", "plane", "--grid", "9x9")
    assert code == 2 and err["parameter"] == "grid"


def test_missing_csv_file_exit_2(capsys):
    code, _, err = run_cli(capsys, "variation", "--fn", "csv:/no/such/file.csv")
    assert code == 2


def test_outputs_byte_identical_across_thread_counts(capsys, tmp_path, monkeypatch):
    blobs = {}
    for label, threads in (("a", "1"), ("b", "8")):
        monkeypatch.setenv("FRACDIM2D_THREADS", threads)
        path = tmp_path / f"{label}.csv"
        code, _, _ = run_cli(
            capsys, "integrate", "--fn", "sinxy", "--alpha", ".5", "--beta", ".5",
            "--grid", "17,17", "--panels", "32", "--out", str(path),
        )
        assert code == 0
        blobs[label] = path.read_bytes()
    assert blobs["a"] == blobs["b"]


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "fracdim2d", "variation", "--fn", "constant:1", "--grid", "5,5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "variation" in proc.stdout
