import hashlib
import json
import math
import re
import subprocess
import sys
import time

import numpy as np
import pytest

import fracdim2d.cli as cli
import fracdim2d.core as core
import fracdim2d.fracint as fracint
from fracdim2d import Box, GridSpec, ParameterError, make_source, read_samples_csv, read_samples_json, sample, write_samples_csv
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


def test_integrate_p_minus_one_points_to_hadamard(capsys, tmp_path):
    # p = q = -1 is the Hadamard member of the family: on the tensor route it writes --op hadamard's bytes
    common = ("integrate", "--fn", "sinxy", "--shift", "1,1", "--alpha", ".5", "--beta", ".3", "--grid", "5,4", "--panels", "32")
    code, out, err = run_cli(capsys, *common, "--p", "-1", "--q", "-1", "--method", "tensor", "--out", str(tmp_path / "k.csv"))
    assert code == 0 and err is None and "bound ok" in out
    code, _, err = run_cli(capsys, *common, "--op", "hadamard", "--out", str(tmp_path / "h.csv"))
    assert code == 0 and err is None
    assert (tmp_path / "k.csv").read_bytes() == (tmp_path / "h.csv").read_bytes()
    code, _, err = run_cli(capsys, *common, "--p", "-1.5")
    assert code == 2 and err["parameter"] == "p" and "at least -1" in err["message"]


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
    # in the coordinate u of any weight the constant is 1/Gamma(order)
    for order in (0.3, 0.5, 1.0, 2.5):
        assert math.exp(log_normaliser(order)) == pytest.approx(1.0 / math.gamma(order), rel=1e-13)
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


def test_power_weight_next_to_minus_one_meets_the_hadamard_member(capsys, tmp_path):
    # s^(p+1) rounds to 1 on the whole box here; expm1(rho log s)/rho keeps the box, so the
    # grid is within O(rho) = 1.1e-16 of the p = -1 grid
    grids = []
    for p in ("-0.9999999999999999", "-1"):
        path = tmp_path / f"{p}.csv"
        code, out, err = run_cli(
            capsys, "integrate", "--fn", "sinxy", "--alpha", "20", "--beta", ".5", "--p", p,
            "--grid", "3,3", "--panels", "8", "--out", str(path),
        )
        assert code == 0 and err is None and "bound ok" in out
        grids.append(read_samples_csv(str(path)).values)
    near, had = grids
    assert np.max(np.abs(had)) > 0.0
    assert np.max(np.abs(near - had)) <= 1e-14 * np.max(np.abs(had))


@pytest.mark.parametrize("p", ["-1", "-0.99"])
def test_box_narrower_than_its_coordinates_is_a_numeric_error(capsys, p):
    # log s does not move across the box; the answer would be a confident 0
    code, out, err = run_cli(
        capsys, "integrate", "--fn", "constant:1", "--rect", "1e6,1000000.0000000003,1,2", "--alpha", ".5",
        "--beta", ".5", "--p", p, "--grid", "3,3", "--panels", "8",
    )
    assert code == 3 and out == "" and "too narrow" in err["message"]


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


@pytest.mark.parametrize(
    "row, parameter",
    [("-0.125,64", "deltas"), ("0,64", "deltas"), ("0.125,64.7", "counts")],
)
def test_dimension_counts_from_bad_row_is_a_parameter_error(capsys, tmp_path, row, parameter):
    # a delta that is not positive, or a count that is not an integer, is refused, not fitted or truncated
    path = tmp_path / "counts.csv"
    path.write_text(f"delta,count\n0.5,4\n0.25,16\n{row}\n")
    code, err = _one_json_error(capsys, "dimension", "--counts-from", str(path))
    assert code == 2 and err["parameter"] == parameter


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


@pytest.mark.parametrize("deltas", ["1e-12,1e-13,1e-14", "1e-300", "5e-324"])
def test_dimension_deltas_finer_than_the_grid_exit_3(capsys, deltas):
    # each delta is dropped before its cell windows are sized, so the fit has no points
    t0 = time.perf_counter()
    code, err = _one_json_error(capsys, "dimension", "--fn", "sinxy", "--grid", "9,9", "--deltas", deltas)
    assert time.perf_counter() - t0 < 1.0
    assert code == 3 and "usable deltas" in err["message"]


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


class _Reached(Exception):
    """Raised by a patched callee: the command got as far as calling it."""


def test_dimension_without_out_counts_only_for_the_fit(capsys, monkeypatch, tmp_path):
    ladders, brute = [], []
    real = cli._ladder

    def counted(gs, deltas):
        ladders.append(list(deltas))
        return real(gs, deltas)

    def refuse(gs, delta):
        brute.append(delta)
        raise _Reached("direct 3-d counts")

    monkeypatch.setattr(cli, "_ladder", counted)
    monkeypatch.setattr(cli, "boxcount_bruteforce_3d", refuse)
    argv = ["dimension", "--fn", "weierstrass", "--grid", "257,257"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err is None and "slope = 2.441915" in out
    assert len(ladders) == 1 and brute == []
    # positive control: both patches sit on names cmd_dimension calls
    with pytest.raises(_Reached):
        cli.main(argv + ["--oracle", "--out", str(tmp_path / "counts.csv")])
    assert len(ladders) == 2 and len(brute) == 1


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


def _outcomes(capsys, calls):
    results = []
    for argv in calls:
        code = cli.main(argv)
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err))
    return results


def test_reused_parser_leaks_no_state_between_calls(capsys, monkeypatch, tmp_path):
    path = tmp_path / "syn.csv"
    path.write_text("delta,count\n0.5,5\n0.25,17\n0.125,70\n0.0625,260\n")
    calls = [
        ["integrate", "--fn", "constant:1", "--rect", "1,2,1,2", "--alpha", ".5", "--beta", ".5", "--grid", "3,3", "--panels", "8"],
        ["dimension", "--counts-from", str(path), "--which", "upper"],
        ["dimension", "--fn", "plane", "--grid", "33,33", "--deltas", "0.5,abc"],
        ["dimension", "--counts-from", str(path)],
    ]
    shared = _outcomes(capsys, calls)
    assert cli._shared_parser() is cli._shared_parser()
    monkeypatch.setattr(cli, "_shared_parser", cli.build_parser)
    fresh = _outcomes(capsys, calls)
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 2, 0]
    assert "(upper)" in shared[1][1] and "(lower)" in shared[3][1]


def test_help_exits_0_with_the_shared_parser(capsys):
    for argv in (["--help"], ["dimension", "--help"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        assert "usage: fracdim2d" in capsys.readouterr().out
    code, out, err = run_cli(capsys, "variation", "--fn", "constant:1", "--grid", "5,5")
    assert code == 0 and err is None and out.startswith("variation")


def test_parser_is_not_built_at_import():
    proc = subprocess.run(
        [sys.executable, "-c", "import fracdim2d.cli as c; print(c._shared_parser.cache_info().currsize)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "0"


@pytest.mark.parametrize("fn", ["sinxy", "plane"])
def test_integrate_over_the_work_budget_is_a_size_error(capsys, fn):
    # sinxy takes the two-axis mesh, whose G buffer alone would be 298 GiB;
    # plane takes the split mesh, whose weights would run for minutes
    code, out, err = run_cli(
        capsys, "integrate", "--fn", fn, "--alpha", ".5", "--beta", ".5", "--grid", "200000,200000", "--panels", "8"
    )
    assert code == 3 and out == ""
    assert err["code"] == 3 and "budget" in err["message"]


# ---------------------------------------------------------------------------
# one ladder of counts, malformed sample files, the point-operator budget


def test_dimension_out_takes_both_bounds_from_the_one_ladder(capsys, monkeypatch, tmp_path):
    calls = []
    real = cli._ladder

    def counted(gs, deltas):
        calls.append(list(deltas))
        return real(gs, deltas)

    monkeypatch.setattr(cli, "_ladder", counted)
    path = tmp_path / "counts.csv"
    code, _, err = run_cli(capsys, "dimension", "--fn", "weierstrass", "--grid", "257,257", "--out", str(path))
    assert code == 0 and err is None and len(calls) == 1
    assert path.read_text() == PINNED_COUNTS[0][1]


_GOOD_CSV = "x,y,value\n0,0,1\n0,1,2\n1,0,3\n1,1,4\n"
_GOOD_JSON = '{"rect": {"a": 0, "b": 1, "c": 0, "d": 1}, "m": 2, "n": 2, "values": [1, 2, 3, 4]}'


@pytest.mark.parametrize(
    "name,body",
    [
        ("abc.csv", _GOOD_CSV.replace("0,0,1", "0,0,abc")),
        ("hex.csv", _GOOD_CSV.replace("0,0,1", "0,0,0x10")),
        ("underscore.csv", _GOOD_CSV.replace("0,0,1", "0,0,1_0")),
        ("short-row.csv", _GOOD_CSV.replace("0,0,1", "0,0")),
        ("long-row.csv", _GOOD_CSV.replace("0,0,1", "0,0,1,5")),
        ("header-only.csv", "x,y,value\n"),
        ("truncated.json", _GOOD_JSON[:60]),
        ("text-value.json", _GOOD_JSON.replace("[1, 2, 3, 4]", '[1, 2, "x", 4]')),
        ("text-m.json", _GOOD_JSON.replace('"m": 2', '"m": "x"')),
        ("list.json", "[1, 2]"),
        ("deep.json", "[" * 100000 + "]" * 100000),
        ("nan-x.csv", _GOOD_CSV.replace("1,0,3", "nan,0,3")),  # a coordinate, not a value
        ("overflow.json", _GOOD_JSON.replace("[1, 2, 3, 4]", "[1, 1e999, 3, 4]")),  # decodes to inf
    ],
)
def test_malformed_sample_files_exit_2_naming_fn(capsys, tmp_path, name, body):
    path = tmp_path / name
    path.write_text(body)
    kind = name.rsplit(".", 1)[1]
    code, err = _one_json_error(capsys, "variation", "--fn", f"{kind}:{path}")
    assert code == 2 and err["parameter"] == "fn" and name in err["message"]


_JSON_TOKENS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("kind", ["csv", "json"])
def test_non_finite_sample_cells_exit_2_naming_fn(capsys, tmp_path, kind, cell):
    if kind == "csv":
        body = _GOOD_CSV.replace("0,1,2", f"0,1,{cell}")
    else:
        body = _GOOD_JSON.replace("[1, 2, 3, 4]", f"[1, {_JSON_TOKENS[cell]}, 3, 4]")
    path = tmp_path / f"cells.{kind}"
    path.write_text(body)
    code, err = _one_json_error(capsys, "variation", "--fn", f"{kind}:{path}")
    assert code == 2 and err["parameter"] == "fn" and str(path) in err["message"]
    with pytest.raises(ParameterError, match="finite"):
        (read_samples_csv if kind == "csv" else read_samples_json)(str(path))


# each case in both formats; the messages come from Box, GridSpec, GridSamples or the reader itself
_FILE_FAULTS = {
    "value-count": (
        "x,y,value\n0,0,1\n0,1,2\n1,0,3\n",
        _GOOD_JSON.replace("[1, 2, 3, 4]", "[1, 2, 3]"),
    ),
    "nan-rect": (
        _GOOD_CSV.replace("1,0,3", "nan,0,3"),
        _GOOD_JSON.replace('"a": 0', '"a": NaN'),
    ),
    "one-row": (
        "x,y,value\n0,0,1\n0,0.5,2\n0,0.75,3\n0,1,4\n",
        _GOOD_JSON.replace('"m": 2', '"m": 1').replace("[1, 2, 3, 4]", "[1, 2]"),
    ),
    "flat-y": (
        _GOOD_CSV.replace("0,1,2", "0,0,2").replace("1,1,4", "1,0,4"),
        _GOOD_JSON.replace('"d": 1', '"d": 0'),
    ),
}


@pytest.mark.parametrize("kind", ["csv", "json"])
@pytest.mark.parametrize("fault", sorted(_FILE_FAULTS))
def test_sample_file_faults_name_the_file(capsys, tmp_path, fault, kind):
    path = tmp_path / f"{fault}.{kind}"
    path.write_text(_FILE_FAULTS[fault][kind == "json"])
    code, err = _one_json_error(capsys, "variation", "--fn", f"{kind}:{path}")
    assert code == 2 and err["parameter"] == "fn" and err["message"].startswith(f"{path}: ")
    with pytest.raises(ParameterError, match=f"^{re.escape(str(path))}: "):
        (read_samples_csv if kind == "csv" else read_samples_json)(str(path))


@pytest.mark.parametrize("kmax", ["2000", "100000000"])
def test_weierstrass_kmax_past_float64_phase_is_one_json_error(capsys, kmax):
    # 2000 overflowed lam^k into RuntimeWarnings before a JSON error; 10^8 ran for over a minute
    argv = ["construct", "--fn", f"weierstrass:2,2.5,{kmax}", "--grid", "9,9"]
    t0 = time.perf_counter()
    code, err = _one_json_error(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and err["parameter"] == "fn" and "2^53" in err["message"]
    # a fresh interpreter, whose warning registry hides nothing: stderr is that one object
    proc = subprocess.run([sys.executable, "-m", "fracdim2d", *argv], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == "" and json.loads(proc.stderr) == err


def test_well_formed_sample_files_still_read(capsys, tmp_path):
    for name, body in (("good.csv", _GOOD_CSV), ("good.json", _GOOD_JSON)):
        path = tmp_path / name
        path.write_text(body)
        code, out, err = run_cli(capsys, "variation", "--fn", f"{name.rsplit('.', 1)[1]}:{path}")
        assert code == 0 and err is None and "on 2x2 grid: 3 " in out


def test_header_only_sample_file_prints_one_json_error(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("x,y,value\n")
    proc = subprocess.run(
        [sys.executable, "-m", "fracdim2d", "dimension", "--fn", f"csv:{path}"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert json.loads(proc.stderr)["parameter"] == "fn"  # one JSON object, no warning before it


def _sinxy_csv(path, m: int) -> None:
    write_samples_csv(sample(make_source("sinxy"), GridSpec(Box(1.0, 2.0, 1.0, 2.0), m, m)), str(path))


def test_sampled_integrate_at_129_takes_the_knot_mesh_in_under_a_second(capsys, tmp_path):
    path = tmp_path / "s129.csv"
    _sinxy_csv(path, 129)
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "integrate", "--fn", f"csv:{path}", "--grid", "129,129", "--panels", "64", "--alpha", ".5", "--beta", ".5")
    assert time.perf_counter() - t0 < 1.0
    # the exact integral of the bilinear interpolant: within its interpolation error of sinxy's
    value = float(out.split("= ")[1])
    assert code == 0 and err is None and abs(value - 0.34218882577947983698) < 1e-5


def test_oversized_sampled_integrate_is_refused_before_it_allocates(capsys, monkeypatch, tmp_path):
    path = tmp_path / "s33.csv"
    _sinxy_csv(path, 33)

    def refuse(*args, **kwargs):
        raise _Reached("mesh built")

    monkeypatch.setattr(fracint, "_mesh", refuse)
    monkeypatch.setattr(fracint, "_tensor", refuse)
    budget = core._BUDGET["operations"]
    monkeypatch.setitem(core._BUDGET, "operations", 1000)
    code, err = _one_json_error(capsys, "integrate", "--fn", f"csv:{path}", "--grid", "33,33", "--alpha", ".5", "--beta", ".5")
    assert code == 3 and "mesh-2d route" in err["message"] and "budget" in err["message"]
    monkeypatch.setitem(core._BUDGET, "operations", budget)
    with pytest.raises(_Reached):
        cli.main(["integrate", "--fn", f"csv:{path}", "--grid", "33,33", "--alpha", ".5", "--beta", ".5"])


@pytest.mark.parametrize("route", ["mesh-split", "mesh-2d"])
def test_overflowing_integral_is_one_json_object(tmp_path, route):
    # a split constant and a sampled grid of the same level: the sums overflow in the hat rule
    if route == "mesh-split":
        fn = "constant:1e308"
    else:
        path = tmp_path / "huge.csv"
        path.write_text("x,y,value\n" + "".join(f"{x},{y},1e308\n" for x in (1, 1.5, 2) for y in (1, 1.5, 2)))
        fn = f"csv:{path}"
    argv = ["integrate", "--fn", fn, "--grid", "9,9", "--alpha", ".5", "--beta", ".5"]
    proc = subprocess.run([sys.executable, "-m", "fracdim2d", *argv], capture_output=True, text=True, timeout=60)
    err = json.loads(proc.stderr)  # the one object, with no RuntimeWarning before it
    assert proc.returncode == 3 and proc.stdout == "" and err["code"] == 3 and "overflows" in err["message"]


def test_weierstrass_term_budget_is_one_json_error(capsys):
    argv = ["construct", "--fn", "weierstrass:1.00001,2.5,2000000", "--grid", "9,9"]
    t0 = time.perf_counter()
    code, err = _one_json_error(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 3 and "kmax=2000000" in err["message"] and "budget" in err["message"]
    proc = subprocess.run([sys.executable, "-m", "fracdim2d", *argv], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3 and proc.stdout == "" and json.loads(proc.stderr) == err


@pytest.mark.parametrize("op", ["hadamard", "riemann-liouville"])
def test_point_operator_loop_over_budget_exits_3_before_it_starts(capsys, monkeypatch, op):
    def refuse(*args, **kwargs):
        raise _Reached("classical operator called")

    # the library checks the budget first: the contraction and the oracle's axis clipping come after it
    monkeypatch.setattr(fracint, "_tensor", refuse)
    monkeypatch.setattr(fracint, "_clip_axes", refuse)
    argv = ["integrate", "--op", op, "--fn", "constant:2", "--alpha", ".5", "--beta", ".5"]
    t0 = time.perf_counter()
    code, err = _one_json_error(capsys, *argv, "--grid", "3000,3000")
    assert time.perf_counter() - t0 < 1.0
    assert code == 3 and "evaluations; the budget is" in err["message"]
    # positive control: under the budget the same patches are reached
    with pytest.raises(_Reached):
        cli.main(argv + ["--grid", "3,3"])


@pytest.mark.parametrize("op", ["riemann-liouville", "hadamard"])
@pytest.mark.parametrize("grid", ["2000000000,2", "2,2000000000"])
def test_oversized_point_operator_grid_is_refused_before_any_axis_is_built(capsys, monkeypatch, op, grid):
    # one axis of 2e9 nodes is 16 GB of float64: the budget must speak before GridSpec.xs or ys runs
    def refuse(self):
        raise _Reached("axis built")

    monkeypatch.setattr(GridSpec, "xs", refuse)
    monkeypatch.setattr(GridSpec, "ys", refuse)
    argv = ["integrate", "--op", op, "--fn", "constant:2", "--alpha", ".5", "--beta", ".5"]
    code, err = _one_json_error(capsys, *argv, "--grid", grid)
    assert code == 3 and re.match(f"a {grid.replace(',', 'x')} grid at 64 panels .* entries; the budget is", err["message"])
    with pytest.raises(_Reached):  # positive control: under the budget the patches are reached
        cli.main(argv + ["--grid", "3,3"])


def test_tensor_route_over_the_evaluation_budget_exits_3_before_it_starts(capsys, monkeypatch):
    # 32^2 outputs at 8192 panels are 2^36 source evaluations, 15-20 minutes of work
    def refuse(*args, **kwargs):
        raise _Reached("contraction started")

    monkeypatch.setattr(fracint, "_tensor", refuse)
    argv = ["integrate", "--fn", "sinxy", "--method", "tensor", "--alpha", ".5", "--beta", ".5", "--grid", "32,32"]
    t0 = time.perf_counter()
    code, err = _one_json_error(capsys, *argv, "--panels", "8192")
    assert time.perf_counter() - t0 < 1.0
    assert code == 3 and "(tensor route) needs about 6.87195e+10 evaluations; the budget is" in err["message"]
    with pytest.raises(_Reached):
        cli.main(argv + ["--panels", "64"])


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("verify", "special-cases", "--scale", "full"), "833b61c9b6758e2170ad1cae2eb23b14041c2ed70c1582efdef7cc0d2248e224"),
        (
            ("integrate", "--op", "riemann-liouville", "--fn", "plane", "--alpha", ".5", "--beta", ".5", "--grid", "17,17"),
            "1a227112ec685548722be5e4d773e940d8a9b58fcbf9e79ddca587adbe4c300c",
        ),
        (
            ("integrate", "--op", "hadamard", "--fn", "constant:1", "--rect", f"1,{math.e!r},1,{math.e!r}",
             "--alpha", ".5", "--beta", ".5", "--grid", "3,3"),
            "7445e0c9da5ccc4774c6732ea9506ef5e16c5dd501c4c7e50efbb31e483e7621",
        ),
        (
            ("integrate", "--op", "hadamard", "--fn", "sinxy", "--shift", "1,1",
             "--alpha", ".5", "--beta", ".5", "--grid", "9,9"),
            "e5b5c8e476914ec15067d8587b183acb5b6c35dae799083b087f9d5da47b4d12",
        ),
    ],
)
def test_classical_operator_artifacts_keep_their_bytes(capsys, tmp_path, argv, digest):
    # digests of the files these commands wrote when each node was its own point call; the
    # special-cases report re-pinned when it gained hadamard-rate and hadamard-limit's gap
    # moved by rounding (3.4658158906e-05 -> 3.4658159796e-05)
    path = tmp_path / "artifact"
    code, _, err = run_cli(capsys, *argv, "--out", str(path))
    assert code == 0 and err is None
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
