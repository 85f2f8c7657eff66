import hashlib
import json
import math
import pathlib
import re
import shlex
import subprocess
import sys
import time

import numpy as np
import pytest

import fracdim2d.cli as cli
import fracdim2d.core as core
import fracdim2d.fracint as fracint
from fracdim2d import Box, GridSpec, ParameterError, default_box, make_source, read_samples_csv, read_samples_json, sample, write_samples_csv
from fracdim2d.special import log_normaliser

from closed_form import constant_integral


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
    # the split mesh needs no tensor panel cap, and neither does its certificate
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


def test_separable_meets_the_split_mesh_operations_budget(capsys, monkeypatch):
    # two meshes of 1002052 nodes for 1025 outputs each, 40 operations a hat weight: 8.2e10 against 2^36,
    # refused before either mesh is built
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(fracint, "_mesh", refuse)
    argv = "dimension --fn plane --integral --alpha .5 --beta .5 --method separable --panels 1000000 --grid 1025,1025"
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 3 and out == ""
    assert err["message"] == (
        "a 1025x1025 grid at 1000000 panels (mesh-split route) needs about 8.21683e+10 operations; the budget is 6.87195e+10"
    )


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
def test_box_within_one_spacing_of_log_s_meets_the_closed_form(capsys, p):
    # log s does not move across the box, which was refused; u anchored at the lower limit keeps its width
    argv = ["integrate", "--fn", "constant:1", "--rect", "1e6,1000000.0000000003,1,2", "--alpha", ".5", "--beta", ".5",
            "--p", p, "--grid", "3,3", "--panels", "8"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err is None
    value = float(re.search(r"value\([^)]*\) = (\S+);", out).group(1))
    exact = constant_integral(1.0, 1e6, 1000000.0000000003, 1.0, 2.0, 0.5, 0.5, float(p), 0.0)
    assert abs(value - float(exact)) <= 1e-13 * float(exact)
    # at p = 0 u is s, and the split mesh's nodes, 3.75e-11 apart, round together below the float spacing at 1e6
    code, out, err = run_cli(capsys, *argv[:-6], "--grid", "3,3", "--panels", "8", "--method", "auto")
    assert code == 3 and out == "" and "too narrow" in err["message"]


@pytest.mark.parametrize("rect, p", [("1e-25,1,1,2", "12"), ("1e-16,1,1,2", "20"), ("1e-300,1e9,1,2", "1"), ("1e-10,1,1,2", "30")])
def test_wide_box_at_a_large_weight_meets_the_closed_form(capsys, rect, p):
    # lo^rho is 0 or subnormal here, or the ratio of the ends leaves float64: the inverse map once
    # formed them, and these runs exited 3 with a divide by zero or an overflow
    a, b, c, d = map(float, rect.split(","))
    for method in ("tensor", "auto"):
        code, out, err = run_cli(capsys, "integrate", "--fn", "constant:2", "--rect", rect, "--alpha", ".5", "--beta", ".5",
                                 "--p", p, "--grid", "3,3", "--method", method)
        assert code == 0 and err is None, (method, err)
        value = float(re.search(r"value\([^)]*\) = (\S+);", out).group(1))
        exact = float(constant_integral(2.0, a, b, c, d, 0.5, 0.5, float(p), 0.0))
        assert abs(value - exact) <= 1e-13 * exact, method


def test_integrate_rejects_weights_for_classical_ops(capsys):
    code, _, err = run_cli(
        capsys, "integrate", "--op", "riemann-liouville", "--fn", "plane", "--alpha", ".5", "--beta", ".5", "--p", "1"
    )
    assert code == 2 and err["parameter"] == "p"
    # a weight of 0 is a weight given, too: hadamard's own weights are -1
    for flag in ("--p", "--q"):
        code, out, err = run_cli(
            capsys, "integrate", "--op", "hadamard", "--fn", "constant:1", "--rect", "1,2,1,2", "--alpha", ".5", "--beta", ".5",
            "--grid", "3,3", flag, "0",
        )
        assert (code, out, err["parameter"]) == (2, "", flag[2:])


@pytest.mark.parametrize("op", ["riemann-liouville", "hadamard"])
def test_integrate_classical_ops_refuse_method(capsys, op):
    # each classical op has one route, so a --method given with it is refused, not ignored
    code, out, err = run_cli(
        capsys, "integrate", "--op", op, "--fn", "plane", "--rect", "1,2,1,2", "--alpha", ".5", "--beta", ".5", "--method", "magic"
    )
    assert (code, out, err["parameter"]) == (2, "", "method")


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


_ORDERS = ("--alpha", ".5", "--beta", ".5")


@pytest.mark.parametrize(
    "argv",
    [
        ("integrate", "--fn", "rational-indicator", "--shift", "1,1", "--grid", "5,5", "--panels", "16", *_ORDERS),
        ("integrate", "--fn", "t:rational-indicator", "--shift", "1,1", "--grid", "5,5", "--panels", "16", *_ORDERS),
        ("integrate", "--op", "hadamard", "--fn", "rational-indicator", "--shift", "1,1", "--grid", "3,3", *_ORDERS),
        ("dimension", "--fn", "rational-indicator", "--integral", "--shift", "1,1", "--grid", "9,9", *_ORDERS),
    ]
    # every suite that takes --fn, at both scales: none reports a number for the source
    + [
        ("verify", suite, "--fn", fn, "--scale", scale)
        for suite in ("semigroup", "special-cases", "boundedness", "bv-preservation", "dimension-bounds", "sandwich")
        for fn, scale in (("rational-indicator", "quick"), ("t:rational-indicator", "full"))
    ],
)
def test_quadrature_unsafe_sources_are_refused(capsys, argv):
    code, err = _one_json_error(capsys, *argv)
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
    code, out, err = run_cli(capsys, "dimension", "--counts-from", str(path), "--fn", "plane")
    assert (code, out, err["parameter"]) == (2, "", "fn")


def test_dimension_counts_from_writes_the_fit(capsys, tmp_path):
    path = tmp_path / "syn.csv"
    path.write_text("delta,count\n" + "".join(f"{2.0**-k},{int(4.0**k) + 3 * k}\n" for k in range(1, 6)))
    fit_path = tmp_path / "fit.json"
    code, out, err = run_cli(capsys, "dimension", "--counts-from", str(path), "--which", "upper", "--fit-out", str(fit_path))
    assert code == 0 and err is None and "(upper): slope = 1.803391" in out
    assert json.loads(fit_path.read_text())["points"] == [[0.5, 7], [0.25, 22], [0.125, 73], [0.0625, 268], [0.03125, 1039]]
    assert hashlib.sha256(fit_path.read_bytes()).hexdigest() == "ed0bd5a51c185939d4fb638bd8409a13c2e1ea74fbf40a49a8e59298c256a222"


@pytest.mark.parametrize("oracle", [(), ("--oracle",)])
@pytest.mark.parametrize("which", ["lower", "upper"])
def test_dimension_counts_from_refits_the_bound_out_wrote(capsys, tmp_path, which, oracle):
    # --counts-from reads the --which column of the delta,count_lower,count_upper[,count_oracle] file
    # that --out writes, so the refit is the fit; the upper refit read count_lower: 2.441915, not 2.385249
    counts, fit, refit = (tmp_path / name for name in ("c.csv", "f.json", "g.json"))
    argv = ("dimension", "--fn", "weierstrass", "--grid", "257,257", "--which", which, *oracle, "--out", str(counts))
    assert run_cli(capsys, *argv, "--fit-out", str(fit))[0] == 0
    assert run_cli(capsys, "dimension", "--counts-from", str(counts), "--which", which, "--fit-out", str(refit))[0] == 0
    assert json.loads(refit.read_text())["slope"] == json.loads(fit.read_text())["slope"]


@pytest.mark.parametrize("flag,value", [("alpha", "-5"), ("beta", ".5"), ("p", "nan"), ("q", "0"), ("panels", "0"), ("method", "magic")])
def test_dimension_without_integral_refuses_operator_flags(capsys, tmp_path, flag, value):
    # no operator runs, so a flag that sets one would be ignored: it is refused, naming the flag
    code, err = _one_json_error(capsys, "dimension", "--fn", "sinxy", "--grid", "129,129", f"--{flag}", value)
    assert code == 2 and err["parameter"] == flag and err["message"] == f"--{flag} is not read by dimension; drop it"
    path = tmp_path / "counts.csv"
    path.write_text("delta,count\n0.5,4\n0.25,16\n0.125,64\n")
    code, err = _one_json_error(capsys, "dimension", "--counts-from", str(path), f"--{flag}", value)
    assert code == 2 and err["parameter"] == flag


@pytest.mark.parametrize(
    "flag,value",
    [("out", "@counts-out.csv"), ("oracle", None), ("deltas", "0.3"), ("grid", "5,5"), ("rect", "0,1,0,1"), ("shift", "1,1"), ("integral", None)],
)
def test_dimension_counts_from_refuses_flags_that_read_a_grid(capsys, tmp_path, flag, value):
    # a refit has no grid to count, sample, move or integrate, so such a flag would be ignored: it is refused
    path = tmp_path / "counts.csv"
    path.write_text("delta,count\n0.5,4\n0.25,16\n0.125,64\n")
    given = () if value is None else (value.replace("@", f"{tmp_path}/"),)
    code, err = _one_json_error(capsys, "dimension", "--counts-from", str(path), f"--{flag}", *given)
    assert code == 2 and err["parameter"] == flag and "--counts-from" in err["message"]
    assert list(tmp_path.iterdir()) == [path]  # the --out file is not written


def test_dimension_refuses_the_first_ignored_operator_flag(capsys):
    argv = ("dimension", "--fn", "sinxy", "--grid", "129,129", "--panels", "0", "--method", "magic", "--alpha", "-5", "--p", "nan")
    code, err = _one_json_error(capsys, *argv)
    assert code == 2 and err["parameter"] == "alpha"


def test_operator_flags_left_out_take_their_defaults(capsys):
    # --p 0, --q 0, --panels 64 and --method auto, whether given or left out
    for cmd in (("integrate", "--fn", "sinxy", "--grid", "9,9"), ("dimension", "--fn", "sinxy", "--grid", "129,129", "--integral")):
        code, left_out, _ = run_cli(capsys, *cmd, "--alpha", ".5", "--beta", ".5")
        code2, given, _ = run_cli(capsys, *cmd, "--alpha", ".5", "--beta", ".5", "--p", "0", "--q", "0", "--panels", "64", "--method", "auto")
        assert code == code2 == 0 and left_out == given


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


@pytest.mark.parametrize("name", ["alpha", "beta"])
def test_dimension_of_integral_refuses_an_order_of_zero(capsys, name):
    # an order given as 0 is refused as integrate refuses it, not read as the default 1/2
    code, err = _one_json_error(
        capsys, "dimension", "--fn", "plane", "--grid", "129,129", "--integral", "--panels", "16", f"--{name}", "0"
    )
    assert code == 2 and err["parameter"] == name and err["message"] == f"{name} must be positive, got 0.0"


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


def test_dimension_oracle_without_out_is_refused_before_any_count(capsys, monkeypatch):
    # --oracle only adds a column to the --out file, so without one it is refused and nothing is counted
    def refuse(*args, **kwargs):
        raise AssertionError("direct 3-d counts computed for a file nobody asked for")

    monkeypatch.setattr(cli, "boxcount_bruteforce_3d", refuse)
    monkeypatch.setattr(cli, "_ladder", refuse)
    for argv in (("dimension", "--fn", "sinxy", "--grid", "129,129"), ("dimension", "--fn", "sinxy", "--grid", "129,129", "--integral")):
        code, out, err = run_cli(capsys, *argv, "--oracle")
        assert (code, out) == (2, "") and err["parameter"] == "oracle" and err["message"].endswith("without --out; drop it")


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


def test_construct_keeps_the_sign_of_a_zero_level(capsys, tmp_path):
    path = tmp_path / "c.csv"
    code, _, _ = run_cli(capsys, "construct", "--fn", "constant:-0", "--grid", "3,3", "--out", str(path))
    assert code == 0 and [row.split(",")[2] for row in path.read_text().splitlines()[1:]] == ["-0"] * 9


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
    assert code == 2 and "zeppelin" in err["message"] and err["parameter"] == "fn"
    code, _, err = run_cli(capsys, "verify", "boundedness", "--fn", "zeppelin")
    assert code == 2 and "zeppelin" in err["message"] and err["parameter"] == "fn"


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


@pytest.mark.parametrize("argv,parameter", [(("separable", "--fn", "zeppelin"), "fn"), (("sandwich", "--g", "cosh"), "g")])
def test_verify_refuses_a_flag_its_suite_ignores(capsys, argv, parameter):
    code, err = _one_json_error(capsys, "verify", *argv)
    assert code == 2 and err["parameter"] == parameter


def test_verify_help_names_every_suite():
    subs = next(a for a in cli.build_parser()._actions if a.dest == "subcommand")
    suite = next(a for a in subs.choices["verify"]._actions if a.dest == "suite")
    assert suite.help == "semigroup, special-cases, separable, boundedness, bv-preservation, dimension-bounds, sandwich"


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


@pytest.mark.parametrize("sub", [["integrate", "--fn", "plane", "--alpha", ".5", "--beta", ".5"], ["verify", "sandwich"]])
def test_negative_thread_counts_are_refused(capsys, monkeypatch, sub):
    monkeypatch.delenv("FRACDIM2D_THREADS", raising=False)
    code, out, err = run_cli(capsys, *sub, "--threads", "-3")
    assert (code, out, err["parameter"]) == (2, "", "threads")
    monkeypatch.setenv("FRACDIM2D_THREADS", "-4")
    code, out, err = run_cli(capsys, *sub)
    assert (code, out, err["parameter"]) == (2, "", "FRACDIM2D_THREADS")
    code, out, err = run_cli(capsys, *sub, "--threads", "1")  # the flag decides, so the variable is not read
    assert code == 0 and err is None


def test_every_subcommand_documents_threads_alike():
    subs = next(a for a in cli.build_parser()._actions if a.dest == "subcommand")
    helps = {name: next(a.help for a in p._actions if a.dest == "threads") for name, p in subs.choices.items()}
    assert len(helps) == 5 and len(set(helps.values())) == 1, helps


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


def test_dimension_of_a_catalog_source_samples_no_grid(capsys, monkeypatch, tmp_path):
    calls = []
    real = cli.sample

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "sample", counted)
    path = tmp_path / "counts.csv"
    code, _, err = run_cli(capsys, "dimension", "--fn", "weierstrass", "--grid", "257,257", "--out", str(path))
    assert code == 0 and err is None and calls == []
    assert path.read_text() == PINNED_COUNTS[0][1]
    # positive control: the independent 3-d counter still reads a sampled grid
    code, _, err = run_cli(capsys, "dimension", "--fn", "sinxy", "--grid", "129,129", "--oracle", "--out", str(path))
    assert code == 0 and err is None and [(s.m, s.n) for s in calls] == [(129, 129)]


def test_dimension_holds_no_grid_at_either_thread_count(capsys):
    # the 2049 x 2049 grid is 33.6 MB; bands of rows evaluated on demand keep the traced peak under half of it
    import tracemalloc

    for threads in ("1", "2"):
        tracemalloc.start()
        try:
            code = cli.main(["dimension", "--fn", "weierstrass", "--grid", "2049,2049", "--threads", threads])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        out = capsys.readouterr().out
        assert code == 0 and "over 7 deltas" in out
        assert peak < 8 * 2049 * 2049 / 2, (threads, peak)


def test_dimension_refusals_hold_without_a_grid(capsys):
    code, _, err = run_cli(capsys, "dimension", "--fn", "t-parabola-sine", "--rect=-0.5,1,0,1", "--grid", "65,65")
    assert code == 2 and "is not inside the domain of source 't-parabola-sine'" in err["message"]
    with pytest.raises(core.SizeError) as direct:
        sample(make_source("weierstrass"), GridSpec(Box(0.0, 1.0, 0.0, 1.0), 16385, 16385))
    code, _, err = run_cli(capsys, "dimension", "--fn", "weierstrass", "--grid", "16385,16385")
    assert code == 3 and err == {"code": 3, "message": str(direct.value)}


def test_abbreviated_flags_are_usage_errors(capsys):
    code, out, err = run_cli(capsys, "variation", "--fn", "plane", "--trend", "--lev", "16,32")
    assert code == 2 and out == "" and err == {"code": 2, "message": "unrecognized arguments: --lev 16,32"}
    code, out, err = run_cli(capsys, "variation", "--fn", "plane", "--trend", "--levels", "16,32")
    assert code == 0 and err is None


def test_t_prefix_wraps_catalog_seeds_only(capsys, tmp_path):
    code, out, err = run_cli(capsys, "construct", "--fn", "t:csv:g.csv", "--grid", "5,5")
    assert code == 2 and out == "" and err["message"].startswith("unknown catalog function 'csv'")


_CATALOG = "available: constant, plane, sinxy, parabola-sine, sine-parabola, t-parabola-sine, t-sine-parabola, weierstrass, rational-indicator"
_EMPTY = ("ParameterError", "fn", "empty function spec")
_NO_NAME = ("CatalogError", None, "unknown catalog function ''; " + _CATALOG)
_ZEPPELIN = ("CatalogError", None, "unknown catalog function 'zeppelin'; " + _CATALOG)


def _raised(call, spec):
    """(type, parameter, message) of what ``call(spec)`` raises, or what it returns."""
    try:
        return call(spec)
    except Exception as exc:
        return type(exc).__name__, getattr(exc, "parameter", None), exc.args[0]


@pytest.mark.parametrize(
    "spec,built,box",
    [
        ("", _EMPTY, _NO_NAME),
        ("t:", _EMPTY, _NO_NAME),
        ("t: ", _EMPTY, _NO_NAME),
        ("t:t:", _EMPTY, _NO_NAME),
        ("t:zeppelin", _ZEPPELIN, _ZEPPELIN),
        ("t:weierstrass:x", ("ParameterError", "fn", "bad numeric parameter 'x' in 'weierstrass:x'"), Box(0, 2, 0, 1)),
        ("t:plane", ("ParameterError", "phi", "phi differs across the seam by 1.000e+00 (tolerance 1e-12); pieces cannot join"), Box(1, 3, 1, 2)),
        ("t:constant:1,2", ("ParameterError", "fn", "wrong parameters for 'constant' (expected k=1)"), Box(1, 3, 1, 2)),
        ("zeppelin", _ZEPPELIN, _ZEPPELIN),
    ],
)
def test_a_bad_spec_fails_as_its_seed_does_before_any_box(capsys, spec, built, box):
    # a t: spec builds its seed before it reads its box, so the seed's error is the one raised
    assert _raised(make_source, spec) == built
    assert _raised(default_box, spec) == box
    # the CLI names --fn for an unknown catalog name too, since only --fn names one
    code, err = _one_json_error(capsys, "integrate", "--fn", spec, "--alpha", ".5", "--beta", ".5")
    assert code == 2 and err == {"code": 2, "message": built[2], "parameter": built[1] or "fn"}


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


@pytest.mark.parametrize("fn, grid", [("plane", "2,185000"), ("plane", "2,29307"), ("sinxy", "28600,2")])
def test_thin_mesh_grid_weighs_its_hat_weights(capsys, fn, grid):
    # each hat weight counts as what building one costs: thin grids whose per-output weights would
    # take minutes end at once as one JSON error, just past the largest ones accepted
    t0 = time.perf_counter()
    code, err = _one_json_error(capsys, "integrate", "--fn", fn, "--alpha", ".5", "--beta", ".5", "--grid", grid, "--panels", "8")
    assert time.perf_counter() - t0 < 1.0
    assert code == 3 and "operations; the budget" in err["message"]


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
        (("verify", "special-cases", "--scale", "full"), "011835576de971b27bf7580637bdd60d37b69ded70434fa4eebb231c847797bf"),
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
            "77264cd7882a0b10e77d8d1d7a0f1dd0ad8d6ffc0ab56d1b9e3d63f6f8277959",
        ),
    ],
)
def test_classical_operator_artifacts_keep_their_bytes(capsys, tmp_path, argv, digest):
    # digests of the files these commands wrote when each node was its own point call; the
    # special-cases report re-pinned when it gained hadamard-rate and hadamard-limit's gap
    # moved by rounding (3.4658158906e-05 -> 3.4658159796e-05).  Both Hadamard artifacts
    # re-pinned when u was anchored at lo, log(s/lo) for log s: the sinxy grid moved by at most
    # 1.4e-15, and hadamard-rate's spread by 7e-11 (plane) and 0.29 (sinxy, 2.23e-3 -> 1.58e-3, as
    # its gap/eps at the smallest eps went 0.2223 -> 0.2225)
    path = tmp_path / "artifact"
    code, _, err = run_cli(capsys, *argv, "--out", str(path))
    assert code == 0 and err is None
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_every_readme_command_parses():
    # every `fracdim2d ...` line of README's sh blocks, parsed and not run: a renamed or removed flag fails here
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [
        line.strip()
        for block in re.findall(r"^```sh\n(.*?)^```", readme, flags=re.S | re.M)
        for line in block.splitlines()
        if line.strip().startswith("fracdim2d ")
    ]
    assert len(lines) >= 10
    parser = cli.build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line, comments=True)[1:])
        assert args.subcommand, line
        cli._refuse_unread(parser, args)  # and its mode reads every flag it gives


# a working command of each mode in cli._READS; "@" stands for the test's directory
_MODE_BASES = {
    "integrate": ["integrate", "--fn", "sinxy", "--alpha", ".5", "--beta", ".5", "--grid", "5,5", "--panels", "8"],
    "integrate --op riemann-liouville": ["integrate", "--op", "riemann-liouville", "--fn", "plane", "--alpha", ".5", "--beta", ".5", "--grid", "3,3", "--panels", "8"],
    "integrate --op hadamard": ["integrate", "--op", "hadamard", "--fn", "constant:1", "--rect", "1,2,1,2", "--alpha", ".5", "--beta", ".5", "--grid", "3,3"],
    "dimension": ["dimension", "--fn", "sinxy", "--grid", "129,129"],
    "dimension --integral": ["dimension", "--fn", "sinxy", "--grid", "129,129", "--integral", "--panels", "8"],
    "dimension --counts-from": ["dimension", "--counts-from", "@counts.csv"],
    "variation": ["variation", "--fn", "sinxy", "--grid", "9,9"],
    "variation --trend": ["variation", "--fn", "sinxy", "--trend", "--levels", "4,8"],
    "construct": ["construct", "--fn", "sinxy", "--grid", "9,9"],
    "verify": ["verify", "separable", "--g", "identity"],
}


def _subparser_actions():
    """{subcommand: its actions in declaration order}, help and --threads (read by every mode) left out."""
    subs = next(a for a in cli.build_parser()._actions if a.dest == "subcommand")
    return {name: [a for a in sub._actions if a.dest not in ("help", "threads")] for name, sub in subs.choices.items()}


def test_every_flag_is_read_by_some_mode_of_its_subcommand():
    assert set(_MODE_BASES) == set(cli._READS)
    for name, actions in _subparser_actions().items():
        read = {dest for mode, reads in cli._READS.items() if mode.split()[0] == name for dest in reads}
        assert [a.dest for a in actions if a.dest not in read] == [], name


@pytest.mark.parametrize("mode", list(_MODE_BASES))
def test_each_mode_refuses_every_flag_it_does_not_read(capsys, tmp_path, mode):
    # the flags come from the parser; the bases give no --out, so --format and --oracle are unread too.
    # A number is given as 0, which is given although it equals False
    (tmp_path / "counts.csv").write_text("delta,count\n0.5,4\n0.25,16\n0.125,64\n")
    base = [a.replace("@", f"{tmp_path}/") for a in _MODE_BASES[mode]]
    code, _, err = run_cli(capsys, *base)
    assert code == 0 and err is None
    for action in _subparser_actions()[base[0]]:
        if action.dest in cli._READS[mode] and action.dest not in ("format", "oracle"):
            continue
        flag = action.option_strings[0]
        if action.nargs == 0:  # a switch
            value = []
        elif action.type in (int, float) or action.choices:
            value = ["0" if action.choices is None else action.choices[0]]
        else:
            value = [str(tmp_path / "file")]
        code, out, err = run_cli(capsys, *base, flag, *value)
        assert (code, out, err["parameter"]) == (2, "", flag[2:]), (mode, flag)
        assert f"is not read by {mode}" in err["message"], (mode, err)
        assert [p.name for p in tmp_path.iterdir()] == ["counts.csv"], (mode, flag)


@pytest.mark.parametrize("mode", list(_MODE_BASES))
def test_each_mode_refuses_an_empty_path_before_any_work(capsys, tmp_path, mode):
    # an empty --out, --fit-out or --counts-from names no file: the command used to run, print its
    # summary and exit 0 without writing, or, for --counts-from, fall through to "--fn is required"
    (tmp_path / "counts.csv").write_text("delta,count\n0.5,4\n0.25,16\n0.125,64\n")
    base = [a.replace("@", f"{tmp_path}/") for a in _MODE_BASES[mode]]
    dests = [dest for dest in ("counts_from", "out", "fit_out") if dest in cli._READS[mode]]
    assert "out" in dests or "fit_out" in dests, mode
    for dest in dests:
        flag = "--" + dest.replace("_", "-")
        code, out, err = run_cli(capsys, *base, flag, "")
        assert (code, out, err["parameter"]) == (2, "", flag[2:]), (mode, flag)
        assert err["message"] == f"{flag} needs a file path, got an empty one"
        assert [p.name for p in tmp_path.iterdir()] == ["counts.csv"], (mode, flag)
