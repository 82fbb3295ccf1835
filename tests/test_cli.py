import argparse
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import modwave
from modwave.cli import build_parser, cmd_diagram, main
from modwave.config import RunConfig, load_config, merge_overrides
from modwave.dispersion import fractional_symbol
from modwave.errors import ConfigError
from modwave.indices import Verdict, ind
from modwave.pencil import pencil_verdict
from modwave.stokes import EquationKind


def run(args):
    return main(args)


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def test_index_sweep_flips_once(tmp_path):
    out = tmp_path / "index.csv"
    code = run([
        "index", "--equation", "bbm", "--symbol", "bbm",
        "--k-range", "0.5", "3", "--k-steps", "251", "-o", str(out),
    ])
    assert code == 0
    lines = read(out).splitlines()
    assert lines[0] == "k,i1,i2m,i2p,i3m,i3p,i_eq,ind,verdict,resonances"
    verdicts = [line.split(",")[8] for line in lines[1:]]
    flips = sum(1 for a, b in zip(verdicts, verdicts[1:]) if a != b)
    assert flips == 1
    flip_at = next(i for i, (a, b) in enumerate(zip(verdicts, verdicts[1:])) if a != b)
    k_before = float(lines[1 + flip_at].split(",")[0])
    k_after = float(lines[2 + flip_at].split(",")[0])
    assert k_before < math.sqrt(3.0) < k_after + 1e-12


def test_index_boussinesq_all_stable(tmp_path):
    out = tmp_path / "bq.csv"
    assert run([
        "index", "--equation", "boussinesq", "--symbol", "boussinesq",
        "--k-range", "0.1", "10", "--k-steps", "25", "-o", str(out),
    ]) == 0
    verdicts = {line.split(",")[8] for line in read(out).splitlines()[1:]}
    assert verdicts == {"ModulationallyStableNearOrigin"}


def test_index_boussinesq_fractional_matches_per_k(tmp_path):
    # alpha = 3 mixes index-decided rows with pencil-decided Stable,
    # Unstable and Degenerate rows, so a verdict written back to the
    # wrong row shows
    out = tmp_path / "frac.csv"
    assert run([
        "index", "--equation", "boussinesq", "--symbol", "fractional", "--alpha", "3",
        "--k-range", "0.05", "3", "--k-steps", "2001", "-o", str(out),
    ]) == 0
    rows = [line.split(",") for line in read(out).splitlines()[1:]]
    sym = fractional_symbol(3.0)
    expected, sources = [], set()
    for k in RunConfig(k_range=(0.05, 3.0), k_steps=2001).k_values().tolist():
        verdict = ind(EquationKind.BOUSSINESQ, sym, k).verdict
        if verdict is Verdict.INCONCLUSIVE:
            verdict = pencil_verdict(EquationKind.BOUSSINESQ, sym, k)
            sources.add(("pencil", verdict))
        else:
            sources.add(("index", verdict))
        expected.append((repr(k), verdict.value))
    assert [(r[0], r[8]) for r in rows] == expected
    assert {
        ("pencil", Verdict.STABLE_NEAR_ORIGIN),
        ("pencil", Verdict.MODULATIONALLY_UNSTABLE),
        ("pencil", Verdict.DEGENERATE),
        ("index", Verdict.MODULATIONALLY_UNSTABLE),
    } <= sources
    # pinned rows next to where the pencil's root type changes: their
    # discriminants are within a few times the default tolerance
    pinned = {r[0]: r[8] for r in rows[59:62]}
    assert pinned == {
        "0.137025": "ModulationallyStableNearOrigin",
        "0.1385": "Degenerate",
        "0.13997500000000002": "ModulationallyUnstable",
    }


def test_index_degenerate_kdv(tmp_path):
    out = tmp_path / "kdv.csv"
    assert run([
        "index", "--equation", "kdv", "--symbol", "fractional", "--alpha", "1",
        "--k-range", "0.5", "5", "--k-steps", "9", "-o", str(out),
    ]) == 0
    lines = read(out).splitlines()[1:]
    assert all(line.split(",")[8] == "Degenerate" for line in lines)
    assert all("R4" in line.split(",")[9] for line in lines)


def test_index_csv_byte_stable(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["index", "--equation", "bbm", "--symbol", "bbm",
            "--k-range", "0.5", "3", "--k-steps", "40"]
    assert run(args + ["-o", str(out1)]) == 0
    assert run(args + ["-o", str(out2)]) == 0
    assert read(out1) == read(out2)
    with open(out1, "rb") as fh:
        assert b"\r" not in fh.read()


def test_spectrum_flat_state(tmp_path):
    out = tmp_path / "spec.csv"
    summary = tmp_path / "spec.json"
    assert run([
        "spectrum", "--equation", "bbm", "--symbol", "bbm", "--k", "1",
        "--a", "0", "--xi-range", "0.0", "0.1", "--xi-steps", "3",
        "--n-modes", "16", "-o", str(out), "--summary", str(summary),
    ]) == 0
    payload = json.loads(read(summary))
    assert all(v <= 1e-10 for v in payload["max_re"].values())
    lines = read(out).splitlines()
    assert lines[0].startswith("# equation=bbm")
    assert lines[1] == "xi,re,im"
    assert len(lines) == 2 + 3 * 33


def test_spectrum_unstable_case(tmp_path):
    summary = tmp_path / "s.json"
    assert run([
        "spectrum", "--equation", "bbm", "--symbol", "bbm", "--k", "2",
        "--a", "0.01", "--xi", "0.005", "--n-modes", "24",
        "-o", str(tmp_path / "eig.csv"), "--summary", str(summary),
    ]) == 0
    payload = json.loads(read(summary))
    assert max(payload["max_re"].values()) > 1e-8


def test_spectrum_requires_xi(tmp_path, capsys):
    code = run([
        "spectrum", "--equation", "bbm", "--symbol", "bbm", "--k", "1",
        "-o", str(tmp_path / "x.csv"),
    ])
    assert code == 2
    assert "xi" in capsys.readouterr().err


def test_wave_csv(tmp_path):
    out = tmp_path / "wave.csv"
    assert run([
        "wave", "--equation", "boussinesq", "--symbol", "boussinesq",
        "--k", "1", "--a", "0.01", "--n-modes", "16", "-o", str(out),
    ]) == 0
    lines = read(out).splitlines()
    assert lines[0] == "# equation=boussinesq symbol=boussinesq"
    assert lines[1].startswith("# k=1.0 a=0.01 c=")
    assert lines[2] == "n,u_hat,q_hat"
    assert len(lines) == 3 + 17
    first = lines[3].split(",")
    assert first[0] == "0"


def test_diagram(tmp_path):
    out = tmp_path / "grid.csv"
    svg = tmp_path / "curves.svg"
    assert run([
        "diagram", "--alpha-range", "2.5", "3.5", "--alpha-steps", "3",
        "--k-range", "0.1", "1.5", "--k-steps", "30",
        "-o", str(out), "--svg", str(svg),
    ]) == 0
    lines = read(out).splitlines()
    assert lines[0].startswith("# critical wave numbers")
    assert lines[1] == "alpha,k,sign_ind_kdv,sign_ind_bbm,sign_ind_bnesq"
    # alpha = 3 row: unidirectional threshold above the bidirectional one
    middle = lines[0].split(";")[1]
    k_bbm, k_bq = middle.split(":")[1].split(",")
    assert float(k_bbm) > float(k_bq)
    text = read(svg)
    assert "<svg" in text and "polyline" in text


def test_diagram_leaves_config_unchanged(tmp_path):
    cfg = RunConfig(alpha_range=(2.5, 3.5), alpha_steps=2, k_steps=11,
                    output=str(tmp_path / "grid.csv"))
    before = dataclasses.replace(cfg)
    assert cmd_diagram(cfg, argparse.Namespace()) == 0
    assert cfg == before and cfg.k_range is None
    assert read(tmp_path / "grid.csv").splitlines()[2].startswith("2.5,0.05,")


def test_resonances(tmp_path):
    out = tmp_path / "res.csv"
    assert run([
        "resonances", "--equation", "bbm", "--symbol", "bbm",
        "--k-range", "0.1", "10", "-o", str(out),
    ]) == 0
    lines = read(out).splitlines()
    assert lines[0] == "k,type"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 1 and rows[0][1] == "R1"
    assert float(rows[0][0]) == pytest.approx(math.sqrt(3.0), abs=1e-8)


def test_resonances_harmonic_scan(tmp_path):
    out = tmp_path / "res.csv"
    assert run([
        "resonances", "--equation", "bbm", "--expr", "cos(k)",
        "--k-range", "0.5", "3", "--n-max", "4", "-o", str(out),
    ]) == 0
    text = read(out)
    assert "m(k)=m(3k)" in text
    assert any(line.endswith("R3") for line in text.splitlines())


def test_spectrum_kdv(tmp_path):
    summary = tmp_path / "kdv.json"
    assert run([
        "spectrum", "--equation", "kdv", "--symbol", "fractional", "--alpha", "2",
        "--k", "1", "--a", "0.01", "--xi", "0.02", "--n-modes", "16",
        "-o", str(tmp_path / "kdv.csv"), "--summary", str(summary),
    ]) == 0
    payload = json.loads(read(summary))
    assert "max_re" in payload


def test_validate_subset(capsys):
    code = run(["validate", "--only", "quartic"])
    assert code == 0
    out = capsys.readouterr().out
    assert "[PASS] quartic-classifier" in out


def test_validate_unknown_subset(capsys):
    assert run(["validate", "--only", "zzz"]) == 2


def test_validate_twice_in_process_prints_the_same(capsys):
    outputs = []
    for _ in range(2):
        assert run(["validate"]) == 1
        outputs.append(re.sub(r"\(\d+\.\d\d s\)", "(x.xx s)", capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    failed = [line.split()[1].rstrip(":") for line in outputs[0].splitlines()
              if line.startswith("[FAIL]")]
    assert failed == ["bbm-collision-floor", "cubic-disc-identity"]


def test_expr_symbol(tmp_path):
    out = tmp_path / "expr.csv"
    assert run([
        "index", "--equation", "bbm", "--expr", "1/(1+k^2)",
        "--k", "2", "-o", str(out),
    ]) == 0
    row = read(out).splitlines()[1].split(",")
    assert row[8] == "ModulationallyUnstable"


def test_config_file_and_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "equation": "bbm",
        "symbol": {"builtin": "bbm"},
        "k": 1.0,
    }))
    out = tmp_path / "out.csv"
    assert run(["index", "--config", str(cfg), "-o", str(out)]) == 0
    assert read(out).splitlines()[1].split(",")[8] == "ModulationallyStableNearOrigin"
    # flag overrides the config value
    assert run(["index", "--config", str(cfg), "--k", "2.0", "-o", str(out)]) == 0
    assert read(out).splitlines()[1].split(",")[8] == "ModulationallyUnstable"


def test_config_round_trip():
    cfg = RunConfig(equation="bbm", symbol={"builtin": "bbm"}, k_range=(0.5, 3.0),
                    k_steps=11, a=0.02)
    assert RunConfig.parse(cfg.emit()) == cfg


def test_config_grids_end_exactly_at_hi():
    # lo + (n-1)*step overshoots hi on these two ranges; no other point moves
    xis = RunConfig(xi_range=(0.037, 0.5), xi_steps=7).xi_values()
    ks = RunConfig(k_range=(0.03, 3.0), k_steps=11).k_values()
    for grid, lo, hi in ((xis, 0.037, 0.5), (ks, 0.03, 3.0)):
        step = (hi - lo) / (grid.size - 1)
        assert grid.tolist() == [lo + i * step for i in range(grid.size - 1)] + [hi]
    assert RunConfig(k_range=(0.5, 0.5), k_steps=1).k_values().tolist() == [0.5]


def test_config_rejects_unknown_field(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"equatino": "bbm"}))
    with pytest.raises(ConfigError):
        load_config(str(cfg))


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        RunConfig(equation="nope").equation_kind()
    with pytest.raises(ConfigError):
        RunConfig(k_range=(3.0, 1.0)).k_values()
    with pytest.raises(ConfigError):
        RunConfig().k_values()
    with pytest.raises(ConfigError):
        RunConfig(xi_range=(0.0, 0.9)).xi_values()


@pytest.mark.parametrize("argv", [
    ["index", "--equation", "bbm", "--expr", "1+abs(k)^alpha", "--param", "alpha", "--k", "1"],
    ["index", "--equation", "bbm", "--expr", "1+abs(k)^alpha", "--param", "alpha=x", "--k", "1"],
    ["index", "--config", "/nonexistent/modwave.json", "--equation", "bbm", "--symbol", "bbm",
     "--k", "1"],
    ["index", "--equation", "bbm", "--symbol", "fractional", "--k", "1"],
    ["index", "--equation", "bbm", "--symbol", "nope", "--k", "1"],
], ids=["param-without-value", "param-not-a-number", "missing-config", "fractional-without-alpha",
        "unknown-symbol"])
def test_bad_input_is_one_error_line(argv, capsys):
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(r"error: config field '[^']+': [^\n]+\n", err)


@pytest.mark.parametrize("argv,field", [
    (["index", "--equation", "bbm", "--symbol", "bbm", "--k", "-1"], "k"),
    (["index", "--equation", "bbm", "--expr", "1+lambda*k^2", "--param", "lambda=2", "--k", "1"],
     "symbol"),
], ids=["k-not-positive", "keyword-param-name"])
def test_bad_value_is_one_config_error_line(argv, field, capsys):
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(rf"error: config field '{field}': [^\n]+\n", err)


@pytest.mark.parametrize("xi,field", [
    (["--xi", "0.9"], "xi"), (["--xi", "-0.01"], "xi"), (["--xi-range", "0.9", "0.9"], "xi_range"),
], ids=["xi-above-half", "xi-negative", "xi-range-above-half"])
def test_xi_out_of_range_is_one_config_error_line(xi, field, capsys):
    argv = ["spectrum", "--equation", "bbm", "--symbol", "bbm", "--k", "2", "--a", "0.01",
            *xi, "--xi-steps", "1", "--n-modes", "8"]
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    # after the asymptotic-cap warning, if any, one error line
    assert re.fullmatch(rf"(warning: [^\n]+\n)?error: config field '{field}': need 0 <= [^\n]+\n", err)


@pytest.mark.parametrize("xi,field", [
    (["--xi", "0.9"], "xi"), (["--xi", "-0.01"], "xi"), (["--xi-range", "0.9", "0.9"], "xi_range"),
    (["--xi-range", "0.3", "0.1"], "xi_range"), (["--xi-range", "0.2", "0.3", "--xi-steps", "0"],
                                                 "xi_steps"),
], ids=["xi-above-half", "xi-negative", "xi-range-above-half", "xi-range-reversed", "no-xi-steps"])
def test_refused_xi_grid_neither_warns_nor_solves(xi, field, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("newton_wave ran for a refused xi grid")

    monkeypatch.setattr("modwave.cli.newton_wave", no_solve)
    argv = ["spectrum", "--equation", "boussinesq", "--symbol", "boussinesq", "--k", "2",
            "--a", "0.01", *xi, "--n-modes", "8"]
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(rf"error: config field '{field}': [^\n]+\n", err)


@pytest.mark.parametrize("command", ["wave", "spectrum"])
@pytest.mark.parametrize("k,name", [("1", "m(k)"), ("0.5", "m(2k)")])
def test_zero_symbol_value_in_bidirectional_start_is_one_error_line(command, k, name, capsys):
    # m(k) = 1 - k^2 vanishes at k = 1, and at 2k for k = 0.5
    argv = [command, "--equation", "boussinesq", "--expr", "1-k^2", "--k", k, "--a", "0.01",
            "--n-modes", "16", *(["--xi", "0.01"] if command == "spectrum" else [])]
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {name}=0.0 too close to 0 at k={float(k)}\n"


@pytest.mark.parametrize("data", [
    {"symbol": {"builtin": "fractional", "params": {"alpha": "x"}}, "equation": "bbm"},
    {"equation": "bbm", "symbol": {"builtin": "bbm"}, "k": "x"},
], ids=["alpha-not-a-number", "k-not-a-number"])
def test_config_values_are_type_checked(data, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    argv = ["index", "--config", str(cfg)] + ([] if "k" in data else ["--k", "1"])
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(r"error: config field '[^']+': [^\n]+\n", err)


@pytest.mark.parametrize("expr", ["1.2.3", "k**2", "0x10", "1_000+k", "1j+k", "1/(1+k", "010"])
def test_bad_expression_is_one_error_line(expr, capsys):
    assert run(["index", "--equation", "bbm", "--expr", expr, "--k", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(r"error: [^\n]+ at position \d+[^\n]*\n", err)


def test_merge_overrides_none_keeps_config():
    cfg = RunConfig(equation="bbm", k=1.5)
    merged = merge_overrides(cfg, {"k": None, "a": 0.02})
    assert merged.k == 1.5
    assert merged.a == 0.02


def test_regime_warning(tmp_path, capsys):
    assert run([
        "spectrum", "--equation", "bbm", "--symbol", "bbm", "--k", "1",
        "--a", "0.2", "--xi", "0.3", "--n-modes", "16",
        "-o", str(tmp_path / "w.csv"),
    ]) == 0
    err = capsys.readouterr().err
    assert "asymptotic cap" in err


def test_spectrum_rows_ordered_by_re_then_im(tmp_path):
    # Whitham at k = 1.3 is modulationally unstable: the two smallest xi
    # carry one growing pair each, the other three slices are neutrally
    # stable.  Every other Re is +0.0 exactly, so rows follow Im within
    # equal Re and round-off cannot reorder them.
    args = ["spectrum", "--equation", "kdv", "--symbol", "whitham", "--k", "1.3",
            "--a", "0.01", "--xi-range", "0.001", "0.05", "--xi-steps", "5",
            "--n-modes", "32"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["-o", str(out1)]) == 0
    assert run(args + ["-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    by_xi = {}
    for line in read(out1).splitlines()[2:]:
        xi, re, im = line.split(",")
        assert re != "-0.0"
        by_xi.setdefault(xi, []).append((float(re), float(im)))
    assert len(by_xi) == 5
    off_axis = []
    for rows in by_xi.values():
        assert len(rows) == 65
        assert rows == sorted(rows)
        growing = [re for re, _ in rows if re != 0.0]
        assert growing == [] or (len(growing) == 2 and growing[0] == -growing[1])
        off_axis.append(len(growing))
    assert off_axis == [2, 2, 0, 0, 0]


def test_parser_built_once():
    assert build_parser() is build_parser()


def test_cached_parser_restores_defaults(tmp_path):
    out = tmp_path / "index.csv"
    args = ["index", "--equation", "bbm", "--symbol", "bbm", "--k-range", "0.5", "3",
            "-o", str(out)]
    assert run(args + ["--k-steps", "11"]) == 0
    assert len(read(out).splitlines()) == 1 + 11
    assert run(args) == 0
    assert len(read(out).splitlines()) == 1 + 101


def test_cached_parser_does_not_accumulate_params(tmp_path):
    def index(alpha, name):
        out = tmp_path / name
        assert run(["index", "--equation", "bbm", "--expr", "1+abs(k)^alpha",
                    "--param", f"alpha={alpha}", "--k-range", "0.5", "3",
                    "--k-steps", "11", "-o", str(out)]) == 0
        return out.read_bytes()

    first = index(3.5, "first.csv")
    assert index(2.5, "other.csv") != first
    assert index(3.5, "again.csv") == first
    args = build_parser().parse_args(["index", "--expr", "k", "--param", "alpha=3.5"])
    assert args.param == ["alpha=3.5"]


def test_cached_parser_after_usage_error(tmp_path, capsys):
    args = ["index", "--equation", "bbm", "--symbol", "bbm", "--k-range", "0.5", "3",
            "--k-steps", "40", "-o"]
    assert run(args + [str(tmp_path / "before.csv")]) == 0
    with pytest.raises(SystemExit) as exc:
        run(["index", "--no-such-flag"])
    assert exc.value.code == 2
    assert "--no-such-flag" in capsys.readouterr().err
    assert run(args + [str(tmp_path / "after.csv")]) == 0
    assert (tmp_path / "after.csv").read_bytes() == (tmp_path / "before.csv").read_bytes()


def test_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0
    assert "{index,diagram,spectrum,wave,resonances,validate}" in capsys.readouterr().out


def test_python_dash_m_modwave(tmp_path):
    src = str(Path(modwave.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "modwave", "validate", "--only", "bbm-threshold"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert any(line.startswith("[PASS] bbm-threshold") for line in proc.stdout.splitlines())
