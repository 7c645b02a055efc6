"""Command-line surface: outputs, exit codes, determinism."""

import dataclasses
import math
import threading

import pytest

from calmir import ResponseModel, hamaker_c3, parse, preset_scenario, serialize
from calmir.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def fig1a_file(tmp_path):
    p = tmp_path / "fig1a.txt"
    p.write_text(serialize(preset_scenario("fig1a")))
    return p


@pytest.fixture
def ideal_file(tmp_path):
    p = tmp_path / "ideal.txt"
    p.write_text(
        "[material pec]\nideal = electric\n"
        "[mirror 1]\nsubstrate = pec\n[mirror 2]\nsubstrate = pec\n"
        "[run]\nT = 0\nd = 1 1 1 lin\n"
    )
    return p


def parse_kv(out):
    return dict(line.split("=", 1) for line in out.strip().splitlines())


def test_force_ideal_casimir(capsys, ideal_file):
    code, out, _ = run(capsys, "force", str(ideal_file), "-d", "1.0")
    assert code == 0
    kv = parse_kv(out)
    assert float(kv["pressure_norm"]) == pytest.approx(math.pi**2 / 240.0, rel=1e-6)
    assert float(kv["bound_hi"]) == pytest.approx(math.pi**2 / 240.0, rel=1e-12)
    assert int(kv["n_terms_used"]) > 0


def test_force_preset_attractive(capsys, fig1a_file):
    code, out, _ = run(capsys, "force", str(fig1a_file), "-d", str(math.pi))
    kv = parse_kv(out)
    assert code == 0
    assert float(kv["pressure_norm"]) > 0.0
    assert float(kv["bound_lo"]) <= float(kv["pressure_norm"]) <= float(kv["bound_hi"])


def test_force_quiet_and_si(capsys, ideal_file):
    code, out, _ = run(capsys, "force", str(ideal_file), "-d", "1.0", "--quiet")
    assert code == 0
    assert len(out.strip().splitlines()) == 1
    code, out, _ = run(
        capsys, "force", str(ideal_file), "-d", "1.0", "--omega-rad-s", "1e15"
    )
    kv = parse_kv(out)
    # F = pi^2 hbar c/(240 d_SI^4) at d_SI = c/omega
    d_si = 299792458.0 / 1e15
    want = math.pi**2 * 1.054571817e-34 * 299792458.0 / (240.0 * d_si**4)
    assert float(kv["F_SI_Pa"]) == pytest.approx(want, rel=1e-6)
    code, out, err = run(capsys, "force", str(ideal_file), "-d", "1.0", "--omega-rad-s", "-5")
    assert code == 1 and "usage error" in err and out == ""


def test_vacuum_mirror_zero(capsys, tmp_path):
    p = tmp_path / "vac.txt"
    p.write_text(
        "[material v]\nideal = vacuum\n[material m]\neps_strength = 1\n"
        "[mirror 1]\nsubstrate = v\n[mirror 2]\nsubstrate = m\n"
    )
    code, out, _ = run(capsys, "force", str(p), "-d", "1.0", "--quiet")
    assert code == 0
    assert float(out) == 0.0


def test_sweep_csv_schema(capsys, tmp_path, fig1a_file):
    out_csv = tmp_path / "out.csv"
    scn = parse(fig1a_file.read_text())
    small = serialize(
        type(scn)(
            materials=scn.materials,
            mirror1=scn.mirror1,
            mirror2=scn.mirror2,
            gap=scn.gap,
            temperature=0.0,
            sweep=type(scn.sweep)(0.5, 5.0, 4, "log"),
        )
    )
    src = tmp_path / "small.txt"
    src.write_text(small)
    code, _, _ = run(capsys, "sweep", str(src), "-o", str(out_csv), "--tol", "1e-6")
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == (
        "d_over_c_by_omega,d_over_lambda,pressure_norm,te_part,tm_part,"
        "bound_lo,bound_hi,c3_over_d3,est_error"
    )
    assert len(lines) == 5
    for row in lines[1:]:
        cells = row.split(",")
        assert len(cells) == 9
        d, dl, p, te, tm, lo, hi, c3, err = (float(c) for c in cells)
        assert dl == pytest.approx(d / (2.0 * math.pi))
        assert p == pytest.approx(te + tm, abs=1e-14)
        assert lo <= p <= hi
        assert p <= c3 + 1e-12  # homogeneous mirrors: short-distance cap


def test_sweep_si_column(capsys, tmp_path):
    src = tmp_path / "si.txt"
    src.write_text(
        "[material m]\neps_strength = 1\n"
        "[mirror 1]\nsubstrate = m\n[mirror 2]\nsubstrate = m\n"
        "[run]\nT = 0\nd = 1 2 2 log\n"
    )
    out_csv = tmp_path / "si.csv"
    code, _, _ = run(
        capsys, "sweep", str(src), "-o", str(out_csv),
        "--tol", "1e-6", "--omega-rad-s", "1e15", "--quiet",
    )
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0].endswith(",F_SI_Pa")
    first = lines[1].split(",")
    p_norm, p_si = float(first[2]), float(first[-1])
    d_si = 299792458.0 / 1e15  # one c/Omega in metres
    assert p_si == pytest.approx(p_norm * 1.054571817e-34 * 1e15 / d_si**3, rel=1e-12)


def test_sweep_temperature_family(capsys, tmp_path):
    src = tmp_path / "fam.txt"
    src.write_text(
        "[material m]\neps_strength = 1\n"
        "[mirror 1]\nsubstrate = m\n[mirror 2]\nsubstrate = m\n"
        "[run]\nT = 0.5 0.1 0\nd = 1 2 2 log\n"
    )
    out_csv = tmp_path / "fam.csv"
    code, _, _ = run(capsys, "sweep", str(src), "-o", str(out_csv), "--tol", "1e-6", "--quiet")
    assert code == 0
    drude = ResponseModel.drude(1.0)
    for tau in (0.5, 0.1, 0.0):
        rows = (tmp_path / f"fam_tau{tau:g}.csv").read_text().strip().splitlines()[1:]
        # each file carries c3 at its own temperature, not the family's first
        assert {r.split(",")[7] for r in rows} == {f"{hamaker_c3(drude, drude, tau):.12e}"}


def test_asympt_outputs(capsys, fig1a_file, ideal_file):
    code, out, _ = run(capsys, "asympt", str(fig1a_file), "-d", "0.5", "--tau", "0.1")
    kv = parse_kv(out)
    assert code == 0
    assert float(kv["c3_norm"]) > 0.0
    assert float(kv["lambda_T"]) == pytest.approx(10.0)
    assert kv["regime"] == "short"
    code, out, _ = run(capsys, "asympt", str(ideal_file), "-d", "0.5")
    assert code == 0
    assert "unavailable" in parse_kv(out)["c3_norm"]


def test_asympt_names_why_c3_or_c1_is_reported(capsys, tmp_path):
    fig1c = tmp_path / "fig1c.txt"
    fig1c.write_text(serialize(preset_scenario("fig1c")))
    code, out, _ = run(capsys, "asympt", str(fig1c), "-d", "1")
    assert code == 0 and parse_kv(out)["c3_norm"] == "unavailable (layered mirrors)"
    # fig1d's mirrors across a gap carrying mirror 2's permittivity
    matched = tmp_path / "matched.txt"
    matched.write_text(serialize(preset_scenario("fig1d"))
                       + "[material matched]\neps_strength = 0.1\neps_resonance = 1.0\n[gap]\nmedium = matched\n")
    code, out, _ = run(capsys, "asympt", str(matched), "-d", "0.01")
    assert code == 0 and float(parse_kv(out)["c1_norm"]) > 0.0


def test_cached_parser_matches_a_fresh_one(capsys, monkeypatch, fig1a_file):
    # main reuses one parser per process: a usage error in between must not
    # change what the calls after it parse or print
    from calmir import cli

    calls = [
        ("force", str(fig1a_file), "-d", "3.0", "--tau", "0.1"),
        ("force", str(fig1a_file), "-d", "3.0", "--workers", "2"),
        ("asympt", str(fig1a_file), "-d", "0.5", "--tau", "0.1"),
    ]
    assert cli.build_parser() is cli.build_parser()
    cached = [run(capsys, *argv) for argv in calls]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [run(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in cached] == [0, 1, 0]
    assert cached == fresh


@pytest.mark.parametrize(
    "option", [["--quiet"], ["--tol", "1e-6"], ["--max-matsubara", "10"], ["--omega-rad-s", "1e15"]]
)
def test_asympt_rejects_force_options(capsys, fig1a_file, option):
    code, out, err = run(capsys, "asympt", str(fig1a_file), "-d", "0.5", *option)
    assert code == 1 and "usage error" in err and out == ""


def test_preset_roundtrip(capsys, tmp_path):
    for name in ("fig1a", "fig1d", "fig3d"):
        out = tmp_path / f"{name}.txt"
        code, _, _ = run(capsys, "preset", name, "-o", str(out))
        assert code == 0
        assert parse(out.read_text()) == preset_scenario(name)


def test_exit_codes(capsys, tmp_path):
    code, _, err = run(capsys, "force", str(tmp_path / "missing.txt"), "-d", "1")
    assert code == 2 and "scenario error" in err
    bad = tmp_path / "bad.txt"
    bad.write_text("[material a]\neps_strength = oops\n")
    code, _, err = run(capsys, "force", str(bad), "-d", "1")
    assert code == 2 and "line 2" in err
    code, _, err = run(capsys, "bogus")
    assert code == 1
    good = tmp_path / "good.txt"
    good.write_text(
        "[material m]\neps_strength = 1\neps_resonance = 0\n"
        "[mirror 1]\nsubstrate = m\n[mirror 2]\nsubstrate = m\n[run]\nT = 0.001\nd = 1 1 1 lin\n"
    )
    # a tolerance that QuadratureConfig refuses is a usage error
    code, _, err = run(capsys, "force", str(good), "-d", "1", "--tol", "0")
    assert code == 1 and "tolerances must be positive" in err
    code, _, err = run(capsys, "force", str(good), "-d", "0.05", "--max-matsubara", "10")
    assert code == 3 and "error" in err
    # Matsubara terms whose prefactor 2 tau d^3 underflows are a convergence failure
    code, _, err = run(capsys, "force", str(good), "-d", "1", "--tau", "5e-324", "--max-matsubara", "10")
    assert code == 3 and "underflow" in err
    # so is a distance whose integrals underflow, rather than a traceback
    # from d^3 overflowing (1e103, 1e200) or a silent zero (1e80 at tau = 0)
    for d, tau in (("1e103", "0"), ("1e80", "0"), ("1e200", "0.01")):
        code, _, err = run(capsys, "force", str(good), "-d", d, "--tau", tau)
        assert code == 3 and "underflow" in err
    # so is a c3 whose Matsubara tail cannot be resolved at a tiny tau,
    # rather than an OverflowError traceback
    fig1d = tmp_path / "fig1d.txt"
    fig1d.write_text(serialize(preset_scenario("fig1d")))
    code, _, err = run(capsys, "asympt", str(fig1d), "-d", "0.3", "--tau", "1e-320")
    assert code == 3 and "tau = 1.000e-320" in err
    # an output path that cannot be written is a usage error with the path and
    # the reason
    missing = tmp_path / "missing"
    for argv in (["preset", "fig1d", "-o", str(missing / "x.txt")],
                 ["sweep", str(good), "-o", str(missing / "x.csv")],
                 ["preset", "fig1d", "-o", str(tmp_path)]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and err.startswith(f"error: cannot write '{argv[-1]}': "), argv


def test_sweep_checks_every_output_path_before_the_first_row(capsys, monkeypatch, tmp_path):
    from calmir import cli

    def no_rows(*args):
        raise AssertionError("a row was computed before the output paths were checked")

    monkeypatch.setattr(cli, "_force_at", no_rows)
    monkeypatch.setattr(cli, "force_sweep", no_rows)
    src = tmp_path / "fam.txt"
    src.write_text(
        "[material m]\neps_strength = 1\n"
        "[mirror 1]\nsubstrate = m\n[mirror 2]\nsubstrate = m\n"
        "[run]\nT = 0.5 0.1 0\nd = 1 2 2 log\n"
    )
    # a missing directory, and a family whose second file name is a directory
    (tmp_path / "fam_tau0.1.csv").mkdir()
    for out, bad in (("missing/x.csv", "missing/x_tau0.5.csv"), ("fam.csv", "fam_tau0.1.csv")):
        code, stdout, err = run(capsys, "sweep", str(src), "-o", str(tmp_path / out), "--quiet")
        assert code == 1 and stdout == "" and err.startswith(f"error: cannot write '{tmp_path / bad}': "), out
    # the check leaves no file behind
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fam.txt", "fam_tau0.1.csv"]


def test_force_and_sweep_fail_outside_envelope(capsys, monkeypatch, tmp_path, ideal_file):
    from calmir import lifshitz

    monkeypatch.setattr(lifshitz, "bound_envelope", lambda d, tau: (-1e-6, 1e-6))
    code, out, err = run(capsys, "force", str(ideal_file), "-d", "1.0")
    assert code == 3 and "bound check failed" in err and out == ""
    code, _, err = run(capsys, "sweep", str(ideal_file), "-o", str(tmp_path / "o.csv"))
    assert code == 3 and "bound check failed" in err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("command", ["force", "asympt"])
@pytest.mark.parametrize("point", ["-d nan", "-d inf", "-d 1 --tau nan", "-d 1 --tau inf", "-d 1 --tau -0.5"])
def test_bad_distance_or_tau_is_a_usage_error(capsys, fig1a_file, command, point):
    code, out, err = run(capsys, command, str(fig1a_file), *point.split())
    message = "tau must be finite" if "--tau" in point else "d must be finite"
    assert code == 1 and message in err and out == ""


@pytest.mark.parametrize(
    "option,value",
    [("--workers", "0"), ("--workers", "-1")]
    + [("--omega-rad-s", v) for v in ("0", "-5", "nan", "inf", "-inf", "x")],
)
def test_sweep_rejects_bad_option_values(capsys, tmp_path, ideal_file, option, value):
    out_csv = tmp_path / "o.csv"
    code, _, err = run(capsys, "sweep", str(ideal_file), "-o", str(out_csv), option, value)
    assert code == 1 and "usage error" in err and option in err
    assert not out_csv.exists()


@pytest.mark.parametrize(
    "temperatures,clash",
    [("0.3 0.30000001 0", "0.3 and 0.30000001"), ("0.1 0.2 0.1", "0.1 and 0.1")],
)
def test_sweep_refuses_a_family_whose_file_names_clash(capsys, tmp_path, temperatures, clash):
    # both temperatures of a clash format as the same {tau:g} file suffix
    src = tmp_path / "fam.txt"
    src.write_text(
        "[material m]\neps_strength = 1\n"
        "[mirror 1]\nsubstrate = m\n[mirror 2]\nsubstrate = m\n"
        f"[run]\nT = {temperatures}\nd = 1 2 2 log\n"
    )
    code, out, err = run(capsys, "sweep", str(src), "-o", str(tmp_path / "fam.csv"))
    assert code == 1 and out == ""
    assert f"temperatures {clash} would both write" in err
    assert list(tmp_path.glob("*.csv")) == []


_DIEL_MAG_T0 = (
    "[material diel]\neps_strength = 3\neps_resonance = 1\n"
    "[material mag]\neps_strength = 0.1\neps_resonance = 1\n"
    "mu_strength = 0.3\nmu_resonance = 1\n"
    "[mirror 1]\nsubstrate = diel\n[mirror 2]\nsubstrate = mag\n"
    "[run]\nT = 0\nd = 0.2 20 6 log\n"
)


def test_sweep_deterministic_across_workers(capsys, tmp_path):
    src = tmp_path / "det.txt"
    src.write_text(_DIEL_MAG_T0)
    # --workers is accepted and has no effect: every sweep is one
    # force_sweep call in the calling thread
    outputs = []
    for workers in (1, 4, 8):
        out_csv = tmp_path / f"w{workers}.csv"
        code, _, _ = run(
            capsys, "sweep", str(src), "-o", str(out_csv), "--workers", str(workers),
            "--tol", "1e-6", "--quiet",
        )
        assert code == 0
        outputs.append(out_csv.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    # this dielectric/magnetic pairing shows a repulsive range at T = 0
    pressures = [float(r.split(",")[2]) for r in outputs[0].decode().splitlines()[1:]]
    assert any(p < 0.0 for p in pressures) and any(p > 0.0 for p in pressures)


def test_sweep_starts_no_thread(capsys, tmp_path, monkeypatch):
    # a T = 0 sweep with --workers 4 computes every row in the calling thread
    def refuse(thread):
        raise RuntimeError("a sweep started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    src = tmp_path / "det.txt"
    src.write_text(_DIEL_MAG_T0)
    out_csv = tmp_path / "w4.csv"
    code, _, _ = run(capsys, "sweep", str(src), "-o", str(out_csv), "--workers", "4", "--tol", "1e-6", "--quiet")
    assert code == 0
    assert len(out_csv.read_bytes().splitlines()) == 7


@pytest.mark.parametrize("tau", ["0.01", "0.1"])
def test_finite_temperature_sweep_deterministic_across_workers(capsys, tmp_path, tau):
    # a tau > 0 sweep runs one Matsubara loop whatever --workers says, so its
    # bytes cannot depend on it
    src = tmp_path / "det.txt"
    src.write_text(serialize(dataclasses.replace(preset_scenario("fig1d"), temperature=float(tau))))
    outputs = []
    for workers in (1, 2, 4):
        out_csv = tmp_path / f"w{workers}.csv"
        code, _, _ = run(capsys, "sweep", str(src), "-o", str(out_csv), "--workers", str(workers), "--quiet")
        assert code == 0
        outputs.append(out_csv.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    assert len(outputs[0].splitlines()) == 65
