"""Config validation, report serialization, CLI surface, determinism."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from pchgrav import cli
from pchgrav.config import ConfigError, load_config, validate_config
from pchgrav.report import load_report, write_report
from pchgrav.suites import run_suites


def write_cfg(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def test_minimal_config_valid(tmp_path):
    path = write_cfg(tmp_path, {"signature": "lorentzian", "gamma": 1, "Lambda": 0,
                                "grid_n": [8], "seed": 1, "suites": ["algebra"]})
    cfg = load_config(path)
    assert cfg.signature == "lorentzian" and cfg.gamma == 1.0 and cfg.suites == ["algebra"]


def test_gamma_zero_rejected(tmp_path):
    with pytest.raises(ConfigError, match="gamma"):
        load_config(write_cfg(tmp_path, {"gamma": 0}))


def test_gamma_infinity_accepted():
    cfg = validate_config({"gamma": "infinity"})
    assert math.isinf(cfg.gamma)
    assert cfg.as_dict()["gamma"] == "infinity"


@pytest.mark.parametrize("raw,path", [
    ({"gamma": math.nan}, "$.gamma"),
    ({"Lambda": math.inf}, "$.Lambda"),
    ({"gamma": True}, "$.gamma"),
    ({"tolerances": {"kernel_sampels": 3}}, "$.tolerances.kernel_sampels"),
    ({"tolerances": {"bracket_ll": math.nan}}, "$.tolerances.bracket_ll"),
    ({"seed": True}, "$.seed"),
])
def test_bad_numbers_and_tolerance_names_exit_2(tmp_path, capsys, raw, path):
    cfgp = write_cfg(tmp_path, {"suites": ["algebra"], **raw})
    assert cli.main(["verify", "--config", str(cfgp)]) == 2
    assert path in capsys.readouterr().err


@pytest.mark.parametrize("name", ["euclidean", "lorentzian"])
def test_signature_names_accepted(name):
    assert validate_config({"signature": name}).signature == name


@pytest.mark.parametrize("name", ["Lorentzian", "timelike", "riemannian", "", 1, None])
def test_other_signature_names_rejected(name):
    with pytest.raises(ConfigError, match=r"\$\.signature"):
        validate_config({"signature": name})


def test_unknown_key_rejected_with_path():
    with pytest.raises(ConfigError, match=r"\$\.frobnicate"):
        validate_config({"frobnicate": 1})


def test_grid_validation():
    with pytest.raises(ConfigError, match=r"\$\.grid_n\[0\]"):
        validate_config({"grid_n": [7]})
    with pytest.raises(ConfigError, match="halfshell"):
        validate_config({"grid_n": [2], "suites": ["algebra"]})
    validate_config({"grid_n": [2], "suites": ["halfshell"]})


def test_unknown_suite_rejected():
    with pytest.raises(ConfigError, match="unknown suite"):
        validate_config({"suites": ["bogus"]})


def test_empty_suites_empty_report():
    cfg = validate_config({"suites": []})
    rep = run_suites(cfg)
    assert rep.rows == [] and rep.all_passed


def test_report_roundtrip_and_csv(tmp_path):
    cfg = validate_config({"suites": ["algebra"], "seed": 3})
    rep = run_suites(cfg)
    jpath = tmp_path / "report with spaces.json"
    write_report(rep, jpath, "json")
    assert load_report(jpath) == rep.as_dict()
    cpath = tmp_path / "report.csv"
    write_report(rep, cpath, "csv")
    lines = cpath.read_text().splitlines()
    assert len(lines) == len(rep.rows) + 1
    assert lines[0].startswith("id,anchor,")


def test_anchor_field_always_present():
    cfg = validate_config({"suites": ["algebra", "kernels"], "seed": 3})
    rep = run_suites(cfg)
    assert all(r.anchor for r in rep.rows)


def test_determinism_contract():
    cfg = validate_config({"suites": ["algebra", "kernels", "reduction"], "seed": 42})
    v1 = [r.values for r in run_suites(cfg).rows]
    v2 = [r.values for r in run_suites(cfg, threads=2).rows]
    assert json.dumps(v1, sort_keys=True, default=str) == json.dumps(v2, sort_keys=True, default=str)


def test_report_meta_records_the_run(tmp_path, monkeypatch):
    import pchgrav

    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    cfgp = write_cfg(tmp_path, {"suites": ["algebra"], "seed": 1})
    out = tmp_path / "rep.json"
    assert cli.main(["verify", "--config", str(cfgp), "--out", str(out), "--threads", "2"]) == 0
    meta = load_report(out)["meta"]
    assert meta["pchgrav"] == pchgrav.__version__
    assert meta["threads"] == 2
    assert meta["thread_env"]["OMP_NUM_THREADS"] == "1"
    assert meta["thread_env"]["MKL_NUM_THREADS"] is None
    assert set(meta["thread_env"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
    assert {"python", "numpy", "platform"} <= set(meta)


def test_cli_verify_exit_codes(tmp_path, capsys):
    cfgp = write_cfg(tmp_path, {"suites": ["algebra"], "seed": 1})
    out = tmp_path / "rep.json"
    code = cli.main(["verify", "--config", str(cfgp), "--out", str(out)])
    assert code == 0
    assert load_report(out)["all_passed"]
    captured = capsys.readouterr()
    assert "[PASS] algebra/twist-determinants" in captured.out

    bad = write_cfg(tmp_path, {"gamma": 0}, "bad.json")
    assert cli.main(["verify", "--config", str(bad)]) == 2

    # deliberately unreachable tolerance forces a check failure -> exit 1
    strict = write_cfg(tmp_path, {"suites": ["algebra"], "seed": 1,
                                  "tolerances": {"star_cyclic": 1e-30}}, "strict.json")
    assert cli.main(["verify", "--config", str(strict)]) == 1


def test_cli_verify_conditioning_failure_exit_3(tmp_path, monkeypatch, capsys):
    from pchgrav import ehdata, suites
    from pchgrav.fiber import LORENTZIAN

    def null_pivot(cfg):
        e = np.broadcast_to(np.eye(3, 4), (2, 2, 2, 3, 4)).copy()
        e[0, 1, 1, 0] = [0.0, 0.0, 1.0, 1.0]    # e_1 null: GramSchmidtError
        ehdata.orthonormal_frame(e, LORENTZIAN)

    monkeypatch.setitem(suites.SUITE_FUNCS, "algebra", null_pivot)
    cfgp = write_cfg(tmp_path, {"suites": ["algebra"], "seed": 1})
    assert cli.main(["verify", "--config", str(cfgp)]) == 3
    assert "site (0, 1, 1)" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["omega-tilde", "reduce"])
def test_cli_null_normal_exit_3_names_site(tmp_path, capsys, command):
    from pchgrav.fiber import LORENTZIAN
    from pchgrav.grid import FormField, Grid3, save_field

    g = Grid3(4)
    e = np.broadcast_to(np.eye(3, 4), (4, 4, 4, 3, 4)).copy()
    e[1, 2, 3, 2] = [0.0, 0.0, 1.0, 1.0]        # e_3 = u_3 + u_4: null normal
    epath, opath = tmp_path / "e.pchf", tmp_path / "om.pchf"
    save_field(FormField(g, 1, 1, e), epath, sig=LORENTZIAN)
    save_field(FormField.zeros(g, 1, 2), opath, sig=LORENTZIAN)
    assert cli.main([command, "--coframe", str(epath), "--connection", str(opath),
                     "--out", str(tmp_path / "out")]) == 3
    assert "site (1, 2, 3)" in capsys.readouterr().err


def _field_files(tmp_path, connection, connection_sig="lorentzian"):
    """A flat Lorentzian coframe at 4^3 and the given connection, written as field files."""
    from pchgrav.fiber import LORENTZIAN, signature_from_name
    from pchgrav.grid import FormField, Grid3, save_field

    e = np.broadcast_to(np.eye(3, 4), (4, 4, 4, 3, 4)).copy()
    epath, opath = tmp_path / "e.pchf", tmp_path / "bad-omega.pchf"
    save_field(FormField(Grid3(4), 1, 1, e), epath, sig=LORENTZIAN)
    save_field(connection, opath,
               sig=signature_from_name(connection_sig) if connection_sig else None)
    return ["--coframe", str(epath), "--connection", str(opath)]


@pytest.mark.parametrize("command", ["omega-tilde", "reduce"])
@pytest.mark.parametrize("p,grade,n,why", [
    (1, 1, 4, "bivector-valued 1-form"),
    (2, 2, 4, "bivector-valued 1-form"),
    (1, 2, 6, "n = 6"),
], ids=["vector-valued", "two-form", "other-grid"])
def test_cli_bad_connection_file_exit_2(tmp_path, capsys, command, p, grade, n, why):
    from pchgrav.grid import FormField, Grid3

    files = _field_files(tmp_path, FormField.zeros(Grid3(n), p, grade))
    assert cli.main([command, *files, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "bad-omega.pchf" in err and why in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["omega-tilde", "reduce"])
def test_cli_connection_signature_mismatch_exit_2(tmp_path, capsys, command):
    from pchgrav.grid import FormField, Grid3

    files = _field_files(tmp_path, FormField.zeros(Grid3(4), 1, 2), connection_sig="euclidean")
    assert cli.main([command, *files, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "bad-omega.pchf" in err and "signature euclidean" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["omega-tilde", "reduce"])
@pytest.mark.parametrize("connection_sig", ["lorentzian", None])
def test_cli_connection_signature_matching_or_absent_accepted(tmp_path, command, connection_sig):
    from pchgrav.grid import FormField, Grid3

    files = _field_files(tmp_path, FormField.zeros(Grid3(4), 1, 2), connection_sig)
    assert cli.main([command, *files, "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out").exists()


def test_cli_field_pipeline(tmp_path):
    from pchgrav.fiber import LORENTZIAN
    from pchgrav.grid import load_field, save_field
    from pchgrav.suites import random_offshell_state

    rng = np.random.Generator(np.random.Philox(key=12))
    st = random_offshell_state(rng, __import__("pchgrav").grid.Grid3(4), LORENTZIAN, 1.0, 0.0)
    epath = tmp_path / "e.pchf"
    opath = tmp_path / "om.pchf"
    save_field(st.e.field, epath, sig=LORENTZIAN)
    save_field(st.omega, opath, sig=LORENTZIAN)

    wout = tmp_path / "omega_tilde.pchf"
    assert cli.main(["omega-tilde", "--coframe", str(epath), "--connection", str(opath),
                     "--out", str(wout)]) == 0
    back, header = load_field(wout)
    assert header["meta"]["structural_residual"] <= 1e-9

    rout = tmp_path / "eh.json"
    assert cli.main(["reduce", "--coframe", str(epath), "--connection", str(opath),
                     "--out", str(rout)]) == 0
    data = json.loads(rout.read_text())
    assert data["n"] == 4 and "H_density" in data["tables"]

    rcsv = tmp_path / "eh.csv"
    assert cli.main(["reduce", "--coframe", str(epath), "--connection", str(opath),
                     "--out", str(rcsv), "--format", "csv"]) == 0
    assert len(rcsv.read_text().splitlines()) == 4**3 + 1


def test_cli_entrypoint_subprocess():
    # the child imports the same package as the tests, installed or not
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "pchgrav.cli", "--help"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "verify" in proc.stdout and "omega-tilde" in proc.stdout
