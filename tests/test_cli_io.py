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
from pchgrav.report import write_report
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
    # sample counts are constants of the suites, not tolerances
    ({"tolerances": {"kernel_samples": 100}}, "$.tolerances.kernel_samples"),
    ({"tolerances": {"omega_tilde_states": -3}}, "$.tolerances.omega_tilde_states"),
])
def test_bad_numbers_and_tolerance_names_exit_2(tmp_path, capsys, raw, path):
    cfgp = write_cfg(tmp_path, {"suites": ["algebra"], **raw})
    assert cli.main(["verify", "--config", str(cfgp)]) == 2
    assert path in capsys.readouterr().err


@pytest.mark.parametrize("gamma", [1, -1.0])
def test_euclidean_unit_gamma_exits_2(tmp_path, capsys, gamma):
    # star^2 = 1 makes T_gamma singular at gamma = +-1; the default gamma is 1
    for raw in ({"signature": "euclidean", "gamma": gamma}, {"signature": "euclidean"}):
        cfgp = write_cfg(tmp_path, raw)
        assert cli.main(["verify", "--config", str(cfgp)]) == 2
        assert "$.gamma" in capsys.readouterr().err
    assert validate_config({"signature": "lorentzian", "gamma": gamma}).gamma == gamma
    assert validate_config({"signature": "euclidean", "gamma": 2 * gamma}).gamma == 2 * gamma


@pytest.mark.parametrize("name", ["euclidean", "lorentzian"])
def test_signature_names_accepted(name):
    # gamma = 2: the default gamma = 1 is refused for the euclidean signature
    assert validate_config({"signature": name, "gamma": 2.0}).signature == name


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


@pytest.mark.parametrize("threads", ["1", "2"])
def test_repeated_suite_exit_2(tmp_path, capsys, threads):
    # a repeated suite would write each of its rows twice under one id
    cfgp = write_cfg(tmp_path, {"suites": ["algebra", "algebra"]})
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--config", str(cfgp), "--out", str(out),
                     "--threads", threads]) == 2
    assert "$.suites[1]" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ConfigError, match=r"\$\.suites\[2\]"):
        validate_config({"suites": ["eh", "algebra", "eh"]})


@pytest.mark.parametrize("grid_n", [[8, 12, 16], [4, 6, 10], [8, 16, 24], [4, 8, 12, 16]])
def test_non_doubling_ladder_exit_2(tmp_path, capsys, grid_n):
    # the eh order windows 3.2-4.8 assume halving: (12/8)^2 = 2.25 would read as a failure
    cfgp = write_cfg(tmp_path, {"suites": ["eh"], "grid_n": grid_n})
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--config", str(cfgp), "--out", str(out)]) == 2
    assert "$.grid_n:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("grid_n", [[8], [8, 12], [16, 8, 8, 32], [4, 8, 16, 24], [6, 12, 24]])
def test_doubling_or_short_ladders_accepted(grid_n):
    assert validate_config({"grid_n": grid_n}).grid_n == grid_n


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
    assert json.loads(jpath.read_text()) == rep.as_dict()
    cpath = tmp_path / "report.csv"
    write_report(rep, cpath, "csv")
    lines = cpath.read_text().splitlines()
    assert len(lines) == len(rep.rows) + 1
    assert lines[0] == "id,anchor,inputs_digest,values,decisions,passed,runtime_s"


def test_anchor_field_always_present():
    cfg = validate_config({"suites": ["algebra", "kernels"], "seed": 3})
    rep = run_suites(cfg)
    assert all(r.anchor for r in rep.rows)


def test_determinism_contract():
    cfg = validate_config({"suites": ["algebra", "kernels", "reduction"], "seed": 42})
    v1 = [(r.values, r.decisions) for r in run_suites(cfg).rows]
    v2 = [(r.values, r.decisions) for r in run_suites(cfg, threads=2).rows]
    assert json.dumps(v1, sort_keys=True, default=str) == json.dumps(v2, sort_keys=True, default=str)


def test_report_meta_records_the_run(tmp_path, monkeypatch):
    import pchgrav

    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    cfgp = write_cfg(tmp_path, {"suites": ["algebra"], "seed": 1})
    out = tmp_path / "rep.json"
    assert cli.main(["verify", "--config", str(cfgp), "--out", str(out), "--threads", "2"]) == 0
    meta = json.loads(out.read_text())["meta"]
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
    assert json.loads(out.read_text())["all_passed"]
    captured = capsys.readouterr()
    assert "[PASS] algebra/twist-determinants" in captured.out

    bad = write_cfg(tmp_path, {"gamma": 0}, "bad.json")
    assert cli.main(["verify", "--config", str(bad)]) == 2

    # a floor no finite residual reaches forces a check failure -> exit 1, whatever the
    # roundoff of the computed residuals
    strict = write_cfg(tmp_path, {"suites": ["algebra"], "seed": 1,
                                  "tolerances": {"morphism_floor": 1e30}}, "strict.json")
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


def test_parallel_abort_cancels_suites_not_started(monkeypatch):
    import threading
    from concurrent.futures import ThreadPoolExecutor

    from pchgrav import suites

    started = []
    release = threading.Event()

    class ReleasingPool(ThreadPoolExecutor):
        # the running suites are released only once the pool has been shut down
        # with the caller's cancel_futures, so no queued suite can start in between
        def shutdown(self, wait=True, *, cancel_futures=False):
            super().shutdown(wait=False, cancel_futures=cancel_futures)
            release.set()
            super().shutdown(wait=wait)

    def failing(cfg):
        raise RuntimeError("algebra broke")

    def recording(name):
        def run(cfg):
            started.append(name)
            release.wait(timeout=30)
            return []
        return run

    monkeypatch.setattr(suites, "ThreadPoolExecutor", ReleasingPool)
    cfg = validate_config({})
    for name in cfg.suites:
        monkeypatch.setitem(suites.SUITE_FUNCS, name, failing if name == "algebra" else recording(name))
    with pytest.raises(suites.SuiteAbort) as info:
        run_suites(cfg, threads=2)
    # one suite per worker can have left the queue before the abort: the first two
    assert set(started) <= {"kernels", "reduction"}
    assert [r.id for r in info.value.report.rows] == ["algebra/aborted"]
    assert info.value.report.rows[0].values == {"error": "RuntimeError: algebra broke"}
    assert isinstance(info.value.cause, RuntimeError)


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
@pytest.mark.parametrize("fmt", ["binary", "json"])
def test_cli_non_finite_field_file_exit_2(tmp_path, capsys, command, fmt):
    from pchgrav.fiber import LORENTZIAN
    from pchgrav.grid import FormField, Grid3, save_field

    g = Grid3(4)
    e = np.broadcast_to(np.eye(3, 4), (4, 4, 4, 3, 4)).copy()
    om = np.zeros((4, 4, 4, 3, 6))
    good_e, good_om = e.copy(), om.copy()
    e[1, 2, 3, 0, 0] = np.inf
    om[3, 2, 1, 2, 5] = np.nan
    for bad, (ef, of) in (("e-inf", (e, good_om)), ("omega-nan", (good_e, om))):
        epath, opath = tmp_path / f"{bad}-e.pchf", tmp_path / f"{bad}-om.pchf"
        save_field(FormField(g, 1, 1, ef), epath, sig=LORENTZIAN, fmt=fmt)
        save_field(FormField(g, 1, 2, of), opath, sig=LORENTZIAN, fmt=fmt)
        out = tmp_path / f"{bad}-out"
        assert cli.main([command, "--coframe", str(epath), "--connection", str(opath),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert (epath.name if bad == "e-inf" else opath.name) in err
        assert "non-finite field values" in err and not out.exists()


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


def test_reduce_csv_is_the_json_tables(tmp_path):
    import csv

    from pchgrav.fiber import LORENTZIAN
    from pchgrav.grid import Grid3, save_field
    from pchgrav.suites import random_offshell_state

    n = 4
    st = random_offshell_state(np.random.Generator(np.random.Philox(key=12)), Grid3(n),
                               LORENTZIAN, 1.0, 0.0)
    files = ["--coframe", str(tmp_path / "e.pchf"), "--connection", str(tmp_path / "om.pchf")]
    save_field(st.e.field, files[1], sig=LORENTZIAN)
    save_field(st.omega, files[3], sig=LORENTZIAN)
    jout, cout = tmp_path / "eh.json", tmp_path / "eh.csv"
    assert cli.main(["reduce", *files, "--out", str(jout), "--Lambda", "0.1"]) == 0
    assert cli.main(["reduce", *files, "--out", str(cout), "--format", "csv",
                     "--Lambda", "0.1"]) == 0
    tables = json.loads(jout.read_text())["tables"]
    with open(cout, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    pairs = [f"{a}{b}" for a in range(3) for b in range(3)]
    assert header == (["i", "j", "k"] + [f"{t}_{p}" for t in ("g", "K", "Pi") for p in pairs]
                      + ["R_scalar", "H_density", "M_0", "M_1", "M_2"])
    assert [tuple(int(x) for x in r[:3]) for r in rows] == list(np.ndindex(n, n, n))
    for r in rows:
        i, j, k = (int(x) for x in r[:3])
        want = (np.ravel(tables["g"][i][j][k]).tolist() + np.ravel(tables["K"][i][j][k]).tolist()
                + np.ravel(tables["Pi"][i][j][k]).tolist()
                + [tables["R_scalar"][i][j][k], tables["H_density"][i][j][k]]
                + tables["M_density"][i][j][k])
        assert [float(x) for x in r[3:]] == want


def test_reduce_files_are_the_old_writers_bytes(tmp_path):
    # the old writers: json.dump of the whole document, csv.writer.writerows per site
    import csv
    import io

    from pchgrav import ehdata as eh
    from pchgrav.fiber import LORENTZIAN
    from pchgrav.grid import Coframe, Grid3, save_field
    from pchgrav.reduction import omega_tilde
    from pchgrav.suites import random_offshell_state

    n = 4
    st = random_offshell_state(np.random.Generator(np.random.Philox(key=12)), Grid3(n),
                               LORENTZIAN, 1.0, 0.0)
    files = ["--coframe", str(tmp_path / "e.pchf"), "--connection", str(tmp_path / "om.pchf")]
    save_field(st.e.field, files[1], sig=LORENTZIAN)
    save_field(st.omega, files[3], sig=LORENTZIAN)
    jout, cout = tmp_path / "eh.json", tmp_path / "eh.csv"
    assert cli.main(["reduce", *files, "--out", str(jout), "--Lambda", "0.1"]) == 0
    assert cli.main(["reduce", *files, "--out", str(cout), "--format", "csv",
                     "--Lambda", "0.1"]) == 0

    e = Coframe(st.e.field, LORENTZIAN)
    frame = eh.orthonormal_frame(e.data, LORENTZIAN)
    split = eh.split_connection(omega_tilde(e, st.omega).omega_tilde, frame, e.grid)
    data = eh.eh_data(frame, split, e.grid, Lambda=0.1)
    tables = [data.g, data.K, data.Pi, data.R_scalar, data.H_density, data.M_density]
    old = {"n": n, "signature": "lorentzian", "eta00": data.eta00,
           "gamma_block_residual": split.gamma_residual, "k_asymmetry": split.k_asymmetry,
           "tables": dict(zip(["g", "K", "Pi", "R_scalar", "H_density", "M_density"],
                              (t.tolist() for t in tables)))}
    buf = io.StringIO()
    json.dump(old, buf)
    assert jout.read_bytes() == buf.getvalue().encode()

    table = np.concatenate([t.reshape(n**3, -1) for t in tables], axis=1)
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(["i", "j", "k"] + [f"{t}_{a}{b}" for t in ("g", "K", "Pi")
                                  for a in range(3) for b in range(3)]
               + ["R_scalar", "H_density", "M_0", "M_1", "M_2"])
    w.writerows([*site, *row.tolist()] for site, row in zip(np.ndindex(n, n, n), table))
    assert cout.read_bytes() == buf.getvalue().encode()


def test_reduce_writers_keep_the_repr_forms():
    # the float forms where a hand-rolled formatter drifts from repr
    import csv
    import io

    edge = [-0.0, 1e-05, 1e+16, 5e-324, 0.1 + 0.2, 1.0, -2.5e-300, 1.7976931348623157e308]
    big = np.array(edge * 3).reshape(2, 2, 2, 3)
    small = np.array(edge).reshape(2, 2, 2)
    head = {"n": 2, "signature": "lorentzian", "eta00": -1.0, "gamma_block_residual": 5e-324}
    tables = {"g": big, "R_scalar": small}

    buf = io.StringIO()
    cli._write_tables_json(buf, head, tables)
    want = json.dumps({**head, "tables": {k: t.tolist() for k, t in tables.items()}})
    assert buf.getvalue() == want
    back = json.loads(buf.getvalue())["tables"]
    assert all(np.array_equal(np.array(back[k]), t) and
               (np.signbit(np.array(back[k])) == np.signbit(t)).all() for k, t in tables.items())

    table = np.concatenate([big.reshape(8, -1), small.reshape(8, 1)], axis=1)
    sites = np.indices((2, 2, 2)).reshape(3, -1).T.tolist()
    buf = io.StringIO(newline="")
    cli._write_rows_csv(buf, sites, table)
    want = io.StringIO(newline="")
    csv.writer(want).writerows([*site, *row.tolist()]
                               for site, row in zip(np.ndindex(2, 2, 2), table))
    assert buf.getvalue() == want.getvalue()
    rows = [[float(x) for x in r[3:]] for r in csv.reader(io.StringIO(buf.getvalue(), newline=""))]
    assert np.array_equal(rows, table) and (np.signbit(rows) == np.signbit(table)).all()


@pytest.mark.parametrize("count", ["0", "-4"])
def test_verify_threads_below_one_exit_2(tmp_path, capsys, count):
    cfgp = write_cfg(tmp_path, {"suites": ["algebra"], "seed": 1})
    out = tmp_path / "rep.json"
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "--config", str(cfgp), "--out", str(out), "--threads", count])
    assert info.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999", "x"])
def test_reduce_non_finite_lambda_exit_2(tmp_path, capsys, value):
    from pchgrav.grid import FormField, Grid3

    files = _field_files(tmp_path, FormField.zeros(Grid3(4), 1, 2))
    out = tmp_path / "eh.json"
    with pytest.raises(SystemExit) as info:
        cli.main(["reduce", *files, "--out", str(out), "--Lambda", value])
    assert info.value.code == 2
    assert "--Lambda" in capsys.readouterr().err
    assert not out.exists()


def test_cli_entrypoint_subprocess():
    # the child imports the same package as the tests, installed or not
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "pchgrav.cli", "--help"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "verify" in proc.stdout and "omega-tilde" in proc.stdout
