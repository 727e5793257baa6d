"""Tests of the benchmark itself: the gate catches corrupted outputs, verify
values do not depend on the thread count, and the tracer sees calls made
through names a module imported from another.

    python3 -m pytest -q perfbench/selftest.py
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import pchgrav  # noqa: E402
import pchgrav.cli  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    EXPECTED_FAIL,
    VERIFY_ROW_IDS,
    ReduceIO,
    check_verify_report,
    verify_values_digest,
)


def _report(failed=(EXPECTED_FAIL,)):
    return {"rows": [{"id": i, "passed": i not in failed, "values": {}} for i in VERIFY_ROW_IDS]}


def test_gate_accepts_the_expected_verdict():
    assert check_verify_report(1, _report()) == []


@pytest.mark.parametrize("exit_code, report", [
    (1, _report(failed=(EXPECTED_FAIL, "eh/reduction-convergence"))),   # a PASS flipped
    (1, _report(failed=())),                                            # the FAIL flipped
    (0, _report()),                                                     # exit code flipped
])
def test_gate_fails_a_flipped_verdict(exit_code, report):
    assert check_verify_report(exit_code, report)


@pytest.fixture
def reduce_pass(tmp_path):
    ReduceIO.prepare(pchgrav, seed=7, workdir=tmp_path, n=8)
    wl = ReduceIO(pchgrav, seed=7, workdir=tmp_path)
    codes = wl.run()
    attempted, failures, _ = wl.check(codes)
    assert codes == [0, 0, 0, 0] and attempted == 4 and failures == []
    return wl, codes


def test_gate_fails_a_perturbed_table_entry(reduce_pass):
    wl, codes = reduce_pass
    path = wl.out["reduce_csv"]
    lines = path.read_text().splitlines()
    cells = lines[5].split(",")
    cells[4] = repr(float(cells[4]) * (1 + 1e-15) + 1e-300)
    lines[5] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    assert wl.check(codes)[1]


@pytest.mark.parametrize("which", ["output", "input"])
def test_gate_fails_a_truncated_field_file(reduce_pass, which):
    wl, codes = reduce_pass
    path = wl.out["ot_bin"] if which == "output" else wl.inputs["coframe"][0]
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    assert wl.check(codes)[1]


def test_verify_values_identical_across_thread_counts(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"suites": ["algebra", "reduction", "brackets", "halfshell"],
                               "grid_n": [4], "seed": 3}))
    digests = []
    for threads in (1, 2):
        out = tmp_path / f"report-{threads}.json"
        pchgrav.cli.main(["verify", "--config", str(cfg), "--out", str(out),
                          "--threads", str(threads)])
        digests.append(verify_values_digest(json.loads(out.read_text())))
    assert digests[0] == digests[1]


def test_tracer_times_calls_through_imported_names():
    cst, grid = pchgrav.constraints, pchgrav.grid
    original = cst.wedge_fields
    g = grid.Grid3(4)
    state = cst.make_on_shell(pchgrav.suites.acceptance_triad_spec(), g, 1.0,
                              pchgrav.fiber.LORENTZIAN)
    alpha = cst.smear_constant(g, 2, [0.3, -0.2, 0.5, 0.1, -0.4, 0.2])
    tracer = Tracer()
    with tracer:
        assert cst.wedge_fields is not original
        cst.eval_L(state, alpha)
    assert cst.wedge_fields is original
    stats = tracer.stats
    assert stats["constraints.eval_L"].calls == 1
    assert stats["grid.wedge_fields"].calls == 2
    eval_l = stats["constraints.eval_L"]
    assert 0 <= eval_l.self_s <= eval_l.incl_s
