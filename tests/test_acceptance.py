"""Acceptance criteria, one test per criterion, with printed pass/fail lines.

Each test reads its rows, by id, from the session's one `pchgrav verify` run
on the default config (Lorentzian, gamma = 1); criterion 4 also reads the
`kernels` suite run Euclidean with gamma = 2.  Every bound is pinned here and
asserted on the rows' values, not taken from a row's verdict, which uses the
configurable `config.TOLERANCES`.

Criterion 5 contains one sub-case, the kernel-intersection dimension at
boundary-metric signature (1,0,0), whose tabulated value 4 (from dim K =
2 dim ker g) is not what the defining kernel equations give: solving them
exactly over the rationals yields 3, and embedded brute-force computations
agree wherever the signature is realizable.  That single assertion is
implemented as tabulated and expected to fail (strict xfail).

Criterion 11 reads the dimension counts alone: the delta t rows of the
half-shell tangent basis are zero, so B^T Omega B = 0 by construction and the
row carries no pairing value.
"""

import pytest

from pchgrav import suites
from pchgrav.config import validate_config
from pchgrav.suites import SuiteAbort, run_suites

ORDER_WINDOW = (3.2, 4.8)


def report(criterion: str, passed: bool, detail: str):
    print(f"criterion {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    return passed


class ReportRows(dict):
    """The rows of a verify report by id; a missing row fails with the run's abort."""

    def __missing__(self, row_id):
        errors = [f"{k}: {row['values']['error']}" for k, row in self.items() if k.endswith("/aborted")]
        pytest.fail(f"row {row_id} is not in the verify report; "
                    + ("; ".join(errors) if errors else "no suite aborted"))


@pytest.fixture(scope="module")
def rows(default_verify):
    return ReportRows((row["id"], row) for row in default_verify[1]["rows"])


def test_a_missing_row_names_the_abort(monkeypatch):
    def broken(cfg):
        raise ArithmeticError("bracket stencil refused")

    monkeypatch.setitem(suites.SUITE_FUNCS, "brackets", broken)
    with pytest.raises(SuiteAbort) as abort:
        run_suites(validate_config({"suites": ["algebra", "brackets"]}))
    partial = ReportRows((row.id, row.as_dict()) for row in abort.value.report.rows)
    assert partial["algebra/twist-determinants"]["passed"]
    with pytest.raises(pytest.fail.Exception,
                       match="brackets/aborted: ArithmeticError: bracket stencil refused"):
        partial["brackets/energy-brackets"]


@pytest.fixture(scope="module")
def euclidean_rows():
    cfg = validate_config({"signature": "euclidean", "gamma": 2.0, "suites": ["kernels"]})
    return {row.id: row.as_dict() for row in run_suites(cfg).rows}


def test_criterion_1_twist_determinants(rows):
    row = rows["algebra/twist-determinants"]
    worst = row["values"]["rel_error"]
    ok = worst <= 1e-12 and row["runtime_s"] < 1.0
    assert report("1 (twist determinants)", ok,
                  f"max rel error {worst:.2e}, runtime {row['runtime_s']:.3f}s")


def test_criterion_2_morphism_residuals(rows):
    v = rows["algebra/twist-morphism"]["values"]
    euclid = max(v["euclid_+1"], v["euclid_-1"])
    lorentz = min(v[f"lorentz_{g}"] for g in (0.5, 1.0, 2.0))
    ok = euclid <= 1e-13 and lorentz >= 0.1
    assert report("2 (twist morphism)", ok, f"euclid {euclid:.2e}; lorentz min {lorentz:.3f}")


def test_criterion_3_star_cyclic(rows):
    v = rows["algebra/star-cyclic"]["values"]
    ok = v["max_residual"] <= 1e-13 and v["pairs"] >= 200
    assert report("3 (star cyclic)", ok,
                  f"max residual {v['max_residual']:.2e} over {v['pairs']} pairs")


def test_criterion_4_kernel_dimension_table(rows, euclidean_rows):
    table = [rows["kernels/kernel-table"], euclidean_rows["kernels/kernel-table"]]
    vals = [row["values"] for row in table]
    count = sum(v["frames"] for v in vals)
    min_gap = min(v["min_gap"] for v in vals)
    worst_proj = max(v["projector_residual"] for v in vals)
    worst_eq = max(v["explicit_equation_residual"] for v in vals)
    ok = (all(v["kernel_dims"] == {"(1, 1)": 0, "(1, 2)": 6, "(2, 1)": 6} for v in vals)
          and all(v["ranks"] == {"(1, 1)": 12, "(1, 2)": 12, "(2, 1)": 6} for v in vals)
          and min_gap >= 1e6 and count >= 100 and worst_proj <= 1e-12 and worst_eq <= 1e-12)
    assert report("4 (kernel table)", ok,
                  f"{count} coframes over both signatures, dims 0/6/6 ranks 12/12/6, "
                  f"min gap {min_gap:.1e}, projectors {worst_proj:.1e}, "
                  f"equations {worst_eq:.1e}")


def test_criterion_5_kernel_intersection_attainable(rows):
    v = rows["reduction/kernel-intersection"]["values"]
    dims = {k: v["dims"][k] for k in ("(1, 1, 1)", "(1, 1, -1)", "(1, 1, 0)", "(1, -1, 0)")}
    ok = list(dims.values()) == [0, 0, 2, 2] and v["embedded_110"] == 2
    assert report("5 (kernel intersection, signatures (1,1,±1)/(1,±1,0))", ok,
                  f"exact dims {dims}, embedded (1,1,0) {v['embedded_110']}")


@pytest.mark.xfail(strict=True,
                   reason="tabulated value 4 at (1,0,0); the defining kernel equations "
                          "give 3 exactly (the (1,0,0) case analysis misses the "
                          "antisymmetry ties among the v components)")
def test_criterion_5_kernel_intersection_100(rows):
    val = rows["reduction/kernel-intersection-(1,0,0)"]["values"]["measured"]
    report("5 (kernel intersection, signature (1,0,0))", val == 4,
           f"measured dim {val}, stated 4")
    assert val == 4


def test_criterion_6_exact_sequence(rows):
    v = rows["reduction/exact-sequence"]["values"]
    ok = (v["image_dims"] == [6] and v["sites"] >= 100 and v["wedge_residual"] <= 1e-12
          and v["containment_residual"] <= 1e-10)
    assert report("6 (exact sequence)", ok,
                  f"{v['sites']} coframes; e^[v,e] {v['wedge_residual']:.1e}; "
                  f"containment {v['containment_residual']:.1e}")


def test_criterion_7_omega_tilde(rows):
    row = rows["reduction/omega-tilde"]
    v = row["values"]
    ok = (v["states"] >= 20 and v["structural"] <= 1e-9 and v["gauge_shift"] <= 1e-9
          and row["runtime_s"] < 60.0)
    assert report("7 (structural representative)", ok,
                  f"{v['states']} states, structural {v['structural']:.1e}, "
                  f"gauge {v['gauge_shift']:.1e}, {row['runtime_s']:.1f}s")


def test_criterion_8_on_shell_builder(rows):
    flat_L = rows["constraints/flat-state"]["values"]["L"]
    ratio = rows["constraints/on-shell-order2"]["values"]["ratio"]
    ok = flat_L <= 1e-15 and ORDER_WINDOW[0] <= ratio <= ORDER_WINDOW[1]
    assert report("8 (on-shell builder)", ok, f"flat L {flat_L:.1e}; |L| ratio 8->16 {ratio:.2f}")


def test_criterion_9_bracket_algebra(rows):
    h2 = (1 / 4) ** 2       # the brackets suite's 4^3 grid
    ll = rows["brackets/gauge-algebra"]["values"]
    jj = rows["brackets/energy-brackets"]["values"]
    lj = rows["brackets/mixed-bracket"]["values"]
    budget_jj = 2.0 * h2 * jj["J_scale"]
    budget_lj = 2.0 * h2 * (1.0 + abs(lj["J_bracketed"]))
    ok = (ll["rel_error"] <= 1e-4 and abs(ll["rhs"]) > 1e-8
          and abs(jj["bracket_n4"]) <= budget_jj and abs(lj["l_part"]) <= budget_lj)
    assert report("9 (bracket algebra)", ok,
                  f"{{L,L'}} rel {ll['rel_error']:.1e}; "
                  f"|{{J,J'}}| {abs(jj['bracket_n4']):.2e} <= {budget_jj:.2e}; "
                  f"L-part of {{L,J}} {abs(lj['l_part']):.2e} <= {budget_lj:.2e}")


def test_criterion_10_eh_reduction(rows):
    row = rows["eh/reduction-convergence"]
    ratios = row["values"]["ratios"]
    div_int = rows["eh/closed-boundary-term"]["values"]["integral"]
    ok = (all(ORDER_WINDOW[0] <= r <= ORDER_WINDOW[1] for r in ratios.values())
          and div_int <= 1e-12 and row["runtime_s"] < 300.0)
    detail = ", ".join(f"{k} {r:.2f}" for k, r in ratios.items())
    assert report("10 (EH reduction)", ok,
                  f"order-2 ratios: {detail}; exact boundary term {div_int:.1e}; "
                  f"{row['runtime_s']:.0f}s")


def test_criterion_11_halfshell(rows):
    v = rows["halfshell/isotropy"]["values"]
    ok = (v["dim_orthogonal"] > v["dim_tangent"]
          and v["t0_dim_orthogonal"] == v["t0_dim_tangent"])
    assert report("11 (half-shell locus)", ok,
                  f"dims {v['dim_tangent']} < {v['dim_orthogonal']} (full); "
                  f"{v['t0_dim_tangent']} = {v['t0_dim_orthogonal']} (multiplier only)")
