"""Acceptance criteria, one test per criterion, with printed pass/fail lines.

Every tolerance is pinned here.  Criterion 5 contains one sub-case, the
kernel-intersection dimension at boundary-metric signature (1,0,0), whose
tabulated value 4 (from dim K = 2 dim ker g) is not what the defining kernel
equations give: solving them exactly over the rationals yields 3, and
embedded brute-force computations agree wherever the signature is realizable.
That single assertion is implemented as tabulated and expected to fail
(strict xfail).
"""

import time

import numpy as np
import pytest

from pchgrav import constraints as cst, ehdata as eh, fiber, halfshell as hs
from pchgrav import reduction as red, wedgemaps as wm
from pchgrav.fiber import EUCLIDEAN, LORENTZIAN
from pchgrav.grid import Grid3
from pchgrav.suites import (
    LAPSE_PROBES,
    SHIFT_PROBES,
    acceptance_triad_spec,
    flat_triad_spec,
    random_nondegenerate_coframe,
    random_offshell_state,
    trig_alpha_field,
)

ORDER_WINDOW = (3.2, 4.8)


def report(criterion: str, passed: bool, detail: str):
    print(f"criterion {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    return passed


@pytest.fixture(scope="module")
def onshell_states():
    spec = acceptance_triad_spec()
    return {n: cst.make_on_shell(spec, Grid3(n), 1.0, LORENTZIAN, Lambda=0.1)
            for n in (8, 16, 32)}


def test_criterion_1_twist_determinants():
    t0 = time.perf_counter()
    worst = 0.0
    for g in (0.5, 1.0, 2.0, 10.0):
        _, det = fiber.t_gamma_matrix(g, LORENTZIAN)
        expect = -((1 + g**-2) ** 3)
        worst = max(worst, abs(det - expect) / abs(expect))
    for al in (0.5, 1.0):
        _, det = fiber.f_alpha_matrix(al)
        worst = max(worst, abs(det - (1 + al**2) ** 3) / (1 + al**2) ** 3)
    rt = time.perf_counter() - t0
    ok = worst <= 1e-12 and rt < 1.0
    assert report("1 (twist determinants)", ok,
                  f"max rel error {worst:.2e}, runtime {rt:.3f}s")


def test_criterion_2_morphism_residuals():
    r_e1 = fiber.morphism_residual(1.0, EUCLIDEAN)
    r_e2 = fiber.morphism_residual(-1.0, EUCLIDEAN)
    lor = {g: fiber.morphism_residual(g, LORENTZIAN) for g in (0.5, 1.0, 2.0)}
    ok = r_e1 <= 1e-13 and r_e2 <= 1e-13 and all(v >= 0.1 for v in lor.values())
    assert report("2 (twist morphism)", ok,
                  f"euclid {max(r_e1, r_e2):.2e}; lorentz min {min(lor.values()):.3f}")


def test_criterion_3_star_cyclic():
    rng = np.random.Generator(np.random.Philox(key=30))
    worst = 0.0
    for sig in (EUCLIDEAN, LORENTZIAN):
        S = fiber.star2_matrix(sig)
        for _ in range(100):
            a, b = rng.normal(size=6), rng.normal(size=6)
            l1 = S @ fiber.bracket2(a, b, sig)
            worst = max(worst,
                        np.abs(l1 - fiber.bracket2(S @ a, b, sig)).max(),
                        np.abs(l1 - fiber.bracket2(a, S @ b, sig)).max())
    ok = worst <= 1e-13
    assert report("3 (star cyclic)", ok, f"max residual {worst:.2e} over 200 pairs")


def test_criterion_4_kernel_dimension_table():
    rng = np.random.Generator(np.random.Philox(key=40))
    min_gap = np.inf
    ok = True
    count = 0
    for sig in (LORENTZIAN, EUCLIDEAN):
        for _ in range(50):
            e = random_nondegenerate_coframe(rng, sig)
            count += 1
            for shape, kdim, rank in (((1, 1), 0, 12), ((1, 2), 6, 12), ((2, 1), 6, 6)):
                sp = wm.kernel_basis(e, shape)
                ok &= (sp.kernel_basis.shape[1] == kdim
                       and sp.matrix.shape[1] - kdim == rank)
                min_gap = min(min_gap, sp.gap)
    ok = ok and min_gap >= 1e6 and count >= 100
    assert report("4 (kernel table)", ok,
                  f"{count} coframes, dims 0/6/6 ranks 12/12/6, min gap {min_gap:.1e}")


def test_criterion_5_kernel_intersection_attainable():
    vals = {
        "(1,1,1)": red.kernel_intersection_dim((1, 1, 1)),
        "(1,1,-1)": red.kernel_intersection_dim((1, 1, -1)),
        "(1,1,0)": red.kernel_intersection_dim((1, 1, 0)),
        "(1,-1,0)": red.kernel_intersection_dim((1, -1, 0)),
    }
    ok = (vals["(1,1,1)"] == 0 and vals["(1,1,-1)"] == 0
          and vals["(1,1,0)"] == 2 and vals["(1,-1,0)"] == 2)
    assert report("5 (kernel intersection, signatures (1,1,±1)/(1,±1,0))", ok,
                  f"exact dims {vals}")


@pytest.mark.xfail(strict=True,
                   reason="tabulated value 4 at (1,0,0); the defining kernel equations "
                          "give 3 exactly (the (1,0,0) case analysis misses the "
                          "antisymmetry ties among the v components)")
def test_criterion_5_kernel_intersection_100():
    val = red.kernel_intersection_dim((1, 0, 0))
    report("5 (kernel intersection, signature (1,0,0))", val == 4,
           f"measured dim {val}, stated 4")
    assert val == 4


def test_criterion_6_exact_sequence():
    rng = np.random.Generator(np.random.Philox(key=60))
    worst_wedge, worst_cont = 0.0, 0.0
    dims_ok = True
    for _ in range(100):
        e = random_nondegenerate_coframe(rng, LORENTZIAN)
        rep = red.exact_sequence_check(e, LORENTZIAN)
        worst_wedge = max(worst_wedge, rep.wedge_residual)
        worst_cont = max(worst_cont, rep.containment_residual, rep.reverse_residual)
        dims_ok &= rep.is_exact
    ok = dims_ok and worst_wedge <= 1e-12 and worst_cont <= 1e-10
    assert report("6 (exact sequence)", ok,
                  f"e^[v,e] {worst_wedge:.1e}; containment {worst_cont:.1e}")


def test_criterion_7_omega_tilde():
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(key=70))
    grid = Grid3(8)
    worst_struct, worst_gauge = 0.0, 0.0
    for _ in range(20):
        st = random_offshell_state(rng, grid, LORENTZIAN, 1.0, 0.0)
        worst_struct = max(worst_struct, st.ot.structural_residual)
        pack = cst.projector_pack(st.e)
        shift = cst.kernel_field_from_coords(rng.normal(size=(8, 8, 8, 6)), pack, grid)
        res2 = red.omega_tilde(st.e, st.omega + shift)
        worst_gauge = max(worst_gauge, (res2.omega_tilde - st.omega).sup_norm())
    rt = time.perf_counter() - t0
    ok = worst_struct <= 1e-9 and worst_gauge <= 1e-9 and rt < 60.0
    assert report("7 (structural representative)", ok,
                  f"structural {worst_struct:.1e}, gauge {worst_gauge:.1e}, {rt:.1f}s")


def test_criterion_8_on_shell_builder(onshell_states):
    flat = cst.make_on_shell(flat_triad_spec(), Grid3(8), 1.0, LORENTZIAN)
    flat_L = abs(cst.eval_L(flat, trig_alpha_field(flat.grid)))
    Ls = {n: abs(cst.eval_L(onshell_states[n], trig_alpha_field(onshell_states[n].grid)))
          for n in (8, 16)}
    ratio = Ls[8] / Ls[16]
    ok = flat_L <= 1e-15 and ORDER_WINDOW[0] <= ratio <= ORDER_WINDOW[1]
    assert report("8 (on-shell builder)", ok,
                  f"flat L {flat_L:.1e}; |L| ratio 8->16 {ratio:.2f}")


def test_criterion_9_bracket_algebra(onshell_states):
    rng = np.random.Generator(np.random.Philox(key=90))
    grid = Grid3(4)
    st = random_offshell_state(rng, grid, LORENTZIAN, 1.0, 0.1)
    ac = np.array([0.3, -0.2, 0.5, 0.1, -0.4, 0.2])
    ac2 = np.array([-0.1, 0.4, 0.2, -0.3, 0.25, 0.15])
    br, _ = cst.poisson_bracket(st, "L", cst.smear_constant(grid, 2, ac),
                                "L", cst.smear_constant(grid, 2, ac2))
    rhs = cst.eval_L(st, cst.smear_constant(grid, 2, fiber.bracket2(ac2, ac, LORENTZIAN)))
    rel = abs(br - rhs) / abs(rhs)

    st_on = cst.make_on_shell(acceptance_triad_spec(), grid, 1.0, LORENTZIAN, Lambda=0.1)
    mc = np.array([0.2, -0.3, 0.4, 0.6])
    mc2 = np.array([0.5, 0.1, -0.2, 0.3])
    mu, mu2 = cst.smear_constant(grid, 1, mc), cst.smear_constant(grid, 1, mc2)
    bJJ, _ = cst.poisson_bracket(st_on, "J", mu, "J", mu2)
    scaleJJ = 1.0 + abs(cst.eval_J(st_on, mu)) + abs(cst.eval_J(st_on, mu2))
    budgetJJ = 2.0 * grid.h**2 * scaleJJ

    alpha = cst.smear_constant(grid, 2, ac)
    bLJ, _ = cst.poisson_bracket(st_on, "L", alpha, "J", mu)
    Jam = cst.eval_J(st_on, cst.smear_constant(
        grid, 1, fiber.act_on_vector(ac, mc, LORENTZIAN)))
    lpart = abs(bLJ + Jam)
    budgetLJ = 2.0 * grid.h**2 * (1.0 + abs(Jam))

    ok = (rel <= 1e-4 and abs(rhs) > 1e-8
          and abs(bJJ) <= budgetJJ and lpart <= budgetLJ)
    assert report("9 (bracket algebra)", ok,
                  f"{{L,L'}} rel {rel:.1e}; |{{J,J'}}| {abs(bJJ):.2e} <= {budgetJJ:.2e}; "
                  f"L-part of {{L,J}} {lpart:.2e} <= {budgetLJ:.2e}")


def test_criterion_10_eh_reduction(onshell_states):
    t0 = time.perf_counter()
    comps = {n: eh.compare_pch_eh(onshell_states[n], LAPSE_PROBES, SHIFT_PROBES)
             for n in (8, 16, 32)}
    ratios = {
        "hamiltonian": comps[8]["hamiltonian"] / comps[16]["hamiltonian"],
        "momentum": comps[8]["momentum"] / comps[16]["momentum"],
        "gamma_independence": comps[8]["gamma_independence"] / comps[16]["gamma_independence"],
        "ricci_mutual": comps[16]["ricci_mutual"] / comps[32]["ricci_mutual"],
        "momentum_mutual": comps[16]["momentum_mutual"] / comps[32]["momentum_mutual"],
    }
    grid = Grid3(8)
    X, Y, Z = grid.coords()
    from pchgrav.grid import harmonic
    field = np.stack([harmonic(0.7, (1, 0, 0), 0.2).eval(X, Y, Z),
                      harmonic(0.5, (0, 1, 0), 1.0).eval(X, Y, Z),
                      harmonic(0.3, (1, 1, 1), 0.4).eval(X, Y, Z)], axis=-1)
    div_int = abs(eh.exact_divergence_integral(grid, field))
    rt = time.perf_counter() - t0
    ok = (all(ORDER_WINDOW[0] <= r <= ORDER_WINDOW[1] for r in ratios.values())
          and div_int <= 1e-12 and rt < 300.0)
    detail = ", ".join(f"{k} {v:.2f}" for k, v in ratios.items())
    assert report("10 (EH reduction)", ok,
                  f"order-2 ratios: {detail}; exact boundary term {div_int:.1e}; {rt:.0f}s")


def test_criterion_11_halfshell():
    rng = np.random.Generator(np.random.Philox(key=110))
    st = hs.sample_locus_state(Grid3(2), LORENTZIAN, 1.0, rng)
    rep_full = hs.isotropy_diagnosis(st, full_locus=True)
    rep_t0 = hs.isotropy_diagnosis(st, full_locus=False)
    ok = (rep_full.max_pairing <= 1e-10
          and rep_full.dim_orthogonal > rep_full.dim_tangent
          and rep_t0.dim_orthogonal == rep_t0.dim_tangent)
    assert report("11 (half-shell locus)", ok,
                  f"max pairing {rep_full.max_pairing:.1e}; "
                  f"dims {rep_full.dim_tangent} < {rep_full.dim_orthogonal} (full); "
                  f"{rep_t0.dim_tangent} = {rep_t0.dim_orthogonal} (multiplier only)")
