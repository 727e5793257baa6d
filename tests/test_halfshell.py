"""Half-shell boundary chart, symplectomorphism, isotropy diagnosis."""

import numpy as np
import pytest

from pchgrav import constraints as cst, fiber, halfshell as hs, wedgemaps as wm
from pchgrav.fiber import LORENTZIAN
from pchgrav.grid import (
    FormField,
    Grid3,
    curvature,
    random_field_spec,
    t_gamma_field,
    wedge_fields,
)

RNG = np.random.Generator(np.random.Philox(key=707))


@pytest.fixture(scope="module")
def locus_state():
    return hs.sample_locus_state(Grid3(2), LORENTZIAN, 1.0,
                                 np.random.Generator(np.random.Philox(key=3)))


def test_locus_state_satisfies_equation(locus_state):
    st = locus_state
    TF = t_gamma_field(curvature(st.omega_ref, st.sig), st.gamma, st.sig)
    assert wedge_fields(st.e.field, TF).sup_norm() <= 1e-12
    assert TF.sup_norm() > 0.1   # the equation is nontrivial


def test_projection_formula(locus_state):
    st = locus_state
    # omega = omega_ref, t = 0  ->  t_bold = 0
    tb, eb = hs.hs_project(st)
    assert tb.sup_norm() <= 1e-14
    assert eb is st.e.field
    # t = 0, omega arbitrary -> t_bold = T[omega_ref - omega] ^ e
    om = random_field_spec(RNG, 1, 2, n_modes=1, amp=0.4).sample(st.grid)
    st2 = hs.HalfShellState(st.e, om, FormField.zeros(st.grid, 2, 3), st.omega_ref, st.gamma)
    tb2, _ = hs.hs_project(st2)
    expect = wedge_fields(t_gamma_field(st.omega_ref - om, st.gamma, st.sig), st.e.field)
    assert (tb2 - expect).sup_norm() <= 1e-13


def test_kernel_flow_invariance(locus_state):
    st = locus_state
    tb0, _ = hs.hs_project(st)
    for _ in range(5):
        sigma = random_field_spec(RNG, 1, 2, n_modes=1, amp=0.6).sample(st.grid)
        tb1, _ = hs.hs_project(hs.kernel_flow(st, sigma))
        assert (tb1 - tb0).sup_norm() <= 1e-11


def test_phi_symplecto_zero_maps_to_kernel_class(locus_state):
    st = locus_state
    zero = FormField.zeros(st.grid, 2, 3)
    om, res = hs.phi_symplecto(zero, st.e, st.gamma)
    assert om.sup_norm() <= 1e-12 and res <= 1e-12


def test_phi_symplecto_round_trip(locus_state):
    st = locus_state
    for _ in range(5):
        om = random_field_spec(RNG, 1, 2, n_modes=1, amp=0.5).sample(st.grid)
        tb = wedge_fields(t_gamma_field(om, st.gamma, st.sig), st.e.field)
        om_rec, _ = hs.phi_symplecto(tb, st.e, st.gamma)
        tb2 = wedge_fields(t_gamma_field(om_rec, st.gamma, st.sig), st.e.field)
        assert (tb2 - tb).sup_norm() <= 1e-10


def test_pairing_pullback_matches(locus_state):
    st = locus_state
    tb0, _ = hs.hs_project(st)
    om0, _ = hs.phi_symplecto(tb0, st.e, st.gamma)
    Tom = t_gamma_field(om0, st.gamma, st.sig)

    def dt(de, dw):
        return (wedge_fields(t_gamma_field(dw, st.gamma, st.sig), st.e.field)
                + wedge_fields(Tom, de))

    for _ in range(5):
        de1 = random_field_spec(RNG, 1, 1, n_modes=1, amp=0.2).sample(st.grid)
        dw1 = random_field_spec(RNG, 1, 2, n_modes=1, amp=0.2).sample(st.grid)
        de2 = random_field_spec(RNG, 1, 1, n_modes=1, amp=0.2).sample(st.grid)
        dw2 = random_field_spec(RNG, 1, 2, n_modes=1, amp=0.2).sample(st.grid)
        lhs = hs.symplectic_form_hs((dt(de1, dw1), de1), (dt(de2, dw2), de2))
        # varpi_HS pulls back to -varpi of the plain boundary chart
        rhs = -cst.symplectic_form(st, cst.TangentVector(de1, dw1, "probe"),
                                   cst.TangentVector(de2, dw2, "probe"))
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_projection_is_surjective_submersion(locus_state):
    # for any target (dt_bold, de) a preimage variation exists: take dt = the
    # required multiplier shift at fixed omega; this realizes full row rank
    st = locus_state
    dtb = random_field_spec(RNG, 2, 3, n_modes=1, amp=0.4).sample(st.grid)
    de = random_field_spec(RNG, 1, 1, n_modes=1, amp=0.4).sample(st.grid)
    diff = t_gamma_field(st.omega_ref - st.omega, st.gamma, st.sig)
    dt_needed = dtb - wedge_fields(diff, de)
    st2 = hs.HalfShellState(
        e=type(st.e)(st.e.field + 0.0 * de, st.sig),
        omega=st.omega, t=st.t + dt_needed, omega_ref=st.omega_ref, gamma=st.gamma)
    tb2, _ = hs.hs_project(st2)
    tb0, _ = hs.hs_project(st)
    assert ((tb2 - tb0) - dtb).sup_norm() <= 1e-12


def test_isotropy_full_locus(locus_state):
    rep = hs.isotropy_diagnosis(locus_state, full_locus=True)
    assert rep.max_pairing <= 1e-10
    assert rep.dim_orthogonal > rep.dim_tangent
    assert not rep.lagrangian


def test_t_zero_alone_is_lagrangian(locus_state):
    rep = hs.isotropy_diagnosis(locus_state, full_locus=False)
    assert rep.dim_orthogonal == rep.dim_tangent
    assert rep.lagrangian


def test_loci_inequivalence(locus_state):
    st = locus_state
    M12 = wm.wedge_matrix(st.e.data, (1, 2))
    _, _, vh = np.linalg.svd(M12)
    kern = vh[..., 12:, :]
    coeff = RNG.normal(size=kern.shape[:-2] + (1, 6))
    sig_data = (coeff @ kern)[..., 0, :].reshape((2,) * 3 + (3, 6))
    Tinv = np.linalg.inv(fiber.t_gamma_endo_matrix(st.gamma, st.sig))
    om_hs = FormField(st.grid, 1, 2, sig_data @ Tinv.T)
    hs_res, pch_res = hs.locus_residuals(st.e, om_hs, st.omega_ref, st.gamma)
    assert hs_res <= 1e-10 and pch_res >= 0.1
    om_pch = st.omega_ref + om_hs
    hs2, pch2 = hs.locus_residuals(st.e, om_pch, st.omega_ref, st.gamma)
    assert pch2 <= 1e-10 and hs2 >= 0.1


def test_loci_coincide_with_vanishing_multiplier(locus_state):
    # with t = 0 the half-shell membership t_bold = 0 and the class membership
    # are literally the same linear condition on omega
    st = locus_state
    om = random_field_spec(RNG, 1, 2, n_modes=1, amp=0.5).sample(st.grid)
    diff = t_gamma_field(om - st.omega_ref, st.gamma, st.sig)
    t_bold_res = wedge_fields(diff, st.e.field).sup_norm()
    M12 = wm.wedge_matrix(st.e.data, (1, 2))
    dvec = diff.data.reshape((2,) * 3 + (18,))
    class_res = float(np.abs(np.einsum("...ij,...j->...i", M12, dvec)).max())
    assert abs(t_bold_res - class_res) <= 1e-10 * max(1.0, class_res)


def test_isotropy_dimensions_and_pairing(locus_state):
    # rank 4 of the locus Jacobian at each of the 8 sites: 8 tangent directions
    # per site on the full locus, all 12 of delta e on t_bold = 0
    full = hs.isotropy_diagnosis(locus_state, full_locus=True)
    t0 = hs.isotropy_diagnosis(locus_state, full_locus=False)
    assert (full.dim_tangent, full.dim_orthogonal, full.max_pairing) == (64, 128, 0.0)
    assert (t0.dim_tangent, t0.dim_orthogonal, t0.max_pairing) == (96, 96, 0.0)


def test_wedge_matrix_largest_entry_is_the_coframe_largest_entry():
    # locus_residuals normalizes by |e|max in place of the largest entry of W_e^{(1,2)}
    e = RNG.normal(size=(20, 3, 4))
    M = wm.wedge_matrix(e, (1, 2))
    assert np.array_equal(np.abs(M).max(axis=(-2, -1)), np.abs(e).max(axis=(-2, -1)))


def test_phi_symplecto_is_complement_valued(locus_state):
    st = locus_state
    om = random_field_spec(RNG, 1, 2, n_modes=1, amp=0.5).sample(st.grid)
    tb = wedge_fields(t_gamma_field(om, st.gamma, st.sig), st.e.field)
    om_rec, res = hs.phi_symplecto(tb, st.e, st.gamma)
    assert res <= 1e-12
    pack = cst.projector_pack(st.e)
    twisted = t_gamma_field(om_rec, st.gamma, st.sig).data
    assert np.abs(pack.p12(twisted)).max() <= 1e-12 * np.abs(twisted).max()


@pytest.fixture
def linalg_calls(monkeypatch):
    """Record the operand shapes of np.linalg.svd, pinv and matrix_rank calls."""
    calls = []

    def recorded(name, fn):
        def call(a, *args, **kwargs):
            calls.append((name, np.shape(a)))
            return fn(a, *args, **kwargs)
        return call

    for name in ("svd", "pinv", "matrix_rank"):
        monkeypatch.setattr(np.linalg, name, recorded(name, getattr(np.linalg, name)))
    return calls


def test_halfshell_decides_ranks_on_stacks(linalg_calls):
    st = hs.sample_locus_state(Grid3(2), LORENTZIAN, 1.0,
                               np.random.Generator(np.random.Philox(key=3)))
    # one SVD of the stacked locus Jacobian, then one of the coframe stack per draw
    assert linalg_calls[0] == ("svd", (2, 2, 2, 4, 12))
    assert set(linalg_calls[1:]) == {("svd", (2, 2, 2, 3, 4))}
    del linalg_calls[:]
    hs.isotropy_diagnosis(st, full_locus=True)
    hs.isotropy_diagnosis(st, full_locus=False)
    # per diagnosis one global SVD of B^T Omega, the full locus also one of the Jacobians
    assert linalg_calls == [("svd", (2, 2, 2, 4, 12)), ("svd", (96, 192)), ("svd", (96, 192))]
    del linalg_calls[:]
    tb = wedge_fields(t_gamma_field(st.omega_ref, st.gamma, st.sig), st.e.field)
    hs.phi_symplecto(tb, st.e, st.gamma)
    hs.locus_residuals(st.e, st.omega, st.omega_ref, st.gamma)
    assert linalg_calls == []


def test_rank_ambiguous_locus_jacobian_names_the_site(monkeypatch, locus_state):
    # an intermediate singular value 1e-8 at site (1, 0, 1): above the 1e-10
    # threshold, but the dominant gap lies above it
    u, _, vh = np.linalg.svd(RNG.normal(size=(2, 2, 2, 4, 12)), full_matrices=False)
    sv = np.broadcast_to([3.0, 2.0, 1.0, 0.5], (2, 2, 2, 4)).copy()
    sv[1, 0, 1, 3] = 1e-8
    monkeypatch.setattr(hs, "_locus_equation_matrix",
                        lambda *args: u @ (sv[..., :, None] * vh))
    rule_calls = []
    decide_rank = wm.decide_rank

    def shared_rule(sv, what):
        rule_calls.append(what)
        return decide_rank(sv, what)

    monkeypatch.setattr(wm, "decide_rank", shared_rule)
    site = r"locus Jacobian.* at site \(1, 0, 1\)"
    with pytest.raises(wm.RankDecisionError, match=site):
        hs.sample_locus_state(Grid3(2), LORENTZIAN, 1.0, np.random.Generator(np.random.Philox(key=3)))
    with pytest.raises(wm.RankDecisionError, match=site):
        hs.isotropy_diagnosis(locus_state, full_locus=True)
    assert len(rule_calls) == 2
