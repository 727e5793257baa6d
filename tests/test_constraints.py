"""Constraint functionals, on-shell construction, Hamiltonian fields, brackets."""

import dataclasses

import numpy as np
import pytest

from pchgrav import constraints as cst, fiber, reduction as red
from pchgrav.fiber import EUCLIDEAN, LORENTZIAN
from pchgrav.grid import (
    Coframe,
    FormField,
    Grid3,
    TrigPoly,
    cov_deriv,
    curvature,
    random_field_spec,
    t_gamma_field,
    wedge_fields,
)
from pchgrav.suites import (
    acceptance_triad_spec,
    constant_k_spec,
    flat_triad_spec,
    random_offshell_state,
    trig_alpha_field,
)

RNG = np.random.Generator(np.random.Philox(key=505))


@pytest.fixture(scope="module")
def offshell_state():
    return random_offshell_state(np.random.Generator(np.random.Philox(key=11)),
                                 Grid3(4), LORENTZIAN, 1.0, 0.1)


@pytest.fixture(scope="module")
def onshell_state_8():
    return cst.make_on_shell(acceptance_triad_spec(), Grid3(8), 1.0, LORENTZIAN, Lambda=0.1)


def test_certify_rejects_zero_gamma(offshell_state):
    with pytest.raises(ValueError, match="nonzero"):
        cst.certify(offshell_state.e, offshell_state.omega, 0.0)


def test_grid_mismatch_rejected(offshell_state):
    alpha = cst.smear_constant(Grid3(8), 2, np.ones(6))
    with pytest.raises(ValueError, match="grid mismatch"):
        cst.eval_L(offshell_state, alpha)


def test_flat_state_gives_exact_zeros():
    st = cst.make_on_shell(flat_triad_spec(), Grid3(8), 1.0, LORENTZIAN)
    assert red.omega_tilde(st.e, st.omega).structural_residual <= 1e-14
    assert abs(cst.eval_L(st, trig_alpha_field(st.grid))) <= 1e-15
    assert abs(cst.eval_J(st, cst.smear_constant(st.grid, 1, [0, 0, 0, 1]))) <= 1e-15


def test_zero_smearings_give_zero(offshell_state):
    g = offshell_state.grid
    assert cst.eval_L(offshell_state, cst.smear_constant(g, 2, np.zeros(6))) == 0.0
    assert cst.eval_J(offshell_state, cst.smear_constant(g, 1, np.zeros(4))) == 0.0


def test_functional_linearity(offshell_state):
    g = offshell_state.grid
    a1, a2 = RNG.normal(size=6), RNG.normal(size=6)
    m1, m2 = RNG.normal(size=4), RNG.normal(size=4)
    assert abs(cst.eval_L(offshell_state, cst.smear_constant(g, 2, a1 + a2))
               - cst.eval_L(offshell_state, cst.smear_constant(g, 2, a1))
               - cst.eval_L(offshell_state, cst.smear_constant(g, 2, a2))) <= 1e-12
    assert abs(cst.eval_J(offshell_state, cst.smear_constant(g, 1, m1 + m2))
               - cst.eval_J(offshell_state, cst.smear_constant(g, 1, m1))
               - cst.eval_J(offshell_state, cst.smear_constant(g, 1, m2))) <= 1e-12


def test_cosmological_term_epsilon_sum_value():
    # standard coframe, omega = 0, Lambda = 1, mu = u4:
    # Tr[u4 ^ e^3] integrates to -6 (brute-force epsilon sum), so J = -6 Lambda
    st = cst.make_on_shell(flat_triad_spec(), Grid3(4), 1.0, LORENTZIAN, Lambda=1.0)
    val = cst.eval_J(st, cst.smear_constant(st.grid, 1, [0, 0, 0, 1]))
    assert abs(val + 6.0) <= 1e-12


def test_constant_extrinsic_closed_form():
    # flat triad, K = c g: J^inf = 3 eta00 c^2 - 6 Lambda (closed-form oracle)
    c, lam = 0.3, 0.2
    for sig, eta00 in ((LORENTZIAN, -1.0), (EUCLIDEAN, 1.0)):
        st = cst.make_on_shell(constant_k_spec(c), Grid3(4), 1.0, sig, Lambda=lam)
        val = cst.eval_J(st, cst.smear_constant(st.grid, 1, [0, 0, 0, 1]), gamma=np.inf)
        assert abs(val - (3 * eta00 * c**2 - 6 * lam)) <= 1e-12


def test_on_shell_L_converges_order2():
    spec = acceptance_triad_spec()
    Ls = {}
    for n in (8, 16):
        st = cst.make_on_shell(spec, Grid3(n), 1.0, LORENTZIAN, Lambda=0.1)
        Ls[n] = abs(cst.eval_L(st, trig_alpha_field(st.grid)))
    assert 3.2 <= Ls[8] / Ls[16] <= 4.8


def test_k_spec_symmetry_enforced():
    eb = tuple(tuple(TrigPoly.constant(1.0 if a == i else 0.0) for i in range(3))
               for a in range(3))
    K = [[TrigPoly() for _ in range(3)] for _ in range(3)]
    K[0][1] = TrigPoly.constant(1.0)           # asymmetric
    with pytest.raises(ValueError, match="symmetric"):
        cst.make_on_shell(cst.TriadSpec(eb, tuple(tuple(r) for r in K)),
                          Grid3(4), 1.0, LORENTZIAN)


def test_timelike_boundary_span():
    st = cst.make_on_shell(constant_k_spec(0.2), Grid3(4), 1.0, LORENTZIAN, timelike=True)
    from pchgrav import ehdata as eh

    frame = eh.orthonormal_frame(st.e.data, LORENTZIAN)
    assert frame.eta00 == 1.0
    assert np.array_equal(np.sort(frame.eta_bar), [-1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        cst.make_on_shell(constant_k_spec(0.2), Grid3(4), 1.0, EUCLIDEAN, timelike=True)


# --- Hamiltonian vector fields ---------------------------------------------------

def test_hvf_zero_smearing(offshell_state):
    g = offshell_state.grid
    X = cst.hamiltonian_vector_field(offshell_state, "L",
                                     cst.smear_constant(g, 2, np.zeros(6)))
    assert X.de.sup_norm() == 0.0 and X.domega.sup_norm() <= 1e-14


def test_hvf_L_exact_e_component(offshell_state):
    g = offshell_state.grid
    alpha = cst.smear_constant(g, 2, RNG.normal(size=6))
    X = cst.hamiltonian_vector_field(offshell_state, "L", alpha)
    expect = cst.act_field(alpha, offshell_state.e.field, offshell_state.sig)
    assert (X.de - expect).sup_norm() <= 1e-13
    assert X.constraint_residual <= 1e-9


def test_hvf_wedge_residuals_on_random_state(offshell_state):
    g = offshell_state.grid
    alpha = cst.smear_constant(g, 2, RNG.normal(size=6))
    mu = cst.smear_constant(g, 1, RNG.normal(size=4))
    XL = cst.hamiltonian_vector_field(offshell_state, "L", alpha)
    XJ = cst.hamiltonian_vector_field(offshell_state, "J", mu)
    assert XL.wedge_residuals["X_omega"] <= 1e-8
    assert XJ.wedge_residuals["X_omega"] <= 1e-8
    assert XJ.wedge_residuals["X_e"] <= 1e-8
    assert XJ.constraint_residual <= 1e-9


def _slice_tangents(st, rng, n=3):
    """n random slice tangents: one-mode delta e and p' delta omega, kernel part from slice_tangent."""
    for _ in range(n):
        de = random_field_spec(rng, 1, 1, n_modes=1, amp=0.1).sample(st.grid)
        dwc = cst._apply_sitewise(st.frame.p12_prime,
                                  random_field_spec(rng, 1, 2, n_modes=1, amp=0.1).sample(st.grid))
        yield cst.slice_tangent(st, de, dwc)


def test_hvf_generator_is_symplectic_gradient(offshell_state):
    st = offshell_state
    alpha = cst.smear_constant(st.grid, 2, RNG.normal(size=6))
    X = cst.hamiltonian_vector_field(st, "L", alpha)
    for Y in _slice_tangents(st, RNG):
        w = cst.symplectic_form(st, X, Y)
        dL, _ = cst.directional_derivative(st, lambda s: cst.eval_L(s, alpha), Y)
        assert abs(w - dL) <= 1e-9 * max(1.0, abs(dL))


TWISTED_XJ = pytest.mark.xfail(strict=True, reason=(
    "X_J misses the gamma^-1 part of iota_X varpi = dJ at finite gamma (ROADMAP item 1(c))"))


@pytest.mark.parametrize("shell", ["on-shell", "off-shell"])
@pytest.mark.parametrize("sig,gamma", [
    (LORENTZIAN, 1e12), (EUCLIDEAN, 1e12),
    pytest.param(LORENTZIAN, 1.0, marks=TWISTED_XJ), pytest.param(EUCLIDEAN, 2.0, marks=TWISTED_XJ),
], ids=["lorentzian-1e12", "euclidean-1e12", "lorentzian-1", "euclidean-2"])
def test_hvf_J_is_symplectic_gradient(shell, sig, gamma):
    # Euclidean gamma = 1 is excluded: T_gamma is singular there
    rng = np.random.Generator(np.random.Philox(key=606))
    st = (cst.make_on_shell(acceptance_triad_spec(), Grid3(4), gamma, sig, Lambda=0.1)
          if shell == "on-shell" else random_offshell_state(rng, Grid3(4), sig, gamma, 0.1))
    mu = cst.smear_constant(st.grid, 1, rng.normal(size=4))
    X = cst.hamiltonian_vector_field(st, "J", mu)
    for Y in _slice_tangents(st, rng):
        w = cst.symplectic_form(st, X, Y)
        dJ, _ = cst.directional_derivative(st, lambda s: cst.eval_J(s, mu), Y)
        assert abs(w - dJ) <= 1e-9 * max(1.0, abs(dJ))


def test_tangency_of_hamiltonian_flow(offshell_state):
    from pchgrav.grid import Coframe
    from pchgrav.reduction import phi_frame

    st = offshell_state
    alpha = cst.smear_constant(st.grid, 2, RNG.normal(size=6))
    X = cst.hamiltonian_vector_field(st, "L", alpha)
    res = {}
    for t in (1e-3, 2e-3):
        e2 = Coframe(st.e.field + t * X.de, st.sig)
        # sup norm of p(d_omega e) in the orthonormal Sym(3) kernel coordinates
        d = cov_deriv(e2.field, st.omega + t * X.domega, st.sig).data
        res[t] = np.abs(phi_frame(e2.data, st.sig).kernel_coords(d)).max()
    assert res[2e-3] / res[1e-3] > 3.0   # second-order violation only


def test_psi_alpha_vanishes_on_shell():
    spec = acceptance_triad_spec()
    vals = {}
    for n in (8, 16):
        st = cst.make_on_shell(spec, Grid3(n), 1.0, LORENTZIAN, Lambda=0.1)
        vals[n] = cst.psi_alpha(st, trig_alpha_field(st.grid)).sup_norm()
    assert vals[16] <= 0.05
    assert vals[8] / vals[16] > 2.0


def test_complement_solve_solves_its_equations(offshell_state):
    from pchgrav import wedgemaps as wm
    from pchgrav.grid import curvature, wedge_fields

    st = offshell_state
    mu = cst.smear_constant(st.grid, 1, RNG.normal(size=4))
    # Z with p Z = 0 and e ^ Z = mu F
    Z = st.frame.solve_complement_12(wedge_fields(mu, st.F) * (-1.0))
    pZ = cst._apply_sitewise(st.frame.p12, Z)
    assert pZ.sup_norm() <= 1e-10 * max(1.0, Z.sup_norm())
    M12 = wm.wedge_matrix(st.e.data, (1, 2))
    got = np.einsum("...ij,...j->...i", M12, Z.data.reshape(4, 4, 4, 18))
    rhs = wedge_fields(mu, curvature(st.omega, st.sig))
    # e ^ Z = mu F  <=>  Z ^ e = -(mu F) in stored components
    target = -rhs.data.reshape(4, 4, 4, 12)
    assert np.abs(got - target).max() <= 1e-9 * max(1.0, np.abs(target).max())


@pytest.mark.parametrize("sig,gamma", [(LORENTZIAN, 1.0), (EUCLIDEAN, 2.0)],
                         ids=["lorentzian", "euclidean"])
def test_template_wedge_solves_match_pinv_reference(sig, gamma):
    from pchgrav import wedgemaps as wm

    st = random_offshell_state(np.random.Generator(np.random.Philox(key=23)), Grid3(4),
                               sig, gamma, 0.1)
    frame = st.frame
    mu = cst.smear_constant(st.grid, 1, RNG.normal(size=4))
    # the off-shell right-hand sides that hamiltonian_vector_field solves for
    d = st.torsion
    Q = wedge_fields(mu, d - cst._apply_sitewise(frame.p21, d))
    cov = cst.kernel_covector(st, Q)
    rhs_e = (wedge_fields(cov_deriv(mu, st.omega, sig), st.e.field) * (-1.0)
             + cst._apply_sitewise(frame.p11_dag, Q) + cst.b_dagger(st, cov))
    rhs_w = (wedge_fields(mu, st.F) + cst.a_dagger(st, cov)) * (-1.0)

    def apply(M, f):
        return np.einsum("...ij,...j->...i", M, f.data.reshape(4, 4, 4, -1))

    ref_e = apply(np.linalg.pinv(wm.wedge_matrix(st.e.data, (1, 1))), rhs_e)
    got_e = frame.solve_w11(rhs_e).data.reshape(ref_e.shape)
    assert np.abs(got_e - ref_e).max() <= 1e-12 * np.abs(ref_e).max()
    # dense p12' = S12 (1 - P12_E) S12^-1 from the state's frame
    P12 = red.K12HAT @ red.K12HAT.T
    p12_prime = (np.kron(np.eye(3), frame.L2P) @ (np.eye(18) - P12)
                 @ np.kron(np.eye(3), wm.compound_matrix(frame.frames_inv)))
    ref_w = np.einsum("...ij,...j->...i", p12_prime,
                      apply(np.linalg.pinv(wm.wedge_matrix(st.e.data, (1, 2))), rhs_w))
    got_w = frame.solve_complement_12(rhs_w).data.reshape(ref_w.shape)
    assert np.abs(got_w - ref_w).max() <= 1e-12 * np.abs(ref_w).max()


# --- brackets and the reference stencil --------------------------------------------

def test_fd_derivative_exact_on_linear_functional(offshell_state):
    from pchgrav.grid import integrate, wedge_fields

    st = offshell_state
    de = random_field_spec(RNG, 1, 1, n_modes=1, amp=0.1, base=0.1).sample(st.grid)
    dwc = cst._apply_sitewise(st.frame.p12_prime,
                              random_field_spec(RNG, 1, 2, n_modes=1, amp=0.1).sample(st.grid))
    Y = cst.slice_tangent(st, de, dwc)
    assert Y.constraint_residual <= cst.TANGENCY_LIMIT
    # the pointwise dual of Y.de: the exact derivative is the squared L2 norm of Y.de
    probe = cst._unflat(cst._flat(de) @ cst._GRAM_23_11_INV, st.grid, 2, 3)

    def lin(state):
        return integrate(wedge_fields(probe, state.e.field))

    got, err = cst.directional_derivative(st, lin, Y)
    exact = integrate(wedge_fields(probe, Y.de))
    assert abs(exact) > 1e-8
    assert abs(got - exact) <= 1e-10 * max(1.0, abs(exact))
    assert err <= 1e-10 * max(1.0, abs(exact))


BRACKET_SMEARINGS = {
    "L": (2, [0.3, -0.2, 0.5, 0.1, -0.4, 0.2], [-0.1, 0.4, 0.2, -0.3, 0.25, 0.15]),
    "J": (1, [0.2, -0.3, 0.4, 0.6], [0.5, 0.1, -0.2, 0.3]),
}


@pytest.mark.parametrize("Lambda", [0.0, 0.1])
@pytest.mark.parametrize("sig,gamma", [
    (LORENTZIAN, 1.0), (LORENTZIAN, 10.0), (LORENTZIAN, np.inf),
    (EUCLIDEAN, 2.0), (EUCLIDEAN, np.inf),
], ids=["lorentzian-1", "lorentzian-10", "lorentzian-inf", "euclidean-2", "euclidean-inf"])
def test_bracket_variation_matches_the_reference_stencil(sig, gamma, Lambda):
    """The exact first variation of each density along X_F is the five-point stencil
    of the functional, to the stencil's roundoff, off shell for every pair of L and J."""
    st = random_offshell_state(np.random.Generator(np.random.Philox(key=41)), Grid3(4),
                               sig, gamma, Lambda)
    for f_kind, g_kind in (("L", "L"), ("L", "J"), ("J", "J"), ("J", "L")):
        f_grade, f_comps, _ = BRACKET_SMEARINGS[f_kind]
        g_grade, _, g_comps = BRACKET_SMEARINGS[g_kind]
        f_smear = cst.smear_constant(st.grid, f_grade, f_comps)
        g_smear = cst.smear_constant(st.grid, g_grade, g_comps)
        value, err = cst.poisson_bracket(st, f_kind, f_smear, g_kind, g_smear)
        evaluate = cst.eval_L if g_kind == "L" else cst.eval_J
        ref, _ = cst.directional_derivative(st, lambda s: evaluate(s, g_smear),
                                            cst.hamiltonian_vector_field(st, f_kind, f_smear))
        assert abs(value - ref) <= 1e-13, (f_kind, g_kind, value, ref)
        assert 0.0 <= err <= 1e-13


def test_stencil_needs_a_slice_tangent_direction(offshell_state):
    """A kernel-valued part added to X_omega is refused, and along it the raw stencil is
    not the derivative of the functional on the slice (the re-certified one)."""
    st = offshell_state
    mu = cst.smear_constant(st.grid, 1, [0.5, 0.1, -0.2, 0.3])
    G = lambda s: cst.eval_J(s, mu)
    X = cst.hamiltonian_vector_field(st, "J", cst.smear_constant(st.grid, 1, [0.2, -0.3, 0.4, 0.6]))

    def linearized_constraint(Y):
        # the linearization of p d_omega e = 0 along Y, in kernel coordinates
        coords = cst.a_map(st, Y.de) + cst.b_map(st, Y.domega)
        return st.frame.kernel_field(coords, st.grid).sup_norm() / Y.domega.sup_norm()

    kern = st.frame.kernel_field(RNG.normal(size=(4, 4, 4, 6)), st.grid)
    bad = dataclasses.replace(X, domega=X.domega + kern)
    bad.constraint_residual = linearized_constraint(bad)
    assert linearized_constraint(X) <= cst.TANGENCY_LIMIT < bad.constraint_residual
    with pytest.raises(ValueError, match="not tangent"):
        cst.directional_derivative(st, G, bad)

    def recertified(Y, t=1e-4):
        def at(s):
            e = Coframe(st.e.field + s * Y.de, st.sig)
            return G(cst.certify(e, st.omega + s * Y.domega, st.gamma, st.Lambda))
        return (at(t) - at(-t)) / (2 * t)

    # along the tangent X the stencil is the re-certified derivative, to the latter's
    # O(t^2) truncation; along the mutant they differ by far more than either error
    good, _ = cst.directional_derivative(st, G, X)
    assert abs(good - recertified(X)) <= 1e-6 * abs(good)
    raw, raw_err = cst.directional_derivative(
        st, G, dataclasses.replace(bad, constraint_residual=0.0))   # the stencil unguarded
    gap = abs(raw - recertified(bad))
    assert gap > 1e-2 * abs(good) and gap > 1e6 * raw_err


def test_bracket_LL_equals_L_of_bracketed_smearing(offshell_state):
    st = offshell_state
    g = st.grid
    ac = np.array([0.3, -0.2, 0.5, 0.1, -0.4, 0.2])
    ac2 = np.array([-0.1, 0.4, 0.2, -0.3, 0.25, 0.15])
    br, fd_err = cst.poisson_bracket(st, "L", cst.smear_constant(g, 2, ac),
                                     "L", cst.smear_constant(g, 2, ac2))
    rhs = cst.eval_L(st, cst.smear_constant(g, 2, fiber.bracket2(ac2, ac, st.sig)))
    assert abs(rhs) > 1e-8
    assert abs(br - rhs) <= 1e-4 * abs(rhs)


def test_bracket_JJ_vanishes_on_shell():
    spec = acceptance_triad_spec()
    mc = np.array([0.2, -0.3, 0.4, 0.6])
    mc2 = np.array([0.5, 0.1, -0.2, 0.3])
    vals = {}
    for n in (4, 8):
        st = cst.make_on_shell(spec, Grid3(n), 1.0, LORENTZIAN, Lambda=0.1)
        bJJ, _ = cst.poisson_bracket(st, "J", cst.smear_constant(st.grid, 1, mc),
                                     "J", cst.smear_constant(st.grid, 1, mc2))
        scale = 1.0 + abs(cst.eval_J(st, cst.smear_constant(st.grid, 1, mc))) \
            + abs(cst.eval_J(st, cst.smear_constant(st.grid, 1, mc2)))
        vals[n] = (abs(bJJ), 2.0 * st.grid.h**2 * scale)
    assert vals[4][0] <= vals[4][1]
    assert vals[8][0] < vals[4][0]


def test_bracket_LJ_l_part_vanishes_on_shell():
    spec = acceptance_triad_spec()
    ac = np.array([0.3, -0.2, 0.5, 0.1, -0.4, 0.2])
    mc = np.array([0.2, -0.3, 0.4, 0.6])
    st = cst.make_on_shell(spec, Grid3(4), 1.0, LORENTZIAN, Lambda=0.1)
    bLJ, _ = cst.poisson_bracket(st, "L", cst.smear_constant(st.grid, 2, ac),
                                 "J", cst.smear_constant(st.grid, 1, mc))
    Jam = cst.eval_J(st, cst.smear_constant(st.grid, 1,
                                            fiber.act_on_vector(ac, mc, st.sig)))
    assert abs(Jam) > 1e-8
    # with these conventions {L_a, J_mu} = -J_[a,mu] up to the on-shell-vanishing part
    assert abs(bLJ + Jam) <= 2.0 * st.grid.h**2 * (1.0 + abs(Jam))


def test_kernel_shift_invariance_of_functionals(offshell_state):
    st = offshell_state
    shift = st.frame.kernel_field(RNG.normal(size=(4, 4, 4, 6)), st.grid)
    st2 = cst.certify(st.e, st.omega + shift, st.gamma, st.Lambda)
    alpha = cst.smear_constant(st.grid, 2, RNG.normal(size=6))
    mu = cst.smear_constant(st.grid, 1, RNG.normal(size=4))
    assert abs(cst.eval_L(st, alpha) - cst.eval_L(st2, alpha)) <= 1e-12
    assert abs(cst.eval_J(st, mu) - cst.eval_J(st2, mu)) <= 1e-12


# --- constraint densities against the direct formulas ------------------------------

def _integral_and_scale(density: FormField):
    """Riemann sum of a volume-valued 3-form and the sum of its absolute values."""
    h3 = density.grid.h**3
    return float(density.data.sum() * h3), float(np.abs(density.data).sum() * h3)


def _J_direct(st, mu, gamma):
    """Tr[T_gamma(mu ^ e) ^ F] + Lambda Tr[mu ^ e^3], every product rebuilt."""
    e = st.e.field
    tme = t_gamma_field(wedge_fields(mu, e), gamma, st.sig)
    dens = wedge_fields(tme, curvature(st.omega, st.sig))
    e3 = wedge_fields(e, wedge_fields(e, e))
    dens = dens + st.Lambda * wedge_fields(mu, e3)
    return _integral_and_scale(dens)


def _L_direct(st, alpha):
    """Tr[T_gamma alpha ^ e ^ d_omega e], every product rebuilt."""
    x = wedge_fields(st.e.field, cov_deriv(st.e.field, st.omega, st.sig))
    talpha = t_gamma_field(alpha, st.gamma, st.sig)
    return _integral_and_scale(wedge_fields(talpha, x))


def _smearings(grid, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    shape = (grid.n,) * 3 + (1,)
    return (FormField(grid, 0, 1, rng.normal(size=shape + (4,))),
            FormField(grid, 0, 2, rng.normal(size=shape + (6,))))


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("sig", [LORENTZIAN, EUCLIDEAN], ids=["lorentzian", "euclidean"])
@pytest.mark.parametrize("Lambda", [0.0, 0.1])
@pytest.mark.parametrize("shell", ["on", "off"])
def test_densities_match_direct_formulas(n, sig, Lambda, shell):
    grid = Grid3(n)
    if shell == "on":
        base = cst.make_on_shell(acceptance_triad_spec(), grid, 1.0, sig, Lambda=Lambda)
    else:
        base = random_offshell_state(np.random.Generator(np.random.Philox(key=n)),
                                     grid, sig, 1.0, Lambda)
    mu, alpha = _smearings(grid, 7 * n)
    for gamma in (0.5, 10.0, np.inf):
        st = dataclasses.replace(base, gamma=gamma)
        for g in (None, 0.5, 10.0, np.inf):
            ref, scale = _J_direct(st, mu, gamma if g is None else g)
            assert abs(cst.eval_J(st, mu, gamma=g) - ref) <= 1e-12 * scale
        ref, scale = _L_direct(st, alpha)
        assert abs(cst.eval_L(st, alpha) - ref) <= 1e-12 * scale


def test_shifted_state_gets_fresh_densities(offshell_state):
    st = offshell_state
    mu, alpha = _smearings(st.grid, 3)
    before = cst.eval_J(st, mu), cst.eval_L(st, alpha)
    X = cst.hamiltonian_vector_field(st, "J", mu)
    st2 = cst.shifted_state(st, 1e-2, X.de, X.domega)
    ref_J, scale_J = _J_direct(st2, mu, st2.gamma)
    ref_L, scale_L = _L_direct(st2, alpha)
    assert abs(cst.eval_J(st2, mu) - ref_J) <= 1e-12 * scale_J
    assert abs(cst.eval_L(st2, alpha) - ref_L) <= 1e-12 * scale_L
    assert abs(ref_J - before[0]) > 1e-6 and abs(ref_L - before[1]) > 1e-6
    assert (cst.eval_J(st, mu), cst.eval_L(st, alpha)) == before


def test_eval_J_rejects_zero_gamma(offshell_state):
    mu = cst.smear_constant(offshell_state.grid, 1, [0, 0, 0, 1])
    with pytest.raises(ValueError, match="nonzero"):
        cst.eval_J(offshell_state, mu, gamma=0.0)


def test_boundary_state_is_frozen(offshell_state):
    st = offshell_state
    for name, value in (("omega", st.omega), ("e", st.e), ("gamma", 2.0)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(st, name, value)


@pytest.mark.parametrize("gamma", [1.0, -1.0])
def test_offshell_j_field_names_a_degenerate_twisted_pairing(gamma):
    # Euclidean star^2 = 1, so T_gamma = 1 + gamma^-1 star is singular at gamma = +-1
    st = random_offshell_state(np.random.Generator(np.random.Philox(key=13)), Grid3(4),
                               EUCLIDEAN, gamma, 0.1)
    mu = cst.smear_constant(st.grid, 1, [0.3, -0.2, 0.5, 0.4])
    with pytest.raises(cst.DegeneratePairingError,
                       match=f"twisted pairing degenerate for the euclidean signature at gamma = {gamma}"):
        cst.hamiltonian_vector_field(st, "J", mu)
    assert issubclass(cst.DegeneratePairingError, ValueError)


def test_nearly_degenerate_twisted_pairing_refused():
    from pchgrav.wedgemaps import ConditioningError

    # the Gram's condition number is about 2 / |gamma - 1| near the Euclidean gamma = 1
    assert issubclass(cst.DegeneratePairingError, ConditioningError)
    mu = cst.smear_constant(Grid3(4), 1, [0.3, -0.2, 0.5, 0.4])
    for gamma, refused in ((1 + 1e-12, True), (1 + 1e-6, False), (2.0, False)):
        st = random_offshell_state(np.random.Generator(np.random.Philox(key=13)), Grid3(4),
                                   EUCLIDEAN, gamma, 0.1)
        if refused:
            with pytest.raises(cst.DegeneratePairingError, match="cond = 2.000e\\+12 > 1e\\+08"):
                cst.hamiltonian_vector_field(st, "J", mu)
        else:
            X = cst.hamiltonian_vector_field(st, "J", mu)
            assert X.wedge_residuals["X_e"] <= 1e-9
