"""Structural representative, kernel intersections, exact sequence."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from pchgrav import constraints as cst, reduction as red, wedgemaps as wm
from pchgrav.config import TOLERANCES
from pchgrav.fiber import EUCLIDEAN, LORENTZIAN
from pchgrav.grid import Coframe, FormField, Grid3, action_wedge, random_field_spec
from pchgrav.suites import (
    acceptance_triad_spec,
    random_nondegenerate_coframe,
    random_offshell_fields,
    random_offshell_state,
)

RNG = np.random.Generator(np.random.Philox(key=404))


# --- bracket with e ------------------------------------------------------------

def test_bracket_with_e_zero():
    g = Grid3(4)
    e = Coframe(random_field_spec(RNG, 1, 1, n_modes=1, amp=0.05,
                                  base=np.eye(3, 4)).sample(g), LORENTZIAN)
    zero = FormField.zeros(g, 1, 2)
    assert action_wedge(zero, e.field, e.sig).sup_norm() == 0.0


def test_bracket_matrix_full_rank_and_kernel_wedge():
    for _ in range(30):
        e = random_nondegenerate_coframe(RNG, LORENTZIAN)
        B = red.bracket_matrix(e, LORENTZIAN)
        assert np.linalg.matrix_rank(B, tol=1e-10) == 12   # onto Omega^2(V)
        sp = wm.kernel_basis(e, (1, 2))
        img = B @ sp.kernel_basis
        W21 = wm.wedge_matrix(e, (2, 1))
        # e ^ [v, e] = 0 for kernel v
        assert np.abs(W21 @ img).max() <= 1e-12 * max(1.0, np.abs(img).max())


def test_field_and_matrix_bracket_agree():
    g = Grid3(4)
    e = Coframe(random_field_spec(RNG, 1, 1, n_modes=1, amp=0.05,
                                  base=np.eye(3, 4)).sample(g), LORENTZIAN)
    v = random_field_spec(RNG, 1, 2, n_modes=1, amp=0.4).sample(g)
    field = action_wedge(v, e.field, e.sig)
    B = red.bracket_matrix(e.data, LORENTZIAN)
    flat = np.einsum("...ij,...j->...i", B, v.data.reshape(4, 4, 4, 18))
    assert np.abs(field.data.reshape(4, 4, 4, 12) - flat).max() <= 1e-12


# --- phi ------------------------------------------------------------------------

def test_phi_exact_determinant_at_standard_coframe():
    det = red.phi_pairing_det_exact((1, 1, 1))
    assert det != 0
    det_l = red.phi_pairing_det_exact((1, 1, -1))
    assert det_l != 0


def test_phi_invertible_on_random_coframes():
    min_det = np.inf
    for _ in range(100):
        e = random_nondegenerate_coframe(RNG, LORENTZIAN)
        g = np.einsum("ai,i,bi->ab", e, LORENTZIAN.eta, e)
        g = g / np.abs(np.linalg.det(g)) ** (1 / 3)   # normalize the scale
        min_det = min(min_det, abs(np.linalg.det(red.phi_matrix(g))))
    assert min_det > 1e-6


@pytest.mark.parametrize("lam", [(1, 2, 3), (1, 2, -3), (Fraction(1, 2), Fraction(3, 7), -5),
                                 (2, 2, 5), (1, -1, 4)])
def test_phi_determinant_and_closed_form_spectrum_exact(lam):
    from pchgrav import exactla

    l1, l2, l3 = (Fraction(x) for x in lam)
    assert red.phi_pairing_det_exact(lam) == -16 * (l1 * l2 * l3) ** 2
    # mu^3 - (sum l^2) mu - 2 l1 l2 l3 is the characteristic polynomial of N(lambda)
    N = [[0, l3, l2], [l3, 0, l1], [l2, l1, 0]]
    assert exactla.det(N) == 2 * l1 * l2 * l3
    # so the closed-form singular values multiply to |l1 l2 l3| |det N| = 2 (l1 l2 l3)^2
    sv = red.phi_singular_values(np.diag([float(x) for x in lam]))
    assert np.prod(sv) == pytest.approx(float(2 * (l1 * l2 * l3) ** 2), rel=1e-14)


@pytest.mark.parametrize("signs", [(1, 1, 1), (1, 1, -1), (1, -1, -1)])
def test_phi_closed_form_spectrum_matches_svd(signs):
    rot = np.linalg.qr(RNG.normal(size=(40, 3, 3)))[0]
    lam = np.array(signs) * RNG.uniform(0.05, 3.0, size=(40, 3))
    lam[:10, 1] = lam[:10, 0]                 # coincident eigenvalues
    g = np.einsum("sac,sc,sbc->sab", rot, lam, rot)
    ref = np.linalg.svd(red.phi_matrix(g), compute_uv=False)
    got = -np.sort(-red.phi_singular_values(g), axis=-1)
    assert np.all(np.abs(got - ref).max(axis=-1) <= 1e-13 * ref[:, 0])


def _metrics(signs, lam_range, n):
    rot = np.linalg.qr(RNG.normal(size=(n, 3, 3)))[0]
    lam = np.array(signs) * RNG.uniform(*lam_range, size=(n, 3))
    return np.einsum("sac,sc,sbc->sab", rot, lam, rot)


@pytest.mark.parametrize("signs", [(1, 1, 1), (1, 1, -1), (1, -1, -1)])
def test_phi_frobenius_bound_closed_form(signs):
    g = _metrics(signs, (0.3, 3.0), 200)
    b, det = red._phi_frobenius_terms(g)
    closed = np.sqrt(b) / np.abs(det)
    phi = red.phi_matrix(g)
    numeric = np.linalg.norm(phi, axis=(-2, -1)) * np.linalg.norm(np.linalg.inv(phi), axis=(-2, -1))
    assert np.abs(closed / numeric - 1).max() <= 1e-8
    sv = np.linalg.svd(phi, compute_uv=False)
    cond2 = sv[:, 0] / sv[:, -1]
    assert np.all(closed >= cond2) and np.all(closed <= 3.4 * cond2)


def _phi_inverse_matrix(g):
    """phi_e^-1 in the kernel coordinates (..., 6, 6) as the kernel chain applies it: the
    Sym(3) inverse in the orthonormal Sym(3) basis Y = Z D^-1/2, on each unit vector."""
    T = red._SYM_HAT.T.reshape(6, 3, 3)                    # mat(Y e_j), j first
    S = red._phi_inverse(T, g[..., None, :, :], wm.inv3(g)[1][..., None])
    return np.swapaxes(S.reshape(S.shape[:-2] + (9,)) @ red._SYM_HAT, -1, -2)


def _phi_inverse_error(g):
    """|phi^-1 - LAPACK inv(phi_matrix)|, relative to |phi^-1|, in units of eps cond(phi)."""
    phi = red.phi_matrix(g)
    ref = np.linalg.inv(phi)
    got = _phi_inverse_matrix(g)
    err = np.abs(got - ref).max(axis=(-2, -1)) / np.abs(ref).max(axis=(-2, -1))
    cond = np.linalg.cond(phi)
    return err / (np.finfo(float).eps * cond), cond


@pytest.mark.parametrize("signs", [(1, 1, 1), (1, 1, -1), (1, -1, -1), (-1, -1, -1)])
def test_phi_inverse_matches_lapack_inverse(signs):
    # eigenvalue magnitudes over six decades: cond(phi) from 1 to well beyond 1e6
    rot = np.linalg.qr(RNG.normal(size=(500, 3, 3)))[0]
    lam = np.array(signs) * 10.0 ** RNG.uniform(-3.0, 3.0, size=(500, 3))
    g = np.einsum("sac,sc,sbc->sab", rot, lam, rot)
    ratio, cond = _phi_inverse_error(g)
    assert cond.max() > 1e5
    assert ratio.max() <= 4.0


@pytest.mark.parametrize("sig,middle", [(EUCLIDEAN, 1.0), (LORENTZIAN, 1.0), (LORENTZIAN, -1.0)],
                         ids=["euclidean", "lorentzian", "lorentzian-timelike"])
def test_phi_frame_inverse_matches_lapack_inverse(sig, middle):
    if sig is EUCLIDEAN:
        e = np.stack([random_nondegenerate_coframe(RNG, sig) for _ in range(200)])
    else:
        # g = Q diag(1, middle, s) Q^T with s down to 1e-6: cond(phi) up to about 1e6
        e = np.concatenate([_coframes_with_metric(s, middle, 20)
                            for s in np.logspace(-6, 1, 10)])
    pf = red.phi_frame(e, sig)
    assert np.array_equal(pf.det_g, wm.inv3(pf.g)[1])
    ratio, cond = _phi_inverse_error(pf.g)
    phi_inv = _phi_inverse_matrix(pf.g)
    assert ratio.max() <= 4.0
    assert np.abs(np.einsum("...ij,...jk->...ik", phi_inv, red.phi_matrix(pf.g))
                  - np.eye(6)).max(axis=(-2, -1)).max() <= 1e-15 * cond.max()
    # the kernel chain applies -phi^-1 to the kernel coordinates, site by site within
    # a few eps cond(phi)
    x = RNG.normal(size=(len(e), 3, 4))
    c = pf.kernel_coords(x)
    err = np.abs(pf.kernel_correction(x) + np.einsum("...ij,...j->...i", phi_inv, c)).max(axis=-1)
    scale = np.abs(phi_inv).max(axis=(-2, -1)) * np.abs(c).max(axis=-1)
    assert np.all(err <= 4.0 * np.finfo(float).eps * cond * scale)


def _exact_symmetric(rng, n, rational):
    """n exact symmetric 3x3 matrices (n, 3, 3): integers in [-3, 3], or such integers over
    denominators in [1, 5] as Fractions (an object array)."""
    x = rng.integers(-3, 4, size=(n, 3, 3))
    if rational:
        x = np.vectorize(Fraction, otypes=[object])(x, rng.integers(1, 6, size=(n, 3, 3)))
    return np.triu(x) + np.swapaxes(np.triu(x, 1), -1, -2)


def _cross(S, g):
    """The tensor cross product (S x g)_ij = eps_imn eps_jpq S_mp g_nq, summed exactly."""
    eps = {p: (-1) ** sum(p[a] > p[b] for a in range(3) for b in range(a + 1, 3))
           for p in itertools.permutations(range(3))}
    out = np.zeros_like(S)
    for (i, m, n), s in eps.items():
        for (j, p, q), t in eps.items():
            out[..., i, j] += s * t * S[..., m, p] * g[..., n, q]
    return out


@pytest.mark.parametrize("rational", [False, True], ids=["integer", "fraction"])
def test_phi_is_minus_the_tensor_cross_product(rational):
    """phi_e(S) = -S x g in the Sym(3) coordinates of the two kernels, exactly: [., e] takes
    M12 vec(S) to M21 vec(-S x g), so the image lies in ker W^{(2,1)} and p21 acts as 1."""
    rng = np.random.Generator(np.random.Philox(key=24))
    g, S = _exact_symmetric(rng, 20, rational), _exact_symmetric(rng, 20, rational)
    X = S.reshape(20, 9) @ wm.M12.T
    assert not (X @ wm.wedge_matrix(np.eye(3, 4), (1, 2)).T.astype(int)).any()
    image = np.einsum("sij,sj->si", red.frame_bracket_matrix(g), X)
    assert image.tolist() == ((-_cross(S, g)).reshape(20, 9) @ wm.M21.T).tolist()


def test_phi_inverse_formula_is_exact():
    """(g T g - tr(g T) g / 2) / det g is phi_e^-1 on Sym(3), exactly on Fraction metrics."""
    from pchgrav import exactla

    rng = np.random.Generator(np.random.Philox(key=25))
    g = _exact_symmetric(rng, 40, True)
    det = np.array([exactla.det(m.tolist()) for m in g], dtype=object)
    g, T = g[det != 0], _exact_symmetric(rng, int((det != 0).sum()), True)
    S = red._phi_inverse(T, g, det[det != 0])
    assert np.array_equal(S, np.swapaxes(S, -1, -2))
    assert (-_cross(S, g)).tolist() == T.tolist()
    image = np.einsum("sij,sj->si", red.frame_bracket_matrix(g), S.reshape(-1, 9) @ wm.M12.T)
    assert image.tolist() == (T.reshape(-1, 9) @ wm.M21.T).tolist()


def _coframes_with_metric(s, middle, n):
    """n coframes with g = e eta e^T = Q diag(1, middle, s) Q^T (Lorentzian, s > 0)."""
    legs = np.zeros((3, 4))
    legs[0, 0], legs[2, 2] = 1.0, np.sqrt(s)
    legs[1, 1 if middle > 0 else 3] = 1.0                    # u_4 is time-like
    rot = np.linalg.qr(RNG.normal(size=(n, 3, 3)))[0]
    return rot @ legs


@pytest.mark.parametrize("middle", [1.0, -1.0])
def test_phi_frame_refuses_exactly_as_the_spectrum(middle):
    # cond(phi) ~ sqrt(2) / s for small s: sweep s across PHI_COND_LIMIT
    limit_s = np.sqrt(2.0) / red.PHI_COND_LIMIT
    refused = 0
    for s in limit_s * 10.0 ** RNG.uniform(-0.3, 0.3, size=40):
        e = _coframes_with_metric(s, middle, 8)
        g = (e * LORENTZIAN.eta) @ np.swapaxes(e, -1, -2)
        cond = red.phi_conditions(g)
        if cond.max() > red.PHI_COND_LIMIT:
            refused += 1
            with pytest.raises(red.PhiSingularError) as info:
                red.phi_frame(e, LORENTZIAN)
            assert f"{wm.at_site(cond)}: cond(phi) = {cond.max():.3e}" in str(info.value)
        else:
            red.phi_frame(e, LORENTZIAN)
    assert 5 <= refused <= 35


@pytest.mark.parametrize("sig", [EUCLIDEAN, LORENTZIAN], ids=["euclidean", "lorentzian"])
def test_kernel_correction_T_is_the_transpose_of_the_kernel_chain(sig):
    """At every site the matrix of kernel_correction_T (Omega^1(L^2) legs -> Omega^2(V) legs)
    is the transpose of that of kernel_field o kernel_correction, from the unit legs."""
    grid = Grid3(2)
    e = np.stack([random_nondegenerate_coframe(RNG, sig) for _ in range(8)]).reshape(2, 2, 2, 3, 4)
    pf = red.phi_frame(e, sig)
    chain = np.stack([pf.kernel_field(pf.kernel_correction(np.broadcast_to(u, e.shape)), grid)
                      .data.reshape(2, 2, 2, 18) for u in np.eye(12).reshape(12, 3, 4)], axis=-1)
    chain_T = np.stack([pf.kernel_correction_T(np.broadcast_to(u, (2, 2, 2, 3, 6)))
                        .reshape(2, 2, 2, 12) for u in np.eye(18).reshape(18, 3, 6)], axis=-1)
    scale = np.abs(chain).max(axis=(-2, -1), keepdims=True)
    assert scale.min() > 0.1
    assert np.all(np.abs(chain_T - np.swapaxes(chain, -1, -2)) <= 1e-14 * scale)


def test_phi_screen_clears_well_conditioned_sites():
    g = _metrics((1, 1, -1), (0.3, 3.0), 100)
    assert red._phi_cleared(g).all()
    g[3] = np.diag([1.0, 1.0, 0.0])
    assert np.flatnonzero(~red._phi_cleared(g)).tolist() == [3]


def test_solver_conditioning_is_the_full_spectrum_maximum(random_state, random_solve):
    st = random_state
    e = st.e.data
    g = (e * st.sig.eta) @ np.swapaxes(e, -1, -2)
    sv = red.phi_singular_values(g)
    cond = sv.max(axis=-1) / sv.min(axis=-1)
    assert random_solve.solver_conditioning == float(cond.max())


def test_phi_refuses_degenerate_metric():
    e = red.make_degenerate_coframe((1, 1, 0), LORENTZIAN)
    with pytest.raises(red.PhiSingularError):
        red.phi_frame(e, LORENTZIAN)


def test_phi_check_names_the_site_in_every_caller():
    # e_3 = u_3 + (1 + 1e-9) u_4 at one site: the normal is not null, so the
    # frame completes, but cond(phi) is about 7e8 > PHI_COND_LIMIT
    g = Grid3(4)
    data = np.broadcast_to(np.eye(3, 4), (4, 4, 4, 3, 4)).copy()
    data[2, 1, 3, 2] = [0.0, 0.0, 1.0, 1.0 + 1e-9]
    e = Coframe(FormField(g, 1, 1, data), LORENTZIAN)
    wm.complete_frame(e.data, LORENTZIAN)
    for call in (lambda: red.omega_tilde(e, FormField.zeros(g, 1, 2)),
                 lambda: cst.projector_pack(e)):
        with pytest.raises(red.PhiSingularError, match=r"site \(2, 1, 3\)"):
            call()


# --- omega tilde ----------------------------------------------------------------

@pytest.fixture(scope="module")
def random_fields():
    return random_offshell_fields(np.random.Generator(np.random.Philox(key=7)), Grid3(8), LORENTZIAN)


@pytest.fixture(scope="module")
def random_state(random_fields):
    return cst.certify(*random_fields, 1.0, 0.0)


@pytest.fixture(scope="module")
def random_solve(random_fields):
    """The omega~ solve that certifies `random_state`, with its diagnostics."""
    return red.omega_tilde(*random_fields)


def test_omega_tilde_structural_residual(random_solve):
    assert random_solve.structural_residual <= 1e-9


def test_omega_tilde_kernel_valued(random_state, random_solve):
    st = random_state
    assert np.array_equal(random_solve.omega_tilde.data, st.omega.data)
    M12 = wm.wedge_matrix(st.e.data, (1, 2))
    v = random_solve.v_tilde.data.reshape(8, 8, 8, 18)
    assert np.abs(np.einsum("...ij,...j->...i", M12, v)).max() <= 1e-11


def test_omega_tilde_gauge_invariance_and_idempotence(random_state):
    st = random_state
    shift = st.frame.kernel_field(RNG.normal(size=(8, 8, 8, 6)), st.grid)
    res2 = red.omega_tilde(st.e, st.omega + shift)
    assert (res2.omega_tilde - st.omega).sup_norm() <= 1e-9
    res3 = red.omega_tilde(st.e, st.omega)
    assert (res3.omega_tilde - st.omega).sup_norm() <= 1e-10


def test_structural_input_returns_zero_correction(random_state):
    res = red.omega_tilde(random_state.e, random_state.omega)
    assert res.v_tilde.sup_norm() <= 1e-10


def test_torsion_residual_dichotomy():
    # built on the constraint surface: the full torsion is O(h^2), order 2;
    # generic states: O(1)
    spec = acceptance_triad_spec()
    sups = {}
    for n in (8, 16):
        st = cst.make_on_shell(spec, Grid3(n), 1.0, LORENTZIAN)
        sups[n] = st.torsion.sup_norm()
    ratio = sups[8] / sups[16]
    assert 3.0 <= ratio <= 5.5
    st_off = random_offshell_state(RNG, Grid3(8), LORENTZIAN, 1.0, 0.0)
    assert st_off.torsion.sup_norm() > 0.05


def test_slice_pairing_insensitive_to_kernel_direction(random_state):
    """int Tr[(e ^ de) ^ v] = 0 for kernel-valued v (e ^ v = 0): the gamma -> infinity
    pairing.  The twisted pairing at finite gamma keeps v (ROADMAP item 1(c))."""
    from pchgrav.grid import integrate, t_gamma_field, wedge_fields

    st = random_state
    worst = worst_twisted = 0.0
    for _ in range(10):
        de = random_field_spec(RNG, 1, 1, n_modes=1, amp=0.2).sample(st.grid)
        vt = st.frame.kernel_field(RNG.normal(size=(8, 8, 8, 6)), st.grid)
        ex = wedge_fields(st.e.field, de)
        worst = max(worst, abs(integrate(wedge_fields(ex, vt))))
        worst_twisted = max(worst_twisted, abs(integrate(
            wedge_fields(t_gamma_field(ex, st.gamma, st.sig), vt))))
    assert worst <= 1e-11
    assert worst_twisted > 1e-3


def test_slice_pairing_row_fails_off_the_kernel(monkeypatch):
    """The reduction suite's pairing row FAILs when its corrections are not kernel-valued."""
    from pchgrav.config import validate_config
    from pchgrav.suites import run_reduction

    def off_kernel(self, coords, grid):
        # the same six coordinates on every leg: not a kernel element of e ^ .
        return FormField(grid, 1, 2, np.repeat(coords[..., None, :], 3, axis=-2))

    monkeypatch.setattr(red.PhiFrame, "kernel_field", off_kernel)
    rows = run_reduction(validate_config({"suites": ["reduction"]}))
    row = next(r for r in rows if r.id == "reduction/structural-slice-pairing")
    assert not row.passed and row.values["max_untwisted"] > 1e-3


# --- the frame's omega~ solve --------------------------------------------------------

@pytest.mark.parametrize("sig", [LORENTZIAN, EUCLIDEAN], ids=lambda s: s.name)
def test_passed_frame_gives_bit_identical_results(sig):
    rng = np.random.Generator(np.random.Philox(key=17))
    e, om = random_offshell_fields(rng, Grid3(4), sig)
    pf = red.phi_frame(e.data, sig)
    assert pf.e is e.data       # the frame holds its coframe, not a copy
    got, ref = pf.omega_tilde(om), red.omega_tilde(e, om)
    assert np.array_equal(got.v_tilde.data, ref.v_tilde.data)
    assert np.array_equal(got.omega_tilde.data, ref.omega_tilde.data)
    assert got.structural_residual == ref.structural_residual
    assert np.array_equal(got.g, ref.g)


# --- kernel intersection ---------------------------------------------------------

def test_kernel_intersection_exact_table():
    assert red.kernel_intersection_dim((1, 1, 1)) == 0
    assert red.kernel_intersection_dim((1, 1, -1)) == 0
    assert red.kernel_intersection_dim((1, -1, -1)) == 0
    assert red.kernel_intersection_dim((1, 1, 0)) == 2
    assert red.kernel_intersection_dim((1, -1, 0)) == 2
    assert red.kernel_intersection_dim((0, 0, 0)) == 6


@pytest.mark.xfail(strict=True,
                   reason="tabulated value 4 at (1,0,0); the honest count of the "
                          "kernel equations gives 3")
def test_kernel_intersection_100_stated_value():
    assert red.kernel_intersection_dim((1, 0, 0)) == 4


def test_kernel_intersection_embedded_crosscheck():
    e = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]]
    assert red.kernel_intersection_dim_from_coframe(e, LORENTZIAN) == 2
    e_nd = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    assert red.kernel_intersection_dim_from_coframe(e_nd, LORENTZIAN) == 0
    assert red.kernel_intersection_dim_from_coframe(e_nd, EUCLIDEAN) == 0


EXACT_METRICS = ((1, 1, 1), (1, 1, -1), (1, 1, 0), (1, -1, 0), (1, 0, 0), (0, 0, 0))


def test_kernel_intersection_counts_repeat():
    # the counts and the pairing determinant read only fixed integer templates
    det = red.phi_pairing_det_exact((1, 1, 1))
    for _ in range(2):
        assert [red.kernel_intersection_dim(g) for g in EXACT_METRICS] == [0, 0, 2, 2, 3, 6]
    e = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]]
    assert red.kernel_intersection_dim_from_coframe(e, LORENTZIAN) == 2
    assert red.phi_pairing_det_exact((1, 1, 1)) == det == -16


def _intersection_dim_by_equations(g):
    """The count from the kernel's equations: 18 - rank of the integer equation rows of
    ker W^{(1,2)} stacked on the bracket rows B(g)."""
    from pchgrav import exactla

    rows = [*wm.kernel_equations((1, 2)).astype(int).tolist(),
            *red.frame_bracket_matrix(g).tolist()]
    return 18 - exactla.rank(rows)


@pytest.mark.parametrize("rational", [False, True], ids=["exact-metrics", "fraction"])
def test_kernel_intersection_count_matches_the_equation_route(rational):
    """6 - rank(B(g) M12 Z) equals 18 - rank(equation rows and B(g)), on the tabulated
    diagonal metrics and on random Fraction metrics of ranks one, two and three."""
    if rational:
        gs = list(_exact_symmetric(np.random.Generator(np.random.Philox(key=26)), 12, True))
        gs[::3] = [np.outer(g[0], g[0]) for g in gs[::3]]             # rank one
        gs[1::3] = [np.outer(g[0], g[0]) - np.outer(g[1], g[1]) for g in gs[1::3]]
    else:
        gs = [np.diag(d) for d in EXACT_METRICS]
    got = [red._kernel_intersection_dim_exact(g) for g in gs]
    assert got == [_intersection_dim_by_equations(g) for g in gs]


def test_kernel_intersection_exact_rational_inputs():
    assert red.kernel_intersection_dim((Fraction(1), Fraction(1), Fraction(0))) == 2


# --- degenerate coframes ----------------------------------------------------------

def test_make_degenerate_coframe_constructions():
    for signs in ((1, 1, 1), (1, 1, -1), (1, 1, 0)):
        e = red.make_degenerate_coframe(signs, LORENTZIAN)
        g = np.einsum("ai,i,bi->ab", e, LORENTZIAN.eta, e)
        assert np.array_equal(g, np.diag(signs))
        assert np.linalg.matrix_rank(e) == 3
    e = red.make_degenerate_coframe((1, 1, 1), EUCLIDEAN)
    assert np.array_equal(e, np.eye(3, 4))


def test_make_degenerate_coframe_null_construction():
    e = red.make_degenerate_coframe((1, 1, 0), LORENTZIAN)
    assert np.array_equal(e[2], [0, 0, 1, 1])   # u3 + u4 null direction


def test_make_degenerate_coframe_unattainable():
    for signs in ((1, -1, 0), (1, 0, 0), (0, 0, 0)):
        with pytest.raises(ValueError, match="unattainable"):
            red.make_degenerate_coframe(signs, LORENTZIAN)
    with pytest.raises(ValueError, match="unattainable"):
        red.make_degenerate_coframe((1, 1, -1), EUCLIDEAN)


# --- exact sequence -----------------------------------------------------------------

#: the bound the `reduction/exact-sequence` row decides containment with
CONTAINMENT = TOLERANCES["exact_sequence_containment"]


def test_exact_sequence_random_sites():
    for _ in range(20):
        e = random_nondegenerate_coframe(RNG, LORENTZIAN)
        rep = red.exact_sequence_check(e, LORENTZIAN)
        assert rep.dim_image_bracket == 6
        assert rep.wedge_residual <= 1e-12
        assert max(rep.containment_residual, rep.reverse_residual) <= CONTAINMENT


@pytest.mark.parametrize("sig", [LORENTZIAN, EUCLIDEAN], ids=["lorentzian", "euclidean"])
def test_exact_sequence_stack_matches_single_sites(sig):
    e = np.stack([random_nondegenerate_coframe(RNG, sig) for _ in range(20)])
    rep = red.exact_sequence_check(e, sig)
    assert rep.wedge_residual.shape == (20,) and (rep.dim_image_bracket == 6).all()
    assert np.maximum(rep.containment_residual, rep.reverse_residual).max() <= CONTAINMENT
    for i in range(20):
        one = red.exact_sequence_check(e[i], sig)
        for name, value in vars(one).items():
            assert np.array_equal(value, getattr(rep, name)[i]), name


def test_exact_sequence_refuses_a_near_degenerate_bracket_image(monkeypatch):
    # one kernel direction's image scaled by 1e-8: the threshold keeps it, the spectral
    # gap drops it, and the shared rank rule refuses the decision (exit code 3)
    e = random_nondegenerate_coframe(np.random.Generator(np.random.Philox(key=61)), LORENTZIAN)
    k = wm.kernel_basis(e, (1, 2)).kernel_basis[:, 0]
    bracket = red.bracket_matrix
    monkeypatch.setattr(red, "bracket_matrix", lambda e, sig: bracket(e, sig) @ (
        np.eye(18) - (1 - 1e-8) * np.outer(k, k)))
    with pytest.raises(wm.RankDecisionError, match="bracket image"):
        red.exact_sequence_check(e, LORENTZIAN)


def test_exact_sequence_standard_coframe_exact_arithmetic():
    # at the standard coframe everything is integer linear algebra
    from pchgrav import exactla

    K12 = exactla.nullspace(wm.kernel_equations((1, 2)).astype(int).tolist())
    B = red.frame_bracket_matrix(np.eye(3, dtype=int)).tolist()
    img_cols = []
    for col in K12:
        img_cols.append([sum(B[r][i] * col[i] for i in range(18)) for r in range(12)])
    # injectivity: rank 6
    assert exactla.rank([[c[r] for c in img_cols] for r in range(12)]) == 6
    # containment: W21 annihilates the image exactly
    W21 = np.rint(wm.wedge_matrix(np.eye(3, 4), (2, 1))).astype(int).tolist()
    for col in img_cols:
        out = [sum(W21[r][i] * col[i] for i in range(12)) for r in range(6)]
        assert all(x == 0 for x in out)
