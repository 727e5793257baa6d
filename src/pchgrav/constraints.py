"""Constraint functionals on the structural slice and their bracket algebra.

States are pairs (e, omega~) with the structural part of the torsion killed:
p d_omega~ e = 0, certified by the kernel-correction solve.  On such states

    L_alpha = integral T^_gamma[alpha ^ e ^ d_omega~ e]
    J_mu    = integral T^_gamma[mu ^ e ^ F_omega~] + Tr[Lambda mu ^ e^3]

are evaluated with the full fiber-algebra machinery.  Functionals are always
evaluated through re-certification, so they are invariant under kernel-valued
shifts of the connection, and finite-difference directional derivatives stay
on the slice automatically.

Hamiltonian vector fields solve the defining wedge equations

    L:  X_e = [alpha, e],        e ^ X_omega = -e ^ d_omega alpha,
    J:  e ^ X_e      = -d_omega mu ^ e + (p+ + B+)(mu ^ p' d_omega e),
        e ^ p'X_omega = mu ^ (F + 3 Lambda e^2) + A+(mu ^ p' d_omega e),

with the kernel part of X_omega fixed by the constrained-variation relation
p X_omega = A(X_e) + B(p' X_omega).  The projector derivative inside A is a
central finite difference in e; the adjoints are taken with respect to the
twisted integral pairing (matrix transposes against its Gram, with the
discrete transpose of the covariant derivative for the nonlocal part).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fiber, reduction, wedgemaps
from .fiber import PAIRS, Signature
from .grid import (
    Coframe,
    FormField,
    Grid3,
    TrigPoly,
    action_wedge,
    cov_deriv,
    curvature,
    deriv_axis,
    harmonic,
    integrate,
    t_gamma_field,
    tr_quad_field,
    wedge_fields,
)
from .reduction import K12HAT, K21HAT, OmegaTildeResult, omega_tilde
from .wedgemaps import complete_frame, compound_matrix

# ---------------------------------------------------------------------------
# states


@dataclass
class BoundaryState:
    e: Coframe
    omega: FormField            # certified structural representative
    gamma: float
    Lambda: float
    ot: OmegaTildeResult
    on_shell: bool = False      # built on the residual-constraint surface

    @property
    def grid(self) -> Grid3:
        return self.e.grid

    @property
    def sig(self) -> Signature:
        return self.e.sig


def certify(e: Coframe, omega: FormField, gamma: float, Lambda: float = 0.0,
            on_shell: bool = False) -> BoundaryState:
    """Solve for the structural representative and package the state."""
    if gamma == 0:
        raise ValueError("gamma must be nonzero")
    ot = omega_tilde(e, omega)
    return BoundaryState(e, ot.omega_tilde, gamma, Lambda, ot, on_shell)


def shifted_state(state: BoundaryState, t: float, de: FormField, domega: FormField) -> BoundaryState:
    e = Coframe(state.e.field + t * de, state.sig)
    return certify(e, state.omega + t * domega, state.gamma, state.Lambda)


# ---------------------------------------------------------------------------
# functionals


def smear_constant(grid: Grid3, grade: int, comps) -> FormField:
    data = np.zeros((grid.n,) * 3 + (1, fiber.GRADE_DIMS[grade]))
    data[..., 0, :] = np.asarray(comps, dtype=float)
    return FormField(grid, 0, grade, data)


def torsion(state: BoundaryState) -> FormField:
    return cov_deriv(state.e.field, state.omega, state.sig)


def eval_L(state: BoundaryState, alpha: FormField) -> float:
    """L_alpha; linear in alpha, O(h^2) on on-shell states."""
    if alpha.grid.n != state.grid.n:
        raise ValueError("grid mismatch")
    x = wedge_fields(state.e.field, torsion(state))   # Omega^3(L^2 V)
    talpha = t_gamma_field(alpha, state.gamma, state.sig)
    return integrate(tr_quad_field(wedge_fields(talpha, x)))


def eval_J(state: BoundaryState, mu: FormField, gamma: float | None = None) -> float:
    """J_mu with the cosmological term Tr[Lambda mu ^ e^3]."""
    if mu.grid.n != state.grid.n:
        raise ValueError("grid mismatch")
    g = state.gamma if gamma is None else gamma
    F = curvature(state.omega, state.sig)
    me = wedge_fields(mu, state.e.field)              # Omega^1(L^2 V)
    tme = t_gamma_field(me, g, state.sig)
    val = integrate(tr_quad_field(wedge_fields(tme, F)))
    if state.Lambda != 0.0:
        e = state.e.field
        e3 = wedge_fields(e, wedge_fields(e, e))
        val += state.Lambda * integrate(tr_quad_field(wedge_fields(mu, e3)))
    return val


def eval_J_infinity(state: BoundaryState, mu: FormField) -> float:
    """J_mu in the gamma -> infinity normalization (untwisted pairing)."""
    return eval_J(state, mu, gamma=np.inf)


# ---------------------------------------------------------------------------
# on-shell construction from a triad and a symmetric extrinsic tensor


@dataclass(frozen=True)
class TriadSpec:
    """Closed-form triad ebar_a^i and symmetric K_ab as trig polynomials."""

    ebar: tuple  # 3x3 nested tuple of TrigPoly
    K: tuple     # 3x3 nested tuple of TrigPoly, symmetric

    def sample(self, grid: Grid3):
        X, Y, Z = grid.coords()
        eb = np.zeros((grid.n,) * 3 + (3, 3))
        kk = np.zeros((grid.n,) * 3 + (3, 3))
        for a in range(3):
            for i in range(3):
                eb[..., a, i] = self.ebar[a][i].eval(X, Y, Z)
                kk[..., a, i] = self.K[a][i].eval(X, Y, Z)
        return eb, kk

    def anholonomy(self, grid: Grid3) -> np.ndarray:
        """C[..., a, b, i] = d_a ebar_b^i - d_b ebar_a^i from exact derivatives."""
        X, Y, Z = grid.coords()
        C = np.zeros((grid.n,) * 3 + (3, 3, 3))
        for a in range(3):
            for b in range(3):
                for i in range(3):
                    C[..., a, b, i] = (
                        self.ebar[b][i].deriv(a).eval(X, Y, Z)
                        - self.ebar[a][i].deriv(b).eval(X, Y, Z)
                    )
        return C

    def validate_symmetric(self):
        for a in range(3):
            for b in range(a + 1, 3):
                if sorted(self.K[a][b].terms) != sorted(self.K[b][a].terms):
                    raise ValueError("K spec must be symmetric")


def make_on_shell(spec: TriadSpec, grid: Grid3, gamma: float, sig: Signature,
                  Lambda: float = 0.0, timelike: bool = False) -> BoundaryState:
    """State on the residual-constraint surface, built from Gamma(ebar) + A(K).

    The triad spans the first three internal directions (third leg along u_4
    for a time-like boundary span); the compatible block Gamma is evaluated
    with the exact spec derivatives, so its continuum torsion vanishes
    identically and every discrete residual is honest O(h^2) discretization
    error.  The returned state is re-certified, making the structural part
    zero to solver precision while leaving e ^ d_omega e untouched.
    """
    from . import ehdata

    spec.validate_symmetric()
    eb, K = spec.sample(grid)
    if timelike:
        if sig.s == 1:
            raise ValueError("time-like boundary span needs the Lorentzian signature")
        legs, eta_bar = (0, 1, 3), np.array([1.0, 1.0, -1.0])
    else:
        legs, eta_bar = (0, 1, 2), np.array([1.0, 1.0, 1.0])

    gamma_blk = ehdata.gamma_block(eb, eta_bar, grid, C=spec.anholonomy(grid))
    A = np.einsum("j,...ja,...ab->...bj", 1.0 / eta_bar, np.linalg.inv(eb), K)

    e_data = np.zeros((grid.n,) * 3 + (3, 4))
    for i, leg in enumerate(legs):
        e_data[..., :, leg] = eb[..., :, i]
    e = Coframe(FormField(grid, 1, 1, e_data), sig)

    normal = ({0, 1, 2, 3} - set(legs)).pop()
    order = list(legs) + [normal]
    om = np.zeros((grid.n,) * 3 + (3, 6))
    for P, (i, j) in enumerate(ehdata.SPATIAL_PAIRS):
        vi, vj = order[i], order[j]
        I = PAIRS.index((min(vi, vj), max(vi, vj)))
        s = 1.0 if vi < vj else -1.0
        om[..., I] += s * gamma_blk[..., P]
    for i in range(3):
        vi = order[i]
        I = PAIRS.index((min(vi, normal), max(vi, normal)))
        s = 1.0 if normal < vi else -1.0   # coefficient of w_0 ^ w_i
        om[..., I] += s * A[..., i]
    omega = FormField(grid, 1, 2, om)
    return certify(e, omega, gamma, Lambda, on_shell=True)


def random_triad_spec(rng, amp: float = 0.05, kamp: float = 0.2, n_modes: int = 2,
                      kmax: int = 1) -> TriadSpec:
    """Identity-dominated trig triad and a symmetric trig K."""

    def poly(base, a):
        p = TrigPoly.constant(base)
        for _ in range(n_modes):
            k = tuple(int(v) for v in rng.integers(-kmax, kmax + 1, size=3))
            p = p + harmonic(float(rng.normal()) * a, k, float(rng.uniform(0, 2 * np.pi)))
        return p

    eb = [[poly(1.0 if a == i else 0.0, amp) for i in range(3)] for a in range(3)]
    Kup = [[poly(0.0, kamp) for _ in range(3)] for _ in range(3)]
    K = [[Kup[min(a, b)][max(a, b)] for b in range(3)] for a in range(3)]
    return TriadSpec(tuple(tuple(r) for r in eb), tuple(tuple(r) for r in K))


# ---------------------------------------------------------------------------
# per-site projector fields

_P12_E = K12HAT @ K12HAT.T
_P21_E = K21HAT @ K21HAT.T
_W11_TEMPLATE = wedgemaps.wedge_matrix(
    np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 1.0, 0]]), (1, 1)
)
_U11 = np.linalg.svd(_W11_TEMPLATE)[0][:, :12]
_P11DAG_E = _U11 @ _U11.T


def _block3(M: np.ndarray) -> np.ndarray:
    """kron(I_3, M), batched on the last two axes."""
    d = M.shape[-1]
    out = np.zeros(M.shape[:-2] + (3 * d, 3 * d))
    for c in range(3):
        out[..., c * d:(c + 1) * d, c * d:(c + 1) * d] = M
    return out


@dataclass
class ProjectorPack:
    """Batched projector family for the wedge-map splits at every site."""

    frames: np.ndarray
    p12: np.ndarray        # (..., 18, 18) kernel projector, domain of W^{(1,2)}
    p12_prime: np.ndarray
    p21: np.ndarray        # (..., 12, 12) kernel projector, domain of W^{(2,1)}
    p11_dag: np.ndarray    # (..., 18, 18) projector onto im W^{(1,1)}
    phi: np.ndarray        # (..., 6, 6)
    S12: np.ndarray        # e-frame -> u-frame transform on Omega^*(L^2) coeffs
    S12_inv: np.ndarray
    S2v_inv: np.ndarray    # u-frame -> e-frame on Omega^2(V) coeffs


def projector_pack(e: Coframe, cond_limit: float = 1e8) -> ProjectorPack:
    frames, _ = complete_frame(e.data, e.sig)
    L2 = compound_matrix(frames, 2)
    S12 = _block3(L2)
    S12_inv = _block3(np.linalg.inv(L2))
    S2v = _block3(frames)
    S2v_inv = _block3(np.linalg.inv(frames))
    phi = reduction.phi_matrix(e.gmetric)
    sv = np.linalg.svd(phi, compute_uv=False)
    cond = sv[..., 0] / np.maximum(sv[..., -1], 1e-300)
    if np.any(cond > cond_limit):
        site = np.unravel_index(int(np.argmax(cond)), cond.shape)
        raise reduction.PhiSingularError(
            f"ill-conditioned solve at site {site}: cond(phi) = {cond.max():.3e}"
        )
    return ProjectorPack(
        frames=frames,
        p12=S12 @ _P12_E @ S12_inv,
        p12_prime=S12 @ (np.eye(18) - _P12_E) @ S12_inv,
        p21=S2v @ _P21_E @ S2v_inv,
        p11_dag=S12 @ _P11DAG_E @ S12_inv,
        phi=phi,
        S12=S12,
        S12_inv=S12_inv,
        S2v_inv=S2v_inv,
    )


def _flat(f: FormField) -> np.ndarray:
    return f.data.reshape(f.data.shape[:3] + (-1,))


def _unflat(vec: np.ndarray, grid: Grid3, p: int, grade: int) -> FormField:
    from .grid import NCOMP

    shape = vec.shape[:-1] + (NCOMP[p], fiber.GRADE_DIMS[grade])
    return FormField(grid, p, grade, vec.reshape(shape))


def _apply_sitewise(mat: np.ndarray, f: FormField) -> FormField:
    out = np.einsum("...ij,...j->...i", mat, _flat(f))
    return _unflat(out, f.grid, f.p, f.grade)


def act_field(alpha: FormField, f: FormField, sig: Signature) -> FormField:
    """Pointwise so(eta) action of a 0-form bivector on any field."""
    if alpha.p != 0 or alpha.grade != 2:
        raise ValueError("smearing must be a 0-form bivector")
    return action_wedge(alpha, f, sig)


# ---------------------------------------------------------------------------
# constrained-variation maps A, B and their adjoints


def kernel_coords_21(f: FormField, pack: ProjectorPack) -> np.ndarray:
    """Coordinates of the (2,1)-kernel projection in the orthonormal template."""
    return np.einsum("...ij,...j->...i", pack.S2v_inv, _flat(f)) @ K21HAT


def a_map(state: BoundaryState, de: FormField, pack: ProjectorPack,
          fd_step: float = 1e-6) -> np.ndarray:
    """A(de) in kernel coordinates:  phi A(de) = -p[(d_e p)(d_w e) + p d_w de].

    The projector derivative is a central finite difference of the projector
    family along de (relative step `fd_step`).
    """
    dvec = _flat(torsion(state))
    scale = max(state.e.field.sup_norm(), 1e-12)
    eps = fd_step * scale / max(de.sup_norm(), 1e-300)
    pack_p = projector_pack(Coframe(state.e.field + eps * de, state.sig, check=False))
    pack_m = projector_pack(Coframe(state.e.field + (-eps) * de, state.sig, check=False))
    dp_d = np.einsum("...ij,...j->...i", (pack_p.p21 - pack_m.p21) / (2 * eps), dvec)
    pd = np.einsum("...ij,...j->...i", pack.p21, _flat(cov_deriv(de, state.omega, state.sig)))
    z = np.einsum("...ij,...j->...i", pack.S2v_inv, dp_d + pd) @ K21HAT
    return -np.linalg.solve(pack.phi, z[..., None])[..., 0]


def b_map(state: BoundaryState, c: FormField, pack: ProjectorPack) -> np.ndarray:
    """B(c) = -phi^{-1} p [c, e] in kernel coordinates, pointwise."""
    z = kernel_coords_21(reduction.bracket_with_e(c, state.e), pack)
    return -np.linalg.solve(pack.phi, z[..., None])[..., 0]


def kernel_field_from_coords(coords: np.ndarray, pack: ProjectorPack, grid: Grid3) -> FormField:
    v_u = np.einsum("...ij,...j->...i", pack.S12, coords @ K12HAT.T)
    return _unflat(v_u, grid, 1, 2)


def _pairing_gram_22_12(gamma: float, sig: Signature) -> np.ndarray:
    """Gram of the twisted pairing int T^[Z ^ Y], Z in Omega^2(L^2), Y in Omega^1(L^2)."""
    T = fiber.t_gamma_endo_matrix(gamma, sig)
    return np.kron(np.eye(3), T.T) @ wedgemaps.dual_pairing_matrix(1, 2)


def _pairing_gram_23_11(sig: Signature) -> np.ndarray:
    """Gram of int Tr[Z ^ Y], Z in Omega^2(L^3), Y in Omega^1(V)."""
    return wedgemaps.dual_pairing_matrix(1, 1)


def b_matrix_u(state: BoundaryState, pack: ProjectorPack) -> np.ndarray:
    """Matrix of y -> (B o p')(y) as a kernel-valued field, u-coords, per site."""
    BT = reduction.bracket_matrix(state.e.data, state.sig)        # (..., 12, 18)
    chain = np.einsum("...ij,...jk->...ik", pack.p21, BT)
    chain = np.einsum("...ij,...jk->...ik", pack.S2v_inv, chain)
    z = np.einsum("Dk,...Dj->...kj", K21HAT, chain)               # (..., 6, 18)
    coeff = -np.linalg.solve(pack.phi, z)                         # kernel coords
    full = np.einsum("Dk,...kj->...Dj", K12HAT, coeff)
    full = np.einsum("...ij,...jk->...ik", pack.S12, full)
    return np.einsum("...ij,...jk->...ik", full, pack.p12_prime)


def b_dagger(state: BoundaryState, Q: FormField, pack: ProjectorPack) -> FormField:
    """Adjoint of B o p' under the twisted pairing; lands in im W^{(1,1)}."""
    PB = _pairing_gram_22_12(state.gamma, state.sig)
    PB_invT = np.linalg.inv(PB.T)
    Bp = b_matrix_u(state, pack)
    rhs = np.einsum("...ji,...j->...i", Bp, _flat(Q) @ PB)
    out = rhs @ PB_invT.T
    return _unflat(out, state.grid, 2, 2)


def _cov_deriv_transpose(Y: FormField, omega: FormField, sig: Signature) -> FormField:
    """Discrete transpose of X -> cov_deriv(X, omega) on Omega^1(V) -> Omega^2(V).

    Transpose with respect to the plain coefficient dot product over sites;
    central differences transpose to their negatives on the periodic grid, and
    the algebraic wedge-action part transposes pointwise (the action tensor
    with its second and output axes swapped).
    """
    CW = fiber.wedge_signs(3, 1, 1)
    T = fiber.product_tensor(1, 1, 2, 1, sig)
    g = Y.grid
    out = _unflat(fiber.bilinear(T.transpose(0, 2, 1), _flat(omega), _flat(Y)), g, 1, 1)
    for a, ci, co in zip(*np.nonzero(CW)):
        out.data[..., ci, :] -= CW[a, ci, co] * deriv_axis(Y.data[..., co, :], a, g)
    return out


def a_dagger(state: BoundaryState, Q: FormField, pack: ProjectorPack,
             fd_step: float = 1e-6) -> FormField:
    """Adjoint of A under the twisted pairing, as an Omega^2(L^3)-valued field.

    <A+ Q, de>_Tr = <Q, A(de)>_T^ for all de; the pointwise part transposes
    sitewise (with the projector-derivative tensor assembled from 12 central
    finite differences) and the d_omega part through the discrete transpose of
    the covariant derivative.
    """
    PB = _pairing_gram_22_12(state.gamma, state.sig)
    # w = (chain)^T applied to Q: per-site 12-covector hitting (2,1)-coeff space
    K12S = np.einsum("...ij,jk->...ik", pack.S12, K12HAT)          # (..., 18, 6)
    qK = np.einsum("...j,...jk->...k", _flat(Q) @ PB, K12S)        # (..., 6)
    lam = -np.linalg.solve(np.swapaxes(pack.phi, -1, -2), qK[..., None])[..., 0]
    w = np.einsum("Dk,...k->...D", K21HAT, lam)
    w = np.einsum("...ji,...j->...i", pack.S2v_inv, w)             # covector on (2,1) coeffs

    # pointwise part: tensor T1[out12, dir12] of de -> (d_e p21)(torsion) per site
    dvec = _flat(torsion(state))
    scale = max(state.e.field.sup_norm(), 1e-12)
    psi = np.zeros(w.shape[:-1] + (12,))
    for a in range(3):
        for i in range(4):
            de_dir = np.zeros((3, 4))
            de_dir[a, i] = 1.0
            eps = fd_step * scale
            bump = np.broadcast_to(de_dir, state.e.data.shape)
            pp = projector_pack(Coframe(
                FormField(state.grid, 1, 1, state.e.data + eps * bump), state.sig, check=False))
            pm = projector_pack(Coframe(
                FormField(state.grid, 1, 1, state.e.data - eps * bump), state.sig, check=False))
            col = np.einsum("...ij,...j->...i", (pp.p21 - pm.p21) / (2 * eps), dvec)
            psi[..., a * 4 + i] = np.einsum("...i,...i->...", w, col)

    # nonlocal part: <w, p21 d_omega de> = <D^T(p21^T w), de>
    wp = np.einsum("...ji,...j->...i", pack.p21, w)
    Ywp = _unflat(wp, state.grid, 2, 1)
    Dt = _cov_deriv_transpose(Ywp, state.omega, state.sig)
    psi += _flat(Dt)

    PG = _pairing_gram_23_11(state.sig)
    out = psi @ np.linalg.inv(PG.T).T
    return _unflat(out, state.grid, 2, 3)


# ---------------------------------------------------------------------------
# Hamiltonian vector fields


@dataclass
class TangentVector:
    de: FormField
    domega: FormField
    kind: str
    constraint_residual: float = 0.0
    psi_norm: float | None = None
    wedge_residuals: dict | None = None


def _solve_complement_12(rhs: FormField, state: BoundaryState, pack: ProjectorPack) -> FormField:
    """Complement-valued X with X ^ e = rhs (surjective shape (1,2))."""
    M = wedgemaps.wedge_matrix(state.e.data, (1, 2))
    x = np.einsum("...ij,...j->...i", np.linalg.pinv(M), _flat(rhs))
    x = np.einsum("...ij,...j->...i", pack.p12_prime, x)
    return _unflat(x, state.grid, 1, 2)


def _solve_w11(rhs: FormField, state: BoundaryState) -> FormField:
    """X with X ^ e = rhs for the injective shape (1,1), least squares."""
    M = wedgemaps.wedge_matrix(state.e.data, (1, 1))
    x = np.einsum("...ij,...j->...i", np.linalg.pinv(M), _flat(rhs))
    return _unflat(x, state.grid, 1, 1)


def hamiltonian_vector_field(state: BoundaryState, kind: str, smearing: FormField,
                             pack: ProjectorPack | None = None,
                             offshell_corrections: bool | None = None) -> TangentVector:
    """Hamiltonian vector field of L_alpha or J_mu on the structural slice.

    For J the adjoint-map corrections vanish on shell; they are assembled by
    default only when the state is off shell (any grid size).
    """
    sig = state.sig
    if pack is None:
        pack = projector_pack(state.e)
    wedge_res = {}
    if kind == "L":
        alpha = smearing
        X_e = act_field(alpha, state.e.field, sig)
        dal = cov_deriv(alpha, state.omega, sig)
        Xw_c = _apply_sitewise(pack.p12_prime, dal) * (-1.0)
        rhs_w = wedge_fields(state.e.field, dal) * (-1.0)
    elif kind == "J":
        mu = smearing
        if offshell_corrections is None:
            offshell_corrections = not state.on_shell
        dmu = cov_deriv(mu, state.omega, sig)
        F = curvature(state.omega, sig)
        rhs_w12 = wedge_fields(mu, F)
        if state.Lambda != 0.0:
            ee = wedge_fields(state.e.field, state.e.field)
            rhs_w12 = rhs_w12 + 3.0 * state.Lambda * wedge_fields(mu, ee)
        rhs_e = wedge_fields(dmu, state.e.field) * (-1.0)
        if offshell_corrections:
            d = torsion(state)
            ppd = d - _apply_sitewise(pack.p21, d)
            Q = wedge_fields(mu, ppd)
            rhs_e = rhs_e + _apply_sitewise(pack.p11_dag, Q) + b_dagger(state, Q, pack)
            rhs_w12 = rhs_w12 + a_dagger(state, Q, pack)
        X_e = _solve_w11(rhs_e, state)
        # e ^ p'X_omega = rhs_w12  <=>  (p'X_omega) ^ e = -rhs_w12
        Xw_c = _solve_complement_12(rhs_w12 * (-1.0), state, pack)
        rhs_w = rhs_w12
        wedge_res["X_e"] = _rel_wedge_residual(X_e, rhs_e, state, (1, 1))
    else:
        raise ValueError("kind must be 'L' or 'J'")

    coords = a_map(state, X_e, pack) + b_map(state, Xw_c, pack)
    Xw_k = kernel_field_from_coords(coords, pack, state.grid)
    X_omega = Xw_c + Xw_k
    wedge_res["X_omega"] = _rel_wedge_residual(X_omega, rhs_w * (-1.0), state, (1, 2))

    pX = _apply_sitewise(pack.p12, X_omega)
    residual = (pX - Xw_k).sup_norm() / max(X_omega.sup_norm(), 1e-300)

    psi = None
    if kind == "L":
        dal = cov_deriv(smearing, state.omega, sig)
        psi = (_apply_sitewise(pack.p12, X_omega) + _apply_sitewise(pack.p12, dal)).sup_norm()
    return TangentVector(X_e, X_omega, kind, residual, psi, wedge_res)


def _rel_wedge_residual(X: FormField, rhs: FormField, state: BoundaryState, shape) -> float:
    """|| X ^ e - rhs || / scale  (rhs given as X ^ e convention)."""
    M = wedgemaps.wedge_matrix(state.e.data, shape)
    got = np.einsum("...ij,...j->...i", M, _flat(X))
    scale = max(np.abs(got).max(), np.abs(rhs.data).max(), 1e-300)
    return float(np.abs(got - _flat(rhs)).max() / scale)


def psi_alpha(state: BoundaryState, alpha: FormField,
              pack: ProjectorPack | None = None) -> FormField:
    """psi_alpha = p (L^alpha)_omega + p d_omega alpha; vanishes on shell."""
    if pack is None:
        pack = projector_pack(state.e)
    X = hamiltonian_vector_field(state, "L", alpha, pack)
    dal = cov_deriv(alpha, state.omega, state.sig)
    return _apply_sitewise(pack.p12, X.domega + dal)


def h_alpha_mu(state: BoundaryState, alpha: FormField, mu: FormField,
               pack: ProjectorPack | None = None) -> FormField:
    """Diagnostic H-smearing from e ^ H = -p+(psi_alpha ^ mu), least squares."""
    if pack is None:
        pack = projector_pack(state.e)
    psi = psi_alpha(state, alpha, pack)
    pm = wedge_fields(mu, psi) * (-1.0)     # Omega^1(L^3 V); mu ^ psi = psi ^ mu
    # project onto im W^{(0,2)} and invert wedge-with-e there
    M02 = wedgemaps.wedge_matrix(state.e.data, (0, 2))
    x = np.einsum("...ij,...j->...i", np.linalg.pinv(M02), _flat(pm))
    return _unflat(x, state.grid, 0, 2)


def z_mu(state: BoundaryState, mu: FormField, pack: ProjectorPack | None = None) -> FormField:
    """Auxiliary Z with p Z = 0 and e ^ Z = mu F_omega, least squares."""
    if pack is None:
        pack = projector_pack(state.e)
    F = curvature(state.omega, state.sig)
    rhs = wedge_fields(mu, F)
    Z = _solve_complement_12(rhs * (-1.0), state, pack)
    return Z


# ---------------------------------------------------------------------------
# finite-difference Poisson brackets


class RichardsonError(RuntimeError):
    pass


def directional_derivative(state: BoundaryState, functional, X: TangentVector,
                           h_rel: float = 1e-5):
    """Central FD of a functional along X with one Richardson step.

    The functional is evaluated on re-certified states, so motion stays on the
    structural slice.  Returns (value, error_estimate); raises RichardsonError
    when halving the step fails to reduce the difference.
    """
    scale = max(state.e.field.sup_norm(), state.omega.sup_norm())
    xnorm = max(X.de.sup_norm(), X.domega.sup_norm())
    t = h_rel * scale / max(xnorm, 1e-300)

    def fd(step):
        fp = functional(shifted_state(state, step, X.de, X.domega))
        fm = functional(shifted_state(state, -step, X.de, X.domega))
        return (fp - fm) / (2 * step)

    d1 = fd(t)
    d2 = fd(t / 2)
    d4 = fd(t / 4)
    r1 = abs(d2 - d1)
    r2 = abs(d4 - d2)
    floor = 1e-10 * (1.0 + abs(d4))   # roundoff allowance for exactly-linear cases
    if r2 > 0.5 * r1 + floor:
        raise RichardsonError(
            f"finite-difference sequence not converging: {r1:.3e} -> {r2:.3e}"
        )
    return (4 * d4 - d2) / 3.0, r2 / 3.0


def functional_L(alpha: FormField):
    return lambda s: eval_L(s, alpha)


def functional_J(mu: FormField):
    return lambda s: eval_J(s, mu)


def poisson_bracket(state: BoundaryState, f_kind: str, f_smear: FormField,
                    g_kind: str, g_smear: FormField, h_rel: float = 1e-5,
                    pack: ProjectorPack | None = None):
    """{F, G} = X_F(G) by finite differences along the Hamiltonian field of F."""
    X = hamiltonian_vector_field(state, f_kind, f_smear, pack)
    G = functional_L(g_smear) if g_kind == "L" else functional_J(g_smear)
    return directional_derivative(state, G, X, h_rel)


def symplectic_form(state: BoundaryState, X, Y) -> float:
    """Boundary symplectic pairing of two tangent vectors.

    Signs are fixed so that iota_{X_F} varpi = dF holds for the Hamiltonian
    vector fields built by `hamiltonian_vector_field`, which in turn makes
    {L_a, L_a'} = L_{[a',a]} hold in the stated order.
    """
    e = state.e.field

    def term(a, b) -> float:
        ex = wedge_fields(e, a.de)                      # Omega^2(L^2)
        tex = t_gamma_field(ex, state.gamma, state.sig)
        return integrate(tr_quad_field(wedge_fields(tex, b.domega)))

    return term(X, Y) - term(Y, X)
