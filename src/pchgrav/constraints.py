"""Constraint functionals on the structural slice and their bracket algebra.

States are pairs (e, omega~) with the structural part of the torsion killed:
p d_omega~ e = 0, certified by the kernel-correction solve.  On such states

    L_alpha = integral Tr[T_gamma alpha ^ e ^ d_omega~ e]
            = integral Tr[alpha ^ T_gamma(e ^ d_omega~ e)]
    J_mu    = integral Tr[T_gamma(mu ^ e) ^ F_omega~ + Lambda mu ^ e^3]
            = integral Tr[mu ^ (e ^ F + gamma^-1 e ^ star F + Lambda e^3)]

since T_gamma = 1 + gamma^-1 star is symmetric under the trace pairing
(a ^ star b = <a, b> vol) and the wedge is associative.  A state builds these
densities (and F, e ^ e, the torsion) once, on first use, so each smearing
costs one pointwise wedge; likewise its e-adapted frame, built by the first
vector field at the state and shared by the later ones (a certification keeps
neither the frame nor the record of its omega~ solve).  L and J are cubic in
(e, omega), and a direction tangent to the slice moves the structural
representative only at second order, so a bracket dG(X_F) is the exact first
variation of G's density along X_F at fixed omega, built from the state's cached
F, torsion and e ^ e in one step (`directional_derivative`, a five-point stencil
on uncertified shifted states, stays as the reference for generic functionals).

Hamiltonian vector fields solve the defining wedge equations

    L:  X_e = [alpha, e],        e ^ X_omega = -e ^ d_omega alpha,
    J:  e ^ X_e      = d_omega mu ^ e + p+(mu ^ p' d_omega e),
        e ^ p'X_omega = mu ^ (F + 3 Lambda e^2) + A+(mu ^ p' d_omega e),

with the kernel part of X_omega fixed by the linearized structural constraint
p X_omega = A(X_e).  The constrained variation B(c) = -phi^-1 p [c, e] drops out:
[., e] maps the complement of ker W^{(1,2)} into ker p21, so B o p' = 0 and its
adjoint vanishes with it.  The projector derivative inside A is
exact, d_e p = [block3(dP P^-1), p] for the moving e-adapted frame P; the
adjoints are taken with respect to the twisted integral pairing (matrix
transposes against its Gram, with the discrete transpose of the covariant
derivative for the nonlocal part).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import fiber, reduction, wedgemaps
from .fiber import Signature
from .grid import (
    Coframe,
    FormField,
    Grid3,
    action_wedge,
    cov_deriv,
    curvature,
    deriv_axis,
    integrate,
    t_gamma_field,
    wedge_fields,
)
from .reduction import omega_tilde
from .wedgemaps import compound_matrix

# ---------------------------------------------------------------------------
# states


@dataclass(frozen=True)
class BoundaryState:
    e: Coframe
    omega: FormField            # structural representative when certified
    gamma: float
    Lambda: float
    on_shell: bool = False      # built on the residual-constraint surface

    @property
    def grid(self) -> Grid3:
        return self.e.grid

    @property
    def sig(self) -> Signature:
        return self.e.sig

    @functools.cached_property
    def frame(self) -> reduction.PhiFrame:
        """The e-adapted frame of the coframe, built by the first field at the state;
        a state that asks for no field holds none."""
        return projector_pack(self.e)

    @functools.cached_property
    def F(self) -> FormField:
        return curvature(self.omega, self.sig)

    @functools.cached_property
    def ee(self) -> FormField:
        return wedge_fields(self.e.field, self.e.field)

    @functools.cached_property
    def torsion(self) -> FormField:
        """d_omega e."""
        return cov_deriv(self.e.field, self.omega, self.sig)

    @functools.cached_property
    def p21_torsion(self) -> FormField:
        """p21 d_omega e, through the state's frame."""
        return _apply_sitewise(self.frame.p21, self.torsion)

    @functools.cached_property
    def eF(self) -> FormField:
        return wedge_fields(self.e.field, self.F)

    @functools.cached_property
    def e_star_F(self) -> FormField:
        return wedge_fields(self.e.field, FormField(
            self.grid, 2, 2, fiber.hodge_star2(self.F.data, self.sig)))

    @functools.cached_property
    def e3(self) -> FormField:
        return wedge_fields(self.e.field, self.ee)

    def j_density(self, gamma: float) -> FormField:
        """e ^ T_gamma F + Lambda e^3, so that J_mu = integral Tr[mu ^ density]."""
        D = self.eF
        if not np.isinf(gamma):
            D = D + self.e_star_F * (1.0 / gamma)
        if self.Lambda != 0.0:
            D = D + self.e3 * self.Lambda
        return D

    @functools.cached_property
    def l_density(self) -> FormField:
        """T_gamma(e ^ d_omega e), so that L_alpha = integral Tr[alpha ^ density]."""
        return t_gamma_field(wedge_fields(self.e.field, self.torsion), self.gamma, self.sig)


def certify(e: Coframe, omega: FormField, gamma: float, Lambda: float = 0.0,
            on_shell: bool = False) -> BoundaryState:
    """Solve for the structural representative and package the state; the solve's
    record (v~, residual, conditioning) is `reduction.omega_tilde`'s to report."""
    if gamma == 0:
        raise ValueError("gamma must be nonzero")
    return BoundaryState(e, omega_tilde(e, omega).omega_tilde, gamma, Lambda, on_shell)


def shifted_state(state: BoundaryState, t: float, de: FormField, domega: FormField) -> BoundaryState:
    """The state (e + t de, omega + t domega), not re-certified: a stencil point."""
    e = Coframe(state.e.field + t * de, state.sig)
    return BoundaryState(e, state.omega + t * domega, state.gamma, state.Lambda)


# ---------------------------------------------------------------------------
# functionals


def smear_constant(grid: Grid3, grade: int, comps) -> FormField:
    data = np.zeros((grid.n,) * 3 + (1, fiber.GRADE_DIMS[grade]))
    data[..., 0, :] = np.asarray(comps, dtype=float)
    return FormField(grid, 0, grade, data)


def eval_L(state: BoundaryState, alpha: FormField) -> float:
    """L_alpha = integral Tr[alpha ^ T_gamma(e ^ d_omega e)] (T_gamma moved across the
    symmetric trace pairing); linear in alpha, O(h^2) on on-shell states."""
    if alpha.grid.n != state.grid.n:
        raise ValueError("grid mismatch")
    return integrate(wedge_fields(alpha, state.l_density))


def eval_J(state: BoundaryState, mu: FormField, gamma: float | None = None) -> float:
    """J_mu = integral Tr[T_gamma(mu ^ e) ^ F + Lambda mu ^ e^3] as mu wedged with the
    per-state density e ^ F + gamma^-1 e ^ star F + Lambda e^3 (any gamma)."""
    if mu.grid.n != state.grid.n:
        raise ValueError("grid mismatch")
    g = state.gamma if gamma is None else gamma
    if g == 0:
        raise ValueError("gamma must be nonzero")
    return integrate(wedge_fields(mu, state.j_density(g)))


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
        order, eta_bar = [0, 1, 3, 2], np.array([1.0, 1.0, -1.0])
    else:
        order, eta_bar = [0, 1, 2, 3], np.array([1.0, 1.0, 1.0])

    eb_inv = wedgemaps.inv3(eb)[0]
    gamma_blk = ehdata.gamma_block(eb, eta_bar, grid, C=spec.anholonomy(grid), e_inv=eb_inv)
    A = ehdata.a_from_K(eb, eta_bar, K, e_inv=eb_inv)
    del eb_inv      # freed before the certification, which sets the peak
    # the w-frame (w_1, w_2, w_3, w_0) is the u-frame permuted by P
    P = np.eye(4)[:, order]
    e = Coframe(FormField(grid, 1, 1, eb @ P[:, :3].T), sig)
    omega_u = ehdata.adapted_connection(gamma_blk, A, grid).data @ compound_matrix(P).T
    return certify(e, FormField(grid, 1, 2, omega_u), gamma, Lambda, on_shell=True)


# ---------------------------------------------------------------------------
# per-site fields


def projector_pack(e: Coframe) -> reduction.PhiFrame:
    """The e-adapted frame of a coframe: its projectors, kernel chain and wedge solves."""
    return reduction.phi_frame(e.data, e.sig)


def _flat(f: FormField) -> np.ndarray:
    return f.data.reshape(f.data.shape[:3] + (-1,))


def _unflat(vec: np.ndarray, grid: Grid3, p: int, grade: int) -> FormField:
    from .grid import NCOMP

    shape = vec.shape[:-1] + (NCOMP[p], fiber.GRADE_DIMS[grade])
    return FormField(grid, p, grade, vec.reshape(shape))


def _apply_sitewise(apply, f: FormField) -> FormField:
    """A per-site linear map, given as its action on leg arrays, applied to a field."""
    return FormField(f.grid, f.p, f.grade, apply(f.data))


def act_field(alpha: FormField, f: FormField, sig: Signature) -> FormField:
    """Pointwise so(eta) action of a 0-form bivector on any field."""
    if alpha.p != 0 or alpha.grade != 2:
        raise ValueError("smearing must be a 0-form bivector")
    return action_wedge(alpha, f, sig)


# ---------------------------------------------------------------------------
# the constrained-variation map A and its adjoint


def _frame_velocity(frame: reduction.PhiFrame, de: np.ndarray) -> np.ndarray:
    """dP P^-1 for the frame P = [e^T | n] moving along de: dP = [de^T | dn] with
    eta(e_a, dn) = -eta(de_a, n) =: r_a and eta(n, dn) = 0, i.e. dn = eta P^-T r."""
    eta = frame.sig.eta
    r = -np.einsum("...ai,i,...i->...a", de, eta, frame.frames[..., :, 3])
    dn = eta * np.einsum("...ai,...a->...i", frame.frames_inv[..., :3, :], r)
    dP = np.concatenate([np.swapaxes(de, -1, -2), dn[..., :, None]], axis=-1)
    return dP @ frame.frames_inv


def a_map(state: BoundaryState, de: FormField) -> np.ndarray:
    """A(de) in kernel coordinates:  phi A(de) = -p[(d_e p)(d_w e) + p d_w de].

    The projector derivative is exact: d_e p21 = [X, p21] with
    X = block3(dP P^-1) the velocity of the e-adapted frame along de, applied
    to the torsion d as X(p21 d) - p21(X d).  The outer p21 is left to the
    kernel chain, whose projection absorbs it (K21^T P21_E = K21^T).
    """
    Xt = np.swapaxes(_frame_velocity(state.frame, de.data), -1, -2)
    rhs = state.p21_torsion.data @ Xt + (cov_deriv(de, state.omega, state.sig).data
                                         - state.torsion.data @ Xt)
    return state.frame.kernel_correction(rhs)


def kernel_field_from_coords(coords: np.ndarray, pack: reduction.PhiFrame,
                             grid: Grid3) -> FormField:
    """The kernel-valued field of kernel coordinates (..., 6), through the frame of a
    coframe (`projector_pack`)."""
    return pack.kernel_field(coords, grid)


def _pairing_gram_22_12(gamma: float, sig: Signature) -> np.ndarray:
    """Gram of the twisted pairing int T^[Z ^ Y], Z in Omega^2(L^2), Y in Omega^1(L^2)."""
    T = fiber.t_gamma_endo_matrix(gamma, sig)
    return np.kron(np.eye(3), T.T) @ wedgemaps.dual_pairing_matrix(1, 2)


#: inverse of the Gram of int Tr[Z ^ Y], Z in Omega^2(L^3), Y in Omega^1(V)
_GRAM_23_11_INV = np.linalg.inv(wedgemaps.dual_pairing_matrix(1, 1))

#: largest condition number of T_gamma that the J field and the half-shell chart accept
PAIRING_COND_LIMIT = 1e8


class DegeneratePairingError(wedgemaps.ConditioningError, ValueError):
    """The twisted pairing is degenerate: T_gamma = 1 + gamma^-1 star is singular,
    or worse conditioned than PAIRING_COND_LIMIT."""


@functools.lru_cache(maxsize=16)
def t_gamma_inverse(gamma: float, sig: Signature) -> np.ndarray:
    """T_gamma^-1 on the ordered bivector basis, once per (gamma, signature), read-only.

    DegeneratePairingError where the condition number of T_gamma exceeds
    PAIRING_COND_LIMIT: with star^2 = 1 (the Euclidean signature) T_gamma is singular
    at gamma = +-1, and the condition number is about 2 / |gamma -+ 1|.  The Gram of the
    twisted pairing is T_gamma times a signed permutation, so it has the same one.
    """
    T = fiber.t_gamma_endo_matrix(gamma, sig)
    cond = np.linalg.cond(T)
    if not cond <= PAIRING_COND_LIMIT:
        raise DegeneratePairingError(
            f"twisted pairing degenerate for the {sig.name} signature at gamma = {gamma}: "
            f"T_gamma = 1 + gamma^-1 star is singular or nearly so, "
            f"cond = {cond:.3e} > {PAIRING_COND_LIMIT:.0e}")
    inv = np.linalg.inv(T)
    inv.flags.writeable = False
    return inv


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


def a_dagger(state: BoundaryState, Q: FormField) -> FormField:
    """Adjoint of A under the twisted pairing, applied to Q, as an Omega^2(L^3)-valued field.

    <A+ Q, de>_Tr = <Q, A(de)>_T^ for all de.  Q pairs with S12 K12 lam,
    lam = -phi^-1 K21^T S2v^-1 (.), so the transposed kernel chain takes Q PB to the
    covector w on Omega^2(V), as legs (..., 3, 4).  The pointwise part transposes
    sitewise (the exact projector derivative contracted analytically against w and
    the torsion) and the d_omega part through the discrete transpose of the
    covariant derivative.
    """
    frame = state.frame
    PB = _pairing_gram_22_12(state.gamma, state.sig)
    w = frame.kernel_correction_T((_flat(Q) @ PB).reshape(Q.data.shape))
    wp = frame.p21_T(w)

    # pointwise part: w . [X, p21] d = <dP, H> with H = G P^-T and
    # G_ij = sum_c (w_ci (p21 d)_cj - (p21^T w)_ci d_cj); the dn column of dP
    # is eliminated through dn = eta P^-T r
    G = (np.einsum("...ci,...cj->...ij", w, state.p21_torsion.data)
         - np.einsum("...ci,...cj->...ij", wp, state.torsion.data))
    H = G @ frame.frames_inv_T
    g = np.einsum("...ai,...i->...a", frame.frames_inv[..., :3, :], state.sig.eta * H[..., :, 3])
    eta_n = state.sig.eta * frame.frames[..., :, 3]
    psi = np.swapaxes(H[..., :, :3], -1, -2) - g[..., :, None] * eta_n[..., None, :]

    # nonlocal part: <w, p21 d_omega de> = <D^T(p21^T w), de>
    psi = psi + _cov_deriv_transpose(FormField(state.grid, 2, 1, wp), state.omega, state.sig).data
    return _unflat(psi.reshape(psi.shape[:-2] + (12,)) @ _GRAM_23_11_INV, state.grid, 2, 3)


# ---------------------------------------------------------------------------
# Hamiltonian vector fields


@dataclass
class TangentVector:
    de: FormField
    domega: FormField
    # sup |p X_omega - K A(X_e)| / sup |X_omega|, the linearized structural constraint;
    # nan when not measured.  Built with the A it checks, it sees a kernel-valued part in
    # the complement input p'X_omega, not a wrong A.
    constraint_residual: float = float("nan")
    wedge_residuals: dict | None = None


def slice_tangent(state: BoundaryState, de: FormField, dw_c: FormField) -> TangentVector:
    """The slice tangent (de, dw_c + K A(de)) for dw_c = p'X_omega; B(dw_c) = 0, as
    [dw_c, e] lies in ker p21.  Its recorded residual compares p X_omega with the kernel
    part the call itself built, so it shows only a kernel-valued part in dw_c; a wrong A
    leaves it at roundoff."""
    Xw_k = state.frame.kernel_field(a_map(state, de), state.grid)
    X_omega = dw_c + Xw_k
    pX = _apply_sitewise(state.frame.p12, X_omega)
    residual = (pX - Xw_k).sup_norm() / max(X_omega.sup_norm(), 1e-300)
    return TangentVector(de, X_omega, residual)


def hamiltonian_vector_field(state: BoundaryState, kind: str, smearing: FormField) -> TangentVector:
    """Hamiltonian vector field of L_alpha or J_mu on the structural slice.

    For J the adjoint-map corrections p+ Q and A+ Q of Q = mu ^ p' d_omega e are
    assembled at every state: they vanish with the torsion, which a discrete on-shell
    state keeps at O(h^2); B o p' = 0 contributes none.  DegeneratePairingError for J
    where the twisted pairing is degenerate (`t_gamma_inverse`).
    """
    sig = state.sig
    frame = state.frame
    wedge_res = {}
    if kind == "L":
        alpha = smearing
        X_e = act_field(alpha, state.e.field, sig)
        dal = cov_deriv(alpha, state.omega, sig)
        Xw_c = _apply_sitewise(frame.p12_prime, dal) * (-1.0)
        rhs_w = wedge_fields(state.e.field, dal) * (-1.0)
    elif kind == "J":
        mu = smearing
        t_gamma_inverse(state.gamma, sig)       # refuses a degenerate twisted pairing
        dmu = cov_deriv(mu, state.omega, sig)
        rhs_w12 = wedge_fields(mu, state.F)
        if state.Lambda != 0.0:
            rhs_w12 = rhs_w12 + 3.0 * state.Lambda * wedge_fields(mu, state.ee)
        Q = wedge_fields(mu, state.torsion - state.p21_torsion)
        rhs_e = wedge_fields(dmu, state.e.field) + _apply_sitewise(frame.p11_dag, Q)
        rhs_w12 = rhs_w12 + a_dagger(state, Q)
        del Q           # freed here: the solves and wedge residuals below set the peak
        X_e = frame.solve_w11(rhs_e)
        # e ^ p'X_omega = rhs_w12  <=>  (p'X_omega) ^ e = -rhs_w12
        Xw_c = frame.solve_complement_12(rhs_w12 * (-1.0))
        rhs_w = rhs_w12
        wedge_res["X_e"] = _rel_wedge_residual(X_e, rhs_e, state, (1, 1))
    else:
        raise ValueError("kind must be 'L' or 'J'")

    X = slice_tangent(state, X_e, Xw_c)
    wedge_res["X_omega"] = _rel_wedge_residual(X.domega, rhs_w * (-1.0), state, (1, 2))
    X.wedge_residuals = wedge_res
    return X


def _rel_wedge_residual(X: FormField, rhs: FormField, state: BoundaryState, shape) -> float:
    """|| X ^ e - rhs || / scale  (rhs given as X ^ e convention)."""
    M = wedgemaps.wedge_matrix(state.e.data, shape)
    got = np.einsum("...ij,...j->...i", M, _flat(X))
    scale = max(np.abs(got).max(), np.abs(rhs.data).max(), 1e-300)
    return float(np.abs(got - _flat(rhs)).max() / scale)


def psi_alpha(state: BoundaryState, alpha: FormField) -> FormField:
    """psi_alpha = p (L^alpha)_omega + p d_omega alpha; vanishes on shell."""
    X = hamiltonian_vector_field(state, "L", alpha)
    dal = cov_deriv(alpha, state.omega, state.sig)
    return _apply_sitewise(state.frame.p12, X.domega + dal)


# ---------------------------------------------------------------------------
# Poisson brackets from the exact first variation

#: largest constraint residual of a direction that a bracket or `directional_derivative` accepts
TANGENCY_LIMIT = 1e-9


def _require_tangent(X: TangentVector):
    """ValueError for a direction off the slice (constraint residual above TANGENCY_LIMIT),
    where a derivative at fixed omega is not the slice derivative.  The residual sees only
    a kernel-valued part in the complement input, not a wrong A."""
    if not X.constraint_residual <= TANGENCY_LIMIT:
        raise ValueError(f"direction not tangent to the structural slice: constraint "
                         f"residual {X.constraint_residual:.3e} > {TANGENCY_LIMIT:.0e}")


def directional_derivative(state: BoundaryState, functional, X: TangentVector):
    """dG(X) for any functional G of degree <= 3 in (e, omega) and X tangent to the slice:
    the reference stencil for generic functionals and for the brackets' exact variation.

    G is evaluated on the uncertified states s + k t X, k in {+-1, +-2, +-4},
    t = 1e-2 of the state's scale over the size of X; re-certification would
    move them only at O(t^2), and the central difference
    D(a) = [8(G(s+aX) - G(s-aX)) - (G(s+2aX) - G(s-2aX))] / (12a) is exact
    for polynomials of degree <= 4.  Returns (D(t), |D(t) - D(2t)|), so the
    error is roundoff alone.  Refuses a direction off the slice (`_require_tangent`).
    """
    _require_tangent(X)
    scale = max(state.e.field.sup_norm(), state.omega.sup_norm())
    t = 1e-2 * scale / max(X.de.sup_norm(), X.domega.sup_norm(), 1e-300)
    G = {k: functional(shifted_state(state, k * t, X.de, X.domega)) for k in (1, -1, 2, -2, 4, -4)}
    D = [(8 * (G[a] - G[-a]) - (G[2 * a] - G[-2 * a])) / (12 * a * t) for a in (1, 2)]
    return D[0], abs(D[0] - D[1])


def density_variation(state: BoundaryState, kind: str, X: TangentVector) -> FormField:
    """The exact first variation of the L or J density at the state along X = (de, domega),
    from the state's cached torsion, F and e ^ e:

        d(d_omega e) = d_omega de + [domega ^ e],    dF = d_omega domega,
        dL-density   = T_gamma(de ^ d_omega e + e ^ d(d_omega e)),
        dJ-density   = de ^ (T_gamma F + Lambda e^2) + e ^ (T_gamma dF + 2 Lambda e ^ de),

    with d(e ^ e) = 2 e ^ de (vector-valued 1-forms commute under the wedge); T_gamma is
    the identity at gamma = inf and the e^3 part is absent at Lambda = 0, as in `j_density`.
    """
    e, de, sig, gamma = state.e.field, X.de, state.sig, state.gamma
    if kind == "L":
        d_torsion = cov_deriv(de, state.omega, sig) + action_wedge(X.domega, e, sig)
        return t_gamma_field(wedge_fields(de, state.torsion) + wedge_fields(e, d_torsion),
                             gamma, sig)
    if kind != "J":
        raise ValueError("kind must be 'L' or 'J'")
    F_part = t_gamma_field(state.F, gamma, sig)
    dF_part = t_gamma_field(cov_deriv(X.domega, state.omega, sig), gamma, sig)
    if state.Lambda != 0.0:
        F_part = F_part + state.ee * state.Lambda
        dF_part = dF_part + wedge_fields(e, de) * (2.0 * state.Lambda)
    return wedge_fields(de, F_part) + wedge_fields(e, dF_part)


def poisson_bracket(state: BoundaryState, f_kind: str, f_smear: FormField,
                    g_kind: str, g_smear: FormField):
    """{F, G} = X_F(G) along the Hamiltonian field of F, as (value, roundoff_bound).

    dG(X_F) is G's smearing wedged with `density_variation` along X_F and integrated, at
    fixed omega: the slice derivative, as X_F is tangent to the slice (`_require_tangent`).
    roundoff_bound = eps h^3 sum |integrand| bounds the error of the sum at one rounding
    per integrand value; a bracket that cancels below it across sites is not resolved.
    """
    if g_smear.grid.n != state.grid.n:
        raise ValueError("grid mismatch")
    X = hamiltonian_vector_field(state, f_kind, f_smear)
    _require_tangent(X)
    integrand = wedge_fields(g_smear, density_variation(state, g_kind, X))
    roundoff_bound = np.finfo(float).eps * float(np.abs(integrand.data).sum()) * state.grid.h**3
    return integrate(integrand), roundoff_bound


def symplectic_form(state: BoundaryState, X, Y) -> float:
    """Boundary symplectic pairing of two tangent vectors at a state with a coframe e and
    gamma (a boundary or a half-shell state).

    Signs are fixed so that iota_{X_F} varpi = dF holds for the Hamiltonian
    vector fields built by `hamiltonian_vector_field`, which in turn makes
    {L_a, L_a'} = L_{[a',a]} hold in the stated order.
    """
    e = state.e.field

    def term(a, b) -> float:
        ex = wedge_fields(e, a.de)                      # Omega^2(L^2)
        tex = t_gamma_field(ex, state.gamma, state.sig)
        return integrate(wedge_fields(tex, b.domega))

    return term(X, Y) - term(Y, X)
