"""Pointwise matrix realizations of the wedge maps X -> X ^ e.

For the three shapes (p,k) in {(1,1), (1,2), (2,1)} this module builds the
coefficient matrices of W_e^{(p,k)}, decides their ranks and kernels through
singular values with an explicit gap policy, and assembles the projector
family (p, p', p^dagger).  The kernel/complement split is orthogonal in the
coefficient coordinates of the e-adapted frame {e_1, e_2, e_3, e_n}, which
keeps the projectors well conditioned and smooth in e.

In the e-adapted frame the wedge matrices are universal integer templates;
their kernels have the explicit descriptions

    (1,2):  X_a^{n b} = 0  and  sum_a X_a^{a b} = 0,
    (2,1):  X_{ab}^n = 0   and  sum_a X_{ab}^a = 0,

which provide an independent membership check for the numerically computed
kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fiber
from .fiber import GRADE_DIMS, PAIR_INDEX, Signature
from .grid import COMP_BASIS, NCOMP

SHAPES = ((1, 1), (1, 2), (2, 1))

#: domain/codomain coefficient dimensions per shape
SHAPE_DIMS = {(1, 1): (12, 18), (1, 2): (18, 12), (2, 1): (12, 6)}


class RankDecisionError(RuntimeError):
    """Raised when the singular-value gap is too small to decide a rank."""


#: shapes with a wedge matrix; the dual shapes (0,k) serve the annihilator checks
MATRIX_SHAPES = SHAPES + ((0, 1), (0, 2), (0, 3))


def wedge_matrix(e: np.ndarray, shape: tuple) -> np.ndarray:
    """Coefficient matrix of W_e^{(p,k)}; e has shape (..., 3, 4)."""
    if shape not in MATRIX_SHAPES:
        raise ValueError(f"unsupported shape {shape}")
    e = np.asarray(e, dtype=float)
    T = fiber.product_tensor(shape[0], 1, shape[1], 1)
    return fiber.bilinear_matrix(T, e.reshape(e.shape[:-2] + (12,)))


# ---------------------------------------------------------------------------
# e-adapted frame


def complete_frame(e: np.ndarray, sig: Signature):
    """Frame matrix P = [e_1 e_2 e_3 e_n] with eta-orthogonal unit e_n.

    The fourth vector is the eta-orthogonal completion with |eta(e_n,e_n)| = 1
    and sign fixed by orientation (positive volume pairing).  Returns
    (P, q_n) with q_n = eta(e_n, e_n).
    """
    e = np.asarray(e, dtype=float)
    # null space of the 3x4 system  e_a^i eta_i v^i = 0
    A = e * sig.eta
    _, sv, vh = np.linalg.svd(A)
    v = vh[..., 3, :]
    q = np.einsum("...i,i,...i->...", v, sig.eta, v)
    if np.any(np.abs(q) < 1e-12):
        raise ValueError("cannot complete frame: normal direction is null")
    v = v / np.sqrt(np.abs(q))[..., None]
    P = np.concatenate([np.swapaxes(e, -1, -2), v[..., :, None]], axis=-1)
    det = np.linalg.det(P)
    flip = np.where(det < 0, -1.0, 1.0)
    P = P.copy()
    P[..., :, 3] *= flip[..., None]
    qn = np.sign(np.einsum("...i,i,...i->...", P[..., :, 3], sig.eta, P[..., :, 3]))
    return P, qn


def compound_matrix(P: np.ndarray, k: int) -> np.ndarray:
    """Induced map Lambda^k P on the ordered-basis components."""
    if k == 1:
        return P
    basis = fiber.GRADE_BASIS[k]
    dim = len(basis)
    out = np.zeros(P.shape[:-2] + (dim, dim))
    for J, cols in enumerate(basis):
        sub = P[..., :, cols]
        for I, rows in enumerate(basis):
            out[..., I, J] = np.linalg.det(sub[..., rows, :])
    return out


def domain_transform(P: np.ndarray, p: int, k: int) -> np.ndarray:
    """Coefficient map from e-frame to u-frame for Omega^p(Lambda^k)."""
    Pk = compound_matrix(P, k)
    ncomp, fdim = NCOMP[p], GRADE_DIMS[k]
    out = np.zeros(P.shape[:-2] + (ncomp * fdim, ncomp * fdim))
    for c in range(ncomp):
        sl = slice(c * fdim, (c + 1) * fdim)
        out[..., sl, sl] = Pk
    return out


# ---------------------------------------------------------------------------
# explicit kernel equations in the e-frame (integer templates)


def kernel_equations(shape: tuple) -> np.ndarray:
    """Integer matrix E with  ker W^{(p,k)} = { X : E X = 0 }  in e-frame coords."""
    if shape == (1, 2):
        rows = []
        # X_a^{n b} = 0  (pairs containing the frame index 3 = n)
        for a in range(3):
            for pair in [(0, 3), (1, 3), (2, 3)]:
                r = np.zeros(18)
                r[a * 6 + PAIR_INDEX[pair]] = 1
                rows.append(r)
        # sum_a X_a^{a b} = 0 for each b
        for b in range(3):
            r = np.zeros(18)
            for a in range(3):
                if a == b:
                    continue
                pair = (a, b) if a < b else (b, a)
                sgn = 1 if a < b else -1
                r[a * 6 + PAIR_INDEX[pair]] += sgn
            rows.append(r)
        return np.array(rows)
    if shape == (2, 1):
        rows = []
        pairs2 = COMP_BASIS[2]
        # X_{ab}^n = 0
        for ci in range(3):
            r = np.zeros(12)
            r[ci * 4 + 3] = 1
            rows.append(r)
        # sum_a X_{ab}^a = 0 for each b
        for b in range(3):
            r = np.zeros(12)
            for a in range(3):
                if a == b:
                    continue
                if (a, b) in pairs2:
                    ci, sgn = pairs2.index((a, b)), 1
                else:
                    ci, sgn = pairs2.index((b, a)), -1
                r[ci * 4 + a] += sgn
            rows.append(r)
        return np.array(rows)
    if shape == (1, 1):
        return np.eye(12)  # trivial kernel
    raise ValueError(f"unsupported shape {shape}")


def _orthonormal_nullspace(E: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of ker E (columns)."""
    _, sv, vh = np.linalg.svd(E)
    rank = int((sv > 1e-10 * sv[0]).sum()) if len(sv) else 0
    basis = vh[rank:].T
    # fix signs: make the largest-magnitude entry of each column positive
    idx = np.argmax(np.abs(basis), axis=0)
    signs = np.sign(basis[idx, np.arange(basis.shape[1])])
    return basis * signs


#: orthonormal e-frame kernel templates (columns), per shape
KERNEL_TEMPLATES = {
    (1, 2): _orthonormal_nullspace(kernel_equations((1, 2))),
    (2, 1): _orthonormal_nullspace(kernel_equations((2, 1))),
    (1, 1): np.zeros((12, 0)),
}


# ---------------------------------------------------------------------------
# numerical splits


@dataclass
class WedgeMapSample:
    site: tuple
    shape: tuple
    matrix: np.ndarray  # (cod, dom)
    e: np.ndarray  # (3, 4)
    sig: Signature


@dataclass
class ComplementSplit:
    sample: WedgeMapSample
    kernel_basis: np.ndarray      # (dom, kdim), orthonormal in e-frame coords
    complement_basis: np.ndarray  # (dom, dom - kdim)
    p: np.ndarray                 # projector onto the kernel (domain)
    p_prime: np.ndarray           # projector onto the complement (domain)
    p_dagger: np.ndarray          # projector onto im(W) (codomain)
    singular_values: np.ndarray
    gap: float
    frame: np.ndarray             # P = [e_1 e_2 e_3 e_n]


def build_wedge_matrix(e: np.ndarray, shape: tuple, sig: Signature,
                       site: tuple = (0, 0, 0)) -> WedgeMapSample:
    e = np.asarray(e, dtype=float)
    if e.shape != (3, 4):
        raise ValueError("per-site coframe must be 3x4")
    return WedgeMapSample(site, shape, wedge_matrix(e, shape), e, sig)


def kernel_basis(sample: WedgeMapSample, rel_threshold: float = 1e-10,
                 min_gap: float = 1e6) -> ComplementSplit:
    """Kernel/complement split with singular-value gap policy.

    The rank is decided by `rel_threshold` relative to the largest singular
    value; the decision must be backed by a gap of at least `min_gap` between
    the smallest kept and the largest discarded singular value, otherwise a
    RankDecisionError signals a near-degenerate coframe.
    """
    p, k = sample.shape
    M = sample.matrix
    cod, dom = M.shape
    u, sv, vh = np.linalg.svd(M)
    rank = int((sv > rel_threshold * sv[0]).sum())
    # the spectrum must have a single dominant gap of at least `min_gap`, with
    # the threshold cut inside it; near-degenerate coframes leave intermediate
    # singular values that break one of the two conditions
    floor = 1e-15 * sv[0]
    padded = np.concatenate([sv, [floor]])
    ratios = padded[:-1] / np.maximum(padded[1:], floor)
    spectral_rank = int(np.argmax(ratios)) + 1
    top = sv[rank - 1] if rank else np.inf
    bottom = sv[rank] if rank < len(sv) and sv[rank] > floor else floor
    gap = float(top / bottom)
    if spectral_rank != rank or gap < min_gap:
        raise RankDecisionError(
            f"ill-conditioned rank decision at site {sample.site}: gap {gap:.3e}, "
            f"threshold rank {rank} vs spectral rank {spectral_rank}"
        )

    try:
        P, _ = complete_frame(sample.e, sample.sig)
        S_dom = domain_transform(P, p, k)
        S_cod = domain_transform(P, p + 1, k + 1)
        S_dom_inv = np.linalg.inv(S_dom)
        S_cod_inv = np.linalg.inv(S_cod)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise RankDecisionError(
            f"degenerate coframe at site {sample.site}: {exc}"
        ) from None

    kern_u = vh[rank:].T                      # (dom, kdim) orthonormal in u-coords
    kern_e = S_dom_inv @ kern_u
    kern_e = np.linalg.qr(kern_e)[0] if kern_e.shape[1] else kern_e
    p_e = kern_e @ kern_e.T
    proj = S_dom @ p_e @ S_dom_inv
    p_prime = np.eye(dom) - proj

    # complement basis: e-frame orthogonal complement of the kernel
    comp_e = _orthonormal_nullspace(kern_e.T) if kern_e.shape[1] else np.eye(dom)
    comp_u = S_dom @ comp_e

    im_u = u[:, :rank]
    im_e = S_cod_inv @ im_u
    im_e = np.linalg.qr(im_e)[0]
    p_dag = S_cod @ (im_e @ im_e.T) @ S_cod_inv

    return ComplementSplit(
        sample=sample,
        kernel_basis=S_dom @ kern_e,
        complement_basis=comp_u,
        p=proj,
        p_prime=p_prime,
        p_dagger=p_dag,
        singular_values=sv,
        gap=float(gap),
        frame=P,
    )


# ---------------------------------------------------------------------------
# dual pairing and annihilator check


def dual_pairing_matrix(p: int, k: int) -> np.ndarray:
    """PG[z, x] = Tr-coefficient of Z ^ X for Z in Omega^{3-p}(Lambda^{4-k})."""
    return fiber.product_tensor(3 - p, p, 4 - k, k)[:, :, 0].astype(float)


def annihilator_check(split: ComplementSplit) -> dict:
    """Verify that the annihilator of the kernel is the image of the dual wedge map.

    Covectors vanishing on ker W_e^{(p,k)} must be of the form Y ^ e for the
    complementary shape (2-p, 3-k); the report carries the worst least-squares
    residual over an annihilator basis.
    """
    p, k = split.sample.shape
    PG = dual_pairing_matrix(p, k)
    kern = split.kernel_basis
    if kern.shape[1] == 0:
        ann_basis = np.eye(PG.shape[0])
    else:
        ann_basis = _orthonormal_nullspace(kern.T @ PG.T)  # (z-dim, m) columns
    M_dual = wedge_matrix(split.sample.e, (2 - p, 3 - k))
    worst = 0.0
    for j in range(ann_basis.shape[1]):
        z = ann_basis[:, j]
        sol, res, *_ = np.linalg.lstsq(M_dual, z, rcond=None)
        r = np.linalg.norm(M_dual @ sol - z)
        worst = max(worst, r)
    return {"shape": (p, k), "n_covectors": ann_basis.shape[1], "max_residual": float(worst)}
