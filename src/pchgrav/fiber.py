"""Pointwise exterior algebra of a 4-dimensional inner-product space (V, eta).

Everything here is exact structure-constant algebra: wedge products on
Lambda^k V, the internal Hodge star on bivectors, the so(eta) bracket and its
action on vectors, the volume pairing Tr, and the Barbero-Immirzi twist maps
T_gamma.  All operations broadcast over arbitrary leading axes, so whole grids
of fiber values can be processed in one call.  Every wedge, bracket and action
product, of fiber values or of whole form fields, is one call of the
contraction kernel `bilinear` on a combined structure tensor from
`product_tensor`.

Conventions (fixed once, used everywhere):
  * basis u_1..u_4 of V, eta = diag(1,1,1,1) or diag(1,1,1,-1) (any diagonal
    with at most one -1 is accepted, e.g. the adapted frame of a time-like
    span, diag(1,1,-1,1));
  * eps_{1234} = +1 and Tr(u_i ^ u_j ^ u_k ^ u_l) = eps_{ijkl};
  * bivector components are stored on the ordered pairs
    (12, 13, 14, 23, 24, 34), trivector components on the sorted triple that
    omits the flagged index;
  * the bracket on Lambda^2 V is the matrix commutator after lowering one
    index with eta:  [A,B]^{rs} = A^{rm} eta_{mn} B^{ns} - (A <-> B).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

# ---------------------------------------------------------------------------
# gradings and basis bookkeeping

GRADE_DIMS = {0: 1, 1: 4, 2: 6, 3: 4, 4: 1}

#: ordered basis index tuples for each grade (0-based vector indices)
GRADE_BASIS = {k: list(combinations(range(4), k)) for k in range(5)}

PAIRS = GRADE_BASIS[2]
PAIR_INDEX = {p: i for i, p in enumerate(PAIRS)}


def _merge_sign(a: tuple, b: tuple):
    """Sign of sorting the concatenation of two disjoint sorted tuples, or None."""
    if set(a) & set(b):
        return None, None
    merged = list(a + b)
    sign = 1
    for i in range(len(merged)):
        for j in range(i + 1, len(merged)):
            if merged[i] > merged[j]:
                sign = -sign
    return tuple(sorted(merged)), sign


def wedge_signs(n: int, k: int, m: int) -> np.ndarray:
    """S[i, j, o]: sign of basis_k[i] ^ basis_m[j] along basis_{k+m}[o] of an n-space.

    Bases are the sorted index tuples `combinations(range(n), k)`; n = 4 gives
    the fiber wedge on Lambda^* V, n = 3 the coordinate wedge of forms on T^3.
    """
    basis = {g: list(combinations(range(n), g)) for g in (k, m, k + m)}
    out_index = {t: i for i, t in enumerate(basis[k + m])}
    S = np.zeros((len(basis[k]), len(basis[m]), len(basis[k + m])), dtype=np.int64)
    for i, a in enumerate(basis[k]):
        for j, b in enumerate(basis[m]):
            merged, sign = _merge_sign(a, b)
            if merged is not None:
                S[i, j, out_index[merged]] = sign
    return S


# ---------------------------------------------------------------------------
# signature


@dataclass(frozen=True)
class Signature:
    """Diagonal inner product on V, four signs with at most one -1; s = sign det(eta)."""

    eta_diag: tuple

    def __post_init__(self):
        d = tuple(self.eta_diag)
        if len(d) != 4 or any(x not in (1, -1) for x in d) or d.count(-1) > 1:
            raise ValueError("eta_diag must be four signs +-1 with at most one -1")

    @property
    def eta(self) -> np.ndarray:
        return np.array(self.eta_diag, dtype=float)

    @property
    def s(self) -> int:
        return int(np.prod(self.eta_diag))

    @property
    def name(self) -> str:
        return "euclidean" if self.s == 1 else "lorentzian"


EUCLIDEAN = Signature((1, 1, 1, 1))
LORENTZIAN = Signature((1, 1, 1, -1))


def signature_from_name(name: str) -> Signature:
    try:
        return {"euclidean": EUCLIDEAN, "lorentzian": LORENTZIAN}[name.lower()]
    except KeyError:
        raise ValueError(f"unknown signature {name!r}") from None


def wedge_comps(k: int, m: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Component-level wedge, broadcasting over leading axes."""
    if k + m > 4:
        raise ValueError("grade exceeds 4")
    return bilinear(product_tensor(0, 0, k, m), a, b)


# ---------------------------------------------------------------------------
# Tr, Hodge star, bracket, action


def tr_quad(q: np.ndarray) -> np.ndarray:
    """Volume pairing on Lambda^4 V, normalised so Tr(u1^u2^u3^u4) = +1."""
    q = np.asarray(q)
    return q[..., 0]


@lru_cache(maxsize=None)
def star2_matrix(sig: Signature, exact: bool = False) -> np.ndarray:
    """Matrix of the Hodge star on bivector components, built on first use, read-only.

    star(u_i^u_j) = 1/2 eps_{ijkl} eta^{kk} eta^{ll} u_k^u_l, so the entry at
    (kl, ij) is the Tr Gram entry eps_{ijkl} weighted by eta_k eta_l of its
    row pair; `exact` gives the Fraction entries.
    """
    weights = [sig.eta_diag[k] * sig.eta_diag[l] for k, l in PAIRS]
    S = (np.array(weights)[:, None] * wedge_signs(4, 2, 2)[:, :, 0]).tolist()
    out = np.array([[Fraction(x) for x in row] for row in S], dtype=object) if exact \
        else np.array(S, dtype=float)
    out.flags.writeable = False
    return out


def hodge_star2(b: np.ndarray, sig: Signature) -> np.ndarray:
    """Internal Hodge star on bivector components; star o star = s * id."""
    b = np.asarray(b)
    S = star2_matrix(sig, b.dtype == object)
    if b.dtype == object:
        return np.array([sum(S[i, j] * b[..., j] for j in range(6)) for i in range(6)]).T
    return b @ S.T


def _bracket_tensor(sig: Signature) -> np.ndarray:
    """C[I,J,K] of the bracket, as the derivation [a, x ^ y] = (a.x) ^ y + x ^ (a.y).

    This is [A,B]^{rs} = A^{rm} eta_{mn} B^{ns} - (A <-> B) on basis bivectors.
    """
    W = wedge_signs(4, 1, 1)
    return np.einsum("klJ,Iko,olK->IJK", W, _action_tensor(sig), W)


def bracket2(a: np.ndarray, b: np.ndarray, sig: Signature) -> np.ndarray:
    """so(eta) bracket on bivector components (broadcasts over leading axes)."""
    return bilinear(product_tensor(0, 0, 2, 2, sig), a, b)


def _action_tensor(sig: Signature) -> np.ndarray:
    """act[I,j,k]: (b_I . u_j)^k with (a.v)^k = a^{kj} eta_{jj} v^j."""
    return np.einsum("kjI,j->Ijk", wedge_signs(4, 1, 1), np.array(sig.eta_diag))


def act_on_vector(a: np.ndarray, v: np.ndarray, sig: Signature) -> np.ndarray:
    """so(eta) module action of a bivector on a vector."""
    return bilinear(product_tensor(0, 0, 2, 1, sig), a, v)


# ---------------------------------------------------------------------------
# the contraction kernel: every wedge, bracket and action product goes here

#: sites per block of the float path; bounds the per-block intermediate to a few MB
_BLOCK = 2048


@lru_cache(maxsize=None)
def product_tensor(p: int, q: int, k: int, m: int, sig: Signature | None = None) -> np.ndarray:
    """Combined structure tensor T[(a,i), (b,j), (c,o)] of a pointwise product.

    The first factor is a p-form with Lambda^k values, the second a q-form with
    Lambda^m values.  T is the coordinate wedge signs times the fiber wedge
    (sig None) or, for k = 2 and a signature, the so(eta) action on Lambda^m
    (m = 1: on vectors, m = 2: the bracket).  Each axis is flattened to
    (form component, fiber component); the tensor is built on first use and
    is read-only.
    """
    if sig is None:
        F = wedge_signs(4, k, m)
    elif k == 2 and m in (1, 2):
        F = _action_tensor(sig) if m == 1 else _bracket_tensor(sig)
    else:
        raise ValueError("the action is implemented on vector/bivector values")
    C = wedge_signs(3, p, q)
    T = np.einsum("abc,ijo->aibjco", C, F).reshape(
        C.shape[0] * F.shape[0], C.shape[1] * F.shape[1], C.shape[2] * F.shape[2]
    )
    T.flags.writeable = False
    return T


def bilinear(T: np.ndarray, x, y) -> np.ndarray:
    """sum_ab T[a, b, o] x[..., a] y[..., b], broadcasting over leading axes.

    Object (Fraction) operands take the exact path.  Floats are contracted in
    blocks of sites with the operand of more components against T first, so
    the per-site intermediate is (fewer components) x (output dim).
    """
    x = np.asarray(x)
    y = np.asarray(y)
    A, B, O = T.shape
    if x.shape[:-1] != y.shape[:-1]:
        lead = np.broadcast_shapes(x.shape[:-1], y.shape[:-1])
        x, y = np.broadcast_to(x, lead + (A,)), np.broadcast_to(y, lead + (B,))
    lead = x.shape[:-1]
    if x.dtype == object or y.dtype == object:
        out = np.zeros(lead + (O,), dtype=object)
        out[...] = Fraction(0)
        for a, b, o in zip(*np.nonzero(T)):
            out[..., o] = out[..., o] + int(T[a, b, o]) * x[..., a] * y[..., b]
        return out
    if A < B:
        T, x, y, A, B = T.transpose(1, 0, 2), y, x, B, A
    x = x.reshape(-1, A)
    y = y.reshape(-1, B)
    out = np.empty((x.shape[0], O), dtype=np.result_type(x, y, T))
    T2 = T.reshape(A, B * O).astype(out.dtype)
    buf = np.empty((min(_BLOCK, x.shape[0]), B * O), dtype=out.dtype)   # one block at a time
    for s in range(0, x.shape[0], _BLOCK):
        xs = x[s:s + _BLOCK]
        t = np.matmul(xs, T2, out=buf[:len(xs)]).reshape(-1, B, O)
        np.einsum("sbo,sb->so", t, y[s:s + _BLOCK], out=out[s:s + _BLOCK])
    return out.reshape(lead + (O,))


def bilinear_matrix(T: np.ndarray, y) -> np.ndarray:
    """Matrix M[..., o, a] of x -> bilinear(T, x, y) for a fixed y (Fractions stay exact)."""
    A, B, O = T.shape
    y = np.asarray(y)
    M = y.reshape(-1, B) @ T.transpose(1, 2, 0).reshape(B, O * A)
    return M.reshape(y.shape[:-1] + (O, A))


#: Gram matrix G_IJ = Tr[b_I ^ b_J] of the Tr pairing on Lambda^2 V
TR_GRAM2 = wedge_signs(4, 2, 2)[:, :, 0].astype(float)


# ---------------------------------------------------------------------------
# Barbero-Immirzi twist


def t_gamma(b: np.ndarray, gamma: float, sig: Signature) -> np.ndarray:
    """Holst twist T_gamma(b) = b + (1/gamma) star b; gamma = inf gives identity."""
    if gamma == 0:
        raise ValueError("gamma must be nonzero")
    b = np.asarray(b)
    if np.isinf(gamma):
        return b.copy()
    return b + hodge_star2(b, sig) / gamma


def t_gamma_endo_matrix(gamma: float, sig: Signature) -> np.ndarray:
    """Matrix of the endomorphism T_gamma on the ordered bivector basis."""
    if gamma == 0:
        raise ValueError("gamma must be nonzero")
    if np.isinf(gamma):
        return np.eye(6)
    return np.eye(6) + star2_matrix(sig) / gamma


def t_gamma_matrix(gamma: float, sig: Signature):
    """Pairing matrix Ttilde_IJ = Tr[T_gamma(b_I) ^ b_J] and its determinant.

    For the Lorentzian signature det = -(1 + gamma^-2)^3.
    """
    T = t_gamma_endo_matrix(gamma, sig)
    pairing = T.T @ TR_GRAM2
    return pairing, float(np.linalg.det(pairing))


def f_alpha_matrix(alpha: float):
    """Twisted-basis map F_alpha = id + alpha * star (Lorentzian star pattern).

    det F_alpha = (1 + alpha^2)^3; F is singular exactly at alpha = +-i.
    """
    F = np.eye(6) + alpha * star2_matrix(LORENTZIAN)
    return F, float(np.linalg.det(F))


def morphism_residual(gamma: float, sig: Signature) -> float:
    """max over 64 seeded random pairs of ||[T A, T B] - 2 T[A,B]|| / (||A|| ||B||).

    Vanishes iff gamma^2 = s: real gamma can satisfy it only in the Euclidean
    signature.
    """
    if gamma == 0:
        raise ValueError("gamma must be nonzero")
    rng = np.random.Generator(np.random.Philox(key=2024))
    worst = 0.0
    for _ in range(64):
        a = rng.normal(size=6)
        b = rng.normal(size=6)
        ta = t_gamma(a, gamma, sig)
        tb = t_gamma(b, gamma, sig)
        r = np.linalg.norm(bracket2(ta, tb, sig) - 2.0 * t_gamma(bracket2(a, b, sig), gamma, sig))
        worst = max(worst, r / (np.linalg.norm(a) * np.linalg.norm(b)))
    return worst


def frac_array(values) -> np.ndarray:
    """Object array of Fractions, for the exact-rational arithmetic mode."""
    arr = np.asarray(values)
    out = np.empty(arr.shape, dtype=object)
    flat_in = arr.reshape(-1)
    flat_out = out.reshape(-1)
    for idx in range(flat_in.size):
        flat_out[idx] = Fraction(flat_in[idx])
    return out
