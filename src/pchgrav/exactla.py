"""Small exact linear algebra over Fractions (rank, null space, determinant).

Used wherever a rank decision must be bit-certain: kernel-dimension counting
at exactly constructed degenerate boundary metrics, and exact-arithmetic spot
checks of the projector and pairing templates.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def rref(mat: list):
    """Reduced row echelon form; returns (rref_rows, pivot_columns)."""
    m = [row[:] for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(mat: list) -> int:
    if not mat:
        return 0
    return len(rref(mat)[1])


def nullspace(mat: list) -> list:
    """Basis (list of column vectors) of the null space, exact."""
    if not mat:
        return []
    cols = len(mat[0])
    red, pivots = rref(mat)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(v)
    return basis


def det(mat: list) -> Fraction:
    m = [row[:] for row in mat]
    n = len(m)
    d = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            d = -d
        d *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return d


def matmul(a: list, b: list) -> list:
    return [
        [sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
        for row in a
    ]


def from_numpy_int(arr: np.ndarray) -> list:
    return [[Fraction(int(round(x))) for x in row] for row in np.asarray(arr)]
