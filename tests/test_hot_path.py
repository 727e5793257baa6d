"""No per-site SVD, pseudo-inverse or large inverse on the state and vector-field path.

cond(phi_e) comes from the spectrum of the boundary metric, the frame inverse
from the frame Gram, and the wedge solves from fixed e-frame template
inverses; this test keeps a per-site decomposition from coming back.
"""

import numpy as np

from pchgrav import constraints as cst
from pchgrav.fiber import LORENTZIAN
from pchgrav.grid import Coframe, Grid3
from pchgrav.reduction import omega_tilde
from pchgrav.suites import random_offshell_state


def test_no_per_site_decomposition_on_the_hot_path(monkeypatch):
    st = random_offshell_state(np.random.Generator(np.random.Philox(key=31)), Grid3(4),
                               LORENTZIAN, 1.0, 0.1)
    mu = cst.smear_constant(st.grid, 1, [0.3, -0.2, 0.5, 0.4])
    inv = np.linalg.inv

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"np.linalg.{name} on the hot path")
        return call

    def small_inv(a, *args, **kwargs):
        a = np.asarray(a)
        if a.ndim > 2 and a.shape[-1] > 3:
            raise AssertionError(f"per-site np.linalg.inv of {a.shape[-2:]} matrices")
        return inv(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", refuse("svd"))
    monkeypatch.setattr(np.linalg, "pinv", refuse("pinv"))
    monkeypatch.setattr(np.linalg, "inv", small_inv)
    e = Coframe(st.e.field, st.sig)
    assert omega_tilde(e, st.omega).structural_residual <= 1e-9
    cst.projector_pack(e)
    X = cst.hamiltonian_vector_field(st, "J", mu)
    assert max(X.wedge_residuals.values()) <= 1e-12
