"""Numerical verification of the boundary phase space of tetrad gravity.

Subpackages mirror the layers of the construction: exact fiber algebra of
(V, eta) with the Barbero-Immirzi twist (`fiber`), discrete differential
forms on the 3-torus (`grid`), wedge-map kernels and projectors
(`wedgemaps`), the structural connection representative (`reduction`),
constraint functionals and their bracket algebra (`constraints`), the
reduction to ADM-type boundary data (`ehdata`), the torsion-constrained
variant (`halfshell`), and the verification suites and CLI plumbing
(`suites`, `config`, `report`, `cli`).
"""

__version__ = "0.1.0"

from . import (  # noqa: F401,E402
    config,
    constraints,
    ehdata,
    exactla,
    fiber,
    grid,
    halfshell,
    reduction,
    report,
    rng,
    suites,
    wedgemaps,
)
