"""The two-kernel route of ``admissibility.center_data``, kept as a test
oracle.

z(g) is the joint kernel of the rows w -> [w, e_m]_k, one per (m, k) with
a nonzero constant, read off ``spec.brackets``; z(g) cap h is the kernel of
the same rows restricted to the h coordinates, padded with zeros on n. Both
kernels are full dense eliminations (``rref_oracle``), with no early stop.
The library instead keeps the RREF rows of z(g) whose pivot lies in h; the
two spans must be equal, and an RREF is unique, so the rows must be too.
"""

from __future__ import annotations

import rref_oracle
from solvlie.gaussian import ZERO


def center_data(spec):
    """(z(g), z(g) cap h) as ``rref_oracle.Subspace``s of g."""
    dim, nd = spec.dim, spec.n_dim
    rows = {}
    for (p, m), entry in spec.brackets.items():
        for k, c in entry:
            rows.setdefault((m, k), {})[p] = c
    system = [[row.get(p, ZERO) for p in range(dim)] for row in rows.values()]
    z_g = rref_oracle.Subspace(rref_oracle.kernel(system, dim), dim)
    z_h = rref_oracle.kernel([row[nd:] for row in system], spec.h_dim)
    z_cap_h = rref_oracle.Subspace([[ZERO] * nd + list(v) for v in z_h], dim)
    return z_g, z_cap_h
