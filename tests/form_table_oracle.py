"""The orbit-form table as it was composed before the n part was shared,
kept as a test oracle.

This is ``solvlie.strata._form_table`` before the table was split into the
entries of ``structure``, composed once per n part on the integer fields
of the GaussianRationals, and those of ``h_structure``: every entry is
summed in GaussianRationals and read through the ``.re`` and ``.im``
Fractions of each coefficient. Kept verbatim, less the memo on
``basis.layer_tables``, so that a call builds the whole table afresh, and
with the n table added: the same composition of the entries with q < n
alone.
"""

from __future__ import annotations

from math import lcm
from typing import Dict

from solvlie.adapted import AdaptableBasis
from solvlie.gaussian import GaussianRational, ZERO
from solvlie.strata import FormTable


def form_table(basis: AdaptableBasis, ambient: str = "g") -> FormTable:
    """The orbit form of basis on the ambient as integer linear forms in a
    point's real coordinates: entry (p, q, re, im, d, s), p < q, stands for
    M[p][q] = (sum_m a_m x_m + i sum_m b_m x_m) / d over the values x_m of
    l on the real basis, and s = den / d. The n table holds the entries
    with q < n, those of ``structure``, over their own lcm."""
    entries = []
    parts = {"n": (basis.structure,),
             "g": (basis.structure, basis.h_structure)}[ambient]
    for rows in parts:
        for (p, q), row in rows.items():
            coef: Dict[int, GaussianRational] = {}
            for k, c in row.items():
                for m, t in basis.terms[k]:
                    coef[m] = coef.get(m, ZERO) + c * t
            parts = [(m, x.re, x.im) for m, x in coef.items() if x]
            d = lcm(*(y.denominator for _, a, b in parts for y in (a, b)))
            entries.append((p, q,
                            tuple((m, int(a * d)) for m, a, _ in parts if a),
                            tuple((m, int(b * d)) for m, _, b in parts if b),
                            d))
    den = lcm(*(e[4] for e in entries))
    return FormTable(tuple(e + (den // e[4],) for e in entries), den)
