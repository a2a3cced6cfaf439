"""The per-sample layer key as it was before it read the generic path's
pivot polynomials, kept as a test oracle.

``sample_key`` is the body of ``solvlie.strata._sample_key`` verbatim from
then: every sample is filled (``_fill``), reduced (``_skew_reduce``) and
keyed by the key rule of ``layer_descriptor`` (``_layer_key``). The tests
compare the library's ``_sample_key`` with it draw by draw.
"""

from __future__ import annotations

from typing import Sequence

from solvlie.adapted import AdaptableBasis
from solvlie.strata import (FormTable, _case_table, _fill, _layer_key,
                            _skew_reduce)


def sample_key(basis: AdaptableBasis, ambient: str, form: FormTable,
               size: int, xs: Sequence[int]):
    """The layer key (e, j, phi) at the exact point with integer values xs
    on the leading real basis vectors of the ambient (0 past them), phi
    None on a layer that is not keyed: the fill, the reduction and the key
    rule of ``layer_descriptor`` (``_layer_key``), with no Functional, no
    JumpData and no descriptor. form is the basis's form table and size
    the ambient's, which ``generic_layer`` looks up once per call, not per
    sample. The rows hold form.den M as plain or Gaussian integers, and
    ``_skew_reduce`` and the phi replay run fraction-free on them."""
    i_seq, j_seq, steps = _skew_reduce(_fill(form, size, xs, True))
    j_seq = tuple(j_seq)
    table = _case_table(basis, ambient, tuple(i_seq), j_seq)
    return _layer_key(basis, table, j_seq, steps, None)
