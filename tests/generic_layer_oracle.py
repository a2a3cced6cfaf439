"""The per-sample generic layer, kept as a test oracle.

This is ``solvlie.strata.generic_layer`` as it was before it keyed each
sample with ``strata._sample_key``: every sample is drawn by
``sample_functional`` through ``rng.randint``, becomes a ``Functional``,
and gets a full ``layer_descriptor``, only to call ``.key()`` on it; an
unsupported sample runs ``jump_data`` a second time for its (e, j). Both
functions are kept verbatim, apart from the sample size: like the
library, ``generic_layer`` draws ``strata.TRIALS`` points, so that the two
describe the same sample. ``layer_descriptor`` and ``jump_data`` are
looked up in this module, so a test can swap them here for an oracle of
its own without touching the library. The tests compare the library's
``generic_layer`` with this one on the corpus and on generated specs.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Tuple

from solvlie.adapted import AdaptableBasis
from solvlie.functionals import Functional
from solvlie.strata import (TRIALS, InconsistentSamplingError,
                            LayerDescriptor, LayerMismatchError,
                            UnsupportedCaseError, jump_data, layer_descriptor)


@lru_cache(maxsize=256)
def _integer(v: int) -> Fraction:
    """Fraction(v), one shared object per integer drawn by the samplers."""
    return Fraction(v)


def sample_functional(basis: AdaptableBasis, rng: random.Random,
                      bound: int = 9, support: str = "g") -> Functional:
    """Random exact functional with integer coordinates in [-bound, bound]."""
    drawn = basis.n if support == "n" else basis.dim
    vals = [_integer(rng.randint(-bound, bound)) for _ in range(drawn)]
    vals += [_integer(0)] * (basis.dim - drawn)
    return Functional(basis, vals, exact=True)


def generic_layer(basis: AdaptableBasis, ambient: str = "g",
                  seed: int = 42) -> LayerDescriptor:
    """Layer of a Zariski-dense set, found by exact evaluation at TRIALS
    random integer points with coordinates in [-9, 9]. The winner has maximal
    card(e); ties break toward the lexicographically smallest (e, j).
    Raises InconsistentSamplingError unless more than half of the samples
    agree with the winner (exactly half is not enough), or when no sample
    gives a usable layer.

    A sample on a layer that ``section_vectors`` has no case for
    (UnsupportedCaseError) is skipped like a mismatch when its (e, j), read
    off ``jump_data``, sorts after the winner: it lies on a lower layer.
    When its key sorts at or before the winner, or no sample is usable, the
    first such error is raised again: the generic layer may be one the
    tool cannot describe.
    """
    rng = random.Random(seed)
    support = "n" if ambient == "n" else "g"
    # samples per key, and the first descriptor of each: every descriptor
    # field is a function of the key
    counts: Dict[tuple, int] = {}
    first: Dict[tuple, LayerDescriptor] = {}
    unsupported: List[Tuple[tuple, UnsupportedCaseError]] = []
    for _ in range(TRIALS):
        f = sample_functional(basis, rng, support=support)
        if f.is_zero():
            continue
        try:
            desc = layer_descriptor(f, basis, ambient)
        except LayerMismatchError:
            continue
        except UnsupportedCaseError as err:
            unsupported.append((jump_data(f, basis, ambient).key(), err))
            continue
        key = desc.key()
        counts[key] = counts.get(key, 0) + 1
        first.setdefault(key, desc)

    def order(key):
        return (-len(key[0]), key[0], key[1])

    if not counts:
        if unsupported:
            raise unsupported[0][1]
        raise InconsistentSamplingError("no sample produced a usable layer")
    best_key = min(counts, key=order)
    for key, err in unsupported:
        if order(key) <= order(best_key):
            raise err
    count = counts[best_key]
    agreement = count / TRIALS
    if agreement <= 0.5:
        raise InconsistentSamplingError(
            f"winning layer holds only {count}/{TRIALS} samples; more than "
            f"half of the samples must agree with it")
    # the one descriptor returned, with copies, so that it shares no
    # mapping with the memo
    desc = first[best_key]
    return replace(desc, primes=dict(desc.primes),
                   case_sets=dict(desc.case_sets), consistency=agreement)
