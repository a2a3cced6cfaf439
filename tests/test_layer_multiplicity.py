"""dim X, x_indices and the multiplicity at many points of the dilation-orbit
section, against the reported ones.

``Workbench.polarization`` reads (dim X, x_indices) off
``polarization_data`` at one point of Sigma-circ, and
``Workbench.multiplicity`` the multiplicity off that; the report rests on
the three being functions of the layer. At 10 more Sigma-circ points per
spec, on the valid corpus entries and on the specs that
``perfbench/specgen.py`` generates for seeds 1-5, ``polarization_data``
must give the reported (dim X, x_indices), and ``multiplicity`` the
reported value. This also runs the closure check and the flag pivots of
``polarization_data`` on many more points than the dense-center cases.
"""

import random

from conftest import VALID_IDS, wb_for
from gen_specs import specgen
from solvlie.admissibility import multiplicity, polarization_data
from solvlie.algebra import spec_from_dict
from solvlie.sections import UnsupportedLayerError, sample_sigma_circ
from solvlie.workbench import Workbench

POINTS = 10
SEEDS = range(1, 6)
# the specs whose Sigma-circ sampler raises UnsupportedLayerError
UNSAMPLABLE = ["coupled-pairs"]


def _workbenches():
    for entry_id in VALID_IDS:
        yield entry_id, wb_for(entry_id)
    for seed in SEEDS:
        for k, (doc, _) in enumerate(specgen.generate(seed)):
            yield f"specgen {seed}/{k}", Workbench(spec_from_dict(doc))


def test_polarization_and_multiplicity_agree_over_sigma_circ():
    unsampled, specs, checked = [], 0, 0
    for name, wb in _workbenches():
        specs += 1
        rng = random.Random(11)
        try:
            points = [sample_sigma_circ(wb.oracle_sigma_circ, rng)
                      for _ in range(POINTS)]
        except UnsupportedLayerError:
            unsampled.append(name)
            continue
        pol, basis = wb.polarization, wb.canonical_basis
        for lam in points:
            got = polarization_data(lam, basis)
            assert (got.dim_x, got.x_indices) == (pol.dim_x, pol.x_indices), \
                name
            assert multiplicity(basis, wb.stabilizer, got) == wb.multiplicity, \
                name
            checked += 1
    assert unsampled == UNSAMPLABLE
    assert checked == POINTS * (specs - len(UNSAMPLABLE))
    print(f"\n{checked} Sigma-circ points on {specs - len(unsampled)} specs; "
          f"{len(unsampled)} unsampled: {', '.join(unsampled)}")
