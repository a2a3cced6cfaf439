"""End-to-end pipeline: spec file to orbital data to admissibility report.

Everything downstream of validation is derived lazily and cached, so a
caller can ask for just the decision, the verdict or the full report
document (which adds the layer sampling on g*). ``decision`` is the
verdict code from exact data alone: the hypotheses, unimodularity and
z(g) cap h. ``verdict()`` reads its code from there, and adds the layer
data: it samples the n* generic layer, one Sigma-circ point for the
polarization and ``PLANCHEREL_SAMPLES`` Lambda_nu points for the density.
Reports are deterministic functions of (spec, seed); each generic layer
is located from ``strata.TRIALS`` points drawn from the seed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, Optional, Tuple

from . import admissibility as adm
from .adapted import AdaptableBasis, build_adaptable_basis
from .algebra import (HypothesisViolation, LieAlgebraSpec, ValidationReport,
                      require_noncommutative, validate_spec)
from .functionals import Functional, adapted_values
from .gaussian import GaussianRational
from .sections import (SectionOracle, StabilizerData, UnsupportedLayerError,
                       _sample, canonical_h_vectors, sample_sigma_circ,
                       stabilizer_data)
from .strata import TRIALS, LayerDescriptor, generic_layer

SCHEMA = "solvlie-report/1"

# the Plancherel density is reported at this many sampled points of the
# section of Lambda_nu
PLANCHEREL_SAMPLES = 3

CITATIONS = {
    "validation": "standing hypotheses: nilpotent n, abelian h acting "
                  "diagonalizably with no purely imaginary root",
    "layers": "flag/annihilator recursion for the coadjoint form; layers "
              "indexed by jump sets",
    "sections": "orbit cross-sections cut out by vanishing and unit-modulus "
                "conditions over a generic layer",
    "stabilizer": "little group = joint kernel of the weights on the "
                  "off-jump-set coordinates",
    "plancherel": "Plancherel density |Pf| of the skew form on the jump "
                  "coordinates",
    "multiplicity": "orbit count of the little-group action on the "
                    "representation domain: 2^dim(X) or infinite",
    "verdict": "admissible iff nonunimodular and the dilation part meets "
               "the center trivially",
}


class PipelineError(RuntimeError):
    pass


class Workbench:
    def __init__(self, spec: LieAlgebraSpec, seed: int = 42):
        self.spec = spec
        self.seed = seed
        self._cache: Dict[str, object] = {}

    def _get(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    # -- stages ----------------------------------------------------------

    @property
    def validation(self) -> ValidationReport:
        return self._get("validation", lambda: validate_spec(self.spec))

    def require_hypotheses(self):
        rep = self.validation
        if not rep.ok:
            first = rep.failures()[0]
            raise HypothesisViolation(first.code or "INVALID", first.detail or first.name)
        require_noncommutative(self.spec)

    @property
    def basis(self) -> AdaptableBasis:
        def make():
            self.require_hypotheses()
            return build_adaptable_basis(self.spec, hint=self.spec.adaptable_hint)
        return self._get("basis", make)

    @property
    def n_layer(self) -> LayerDescriptor:
        return self._get("n_layer", lambda: generic_layer(
            self.basis, "n", seed=self.seed))

    @property
    def stabilizer(self) -> StabilizerData:
        return self._get("stab", lambda: stabilizer_data(
            self.spec, self.basis, self.n_layer))

    @property
    def canonical_basis(self) -> AdaptableBasis:
        def make():
            hv = canonical_h_vectors(self.spec, self.stabilizer)
            return self.basis.with_h_part(hv)
        return self._get("canonical_basis", make)

    @property
    def g_layer(self) -> LayerDescriptor:
        def make():
            layer = generic_layer(self.canonical_basis, "g", seed=self.seed)
            if tuple(layer.phi) != tuple(self.stabilizer.phi):
                raise PipelineError(
                    f"paired-index mismatch: layer phi {layer.phi} vs "
                    f"stabilizer phi {self.stabilizer.phi}")
            return layer
        return self._get("g_layer", make)

    # -- oracles (built on the canonical basis so the full-section test
    #    can see the normalized dilation directions) -----------------------

    def _oracle(self, kind: str) -> SectionOracle:
        def make():
            stab = self.stabilizer if kind in ("SigmaCirc", "Sigma") else None
            return SectionOracle(kind, self.canonical_basis, self.n_layer, stab)
        return self._get(f"oracle {kind}", make)

    @property
    def oracle_lambda(self) -> SectionOracle:
        return self._oracle("Lambda")

    @property
    def oracle_lambda_nu(self) -> SectionOracle:
        return self._oracle("LambdaNu")

    # phi here comes from the stabilizer pairing; computing the g* layer
    # cross-checks it (see g_layer), and the report always runs both.
    @property
    def oracle_sigma_circ(self) -> SectionOracle:
        return self._oracle("SigmaCirc")

    @property
    def oracle_sigma(self) -> SectionOracle:
        return self._oracle("Sigma")

    # -- admissibility ingredients ----------------------------------------

    @property
    def center(self) -> adm.CenterData:
        return self._get("center", lambda: adm.center_data(self.spec))

    @property
    def unimodular(self) -> Tuple[bool, dict]:
        return self._get("unimod", lambda: adm.unimodularity(self.spec))

    @property
    def polarization(self) -> Optional[adm.PolarizationData]:
        def make():
            try:
                rng = random.Random(self.seed + 17)
                lam = sample_sigma_circ(self.oracle_sigma_circ, rng)
                return adm.polarization_data(lam, self.canonical_basis)
            except UnsupportedLayerError:
                return None
        return self._get("polarization", make)

    @property
    def multiplicity(self):
        def make():
            if self.stabilizer.k_dim == 0:
                return adm.INFINITE
            pol = self.polarization
            if pol is None:
                return None
            return adm.multiplicity(self.canonical_basis, self.stabilizer, pol)
        return self._get("multiplicity", make)

    @property
    def decision(self) -> str:
        """The verdict code of the paper's theorem, from the structure
        constants alone: the hypotheses, then unimodularity, then dim z(g)
        cap h (``adm.verdict_from_parts``). It builds no basis and draws
        no sample."""
        def make():
            self.require_hypotheses()
            return adm.verdict_from_parts(self.unimodular[0],
                                          self.center.dim_z_cap_h)
        return self._get("decision", make)

    def verdict(self) -> adm.AdmissibilityReport:
        def make():
            code = self.decision
            uni, table = self.unimodular
            dim_zh = self.center.dim_z_cap_h
            mult = self.multiplicity
            pol = self.polarization
            note = None
            if code == adm.VERDICT_UNIMODULAR and mult not in (None, adm.INFINITE):
                note = ("INFINITE_MASS: finite multiplicity on a spectrum of "
                        "infinite Plancherel mass; the admissibility integral "
                        "diverges")
            spectrum = {
                "support": "section of the dilation orbits x dual of the "
                           "little group",
                "sigma_circ": self.oracle_sigma_circ.as_dict(),
                "k_star_dim": self.stabilizer.k_dim,
            }
            return adm.AdmissibilityReport(
                verdict=code, unimodular=uni, trace_table=table,
                dim_z_cap_h=dim_zh, k_dim=self.stabilizer.k_dim,
                multiplicity=mult, dim_x=None if pol is None else pol.dim_x,
                spectrum=spectrum, plancherel=self.plancherel_samples(),
                divergence_note=note, reason=adm.REASONS[code])
        return self._get("verdict", make)

    # -- density samples ----------------------------------------------------

    def plancherel_samples(self) -> dict:
        def one(f: Functional, jd):
            # jd is the n* reduction that put f in Lambda_nu: it pairs
            # exactly e, and its Pfaffian is Pf(f); the values on nu are
            # read in one pass
            pf = jd.pfaffian()
            nu = self.stabilizer.nu
            values = adapted_values(f, [f.basis.terms[j - 1] for j in nu])
            return {
                "point": {f"Z{j}": str(GaussianRational.coerce(v))
                          for j, v in zip(nu, values)},
                "pf_abs2": str(pf.abs2()),
            }
        rng = random.Random(self.seed + 5)
        samples = []
        try:
            oracle = self.oracle_lambda_nu
            for _ in range(PLANCHEREL_SAMPLES):
                samples.append(one(*_sample(oracle, rng, oracle._member)))
        except UnsupportedLayerError:
            return {"density": "|Pf| d(section) d(little-group dual)",
                    "samples": None,
                    "note": "sampling unsupported on this layer"}
        return {"density": "|Pf| d(section) d(little-group dual)",
                "samples": samples}

    def project(self, f: Functional):
        """Dilation parameters and landing point of f on the orbit section."""
        from .sections import h_project
        return h_project(f, self.stabilizer, self.oracle_lambda_nu)

    def disintegration(self) -> Fraction:
        """The exact constant |det W| of the Plancherel disintegration
        (``admissibility.disintegration_check``)."""
        return adm.disintegration_check(self.canonical_basis, self.n_layer,
                                        self.stabilizer)

    # -- the report document -------------------------------------------------

    def report(self) -> dict:
        self.require_hypotheses()
        ver = self.verdict()
        doc = {
            "schema": SCHEMA,
            "name": self.spec.name,
            "seed": self.seed,
            "trials": TRIALS,
            "validation": self.validation.as_dict(),
            "basis": {
                "labels": list(self.spec.names),
                "adapted": self.canonical_basis.describe(),
                "weights": [[str(w) for w in row]
                            for row in self.canonical_basis.weights],
            },
            "n_layer": self.n_layer.as_dict(),
            "g_layer": self.g_layer.as_dict(),
            "nu": list(self.stabilizer.nu),
            "stabilizer": self.stabilizer.as_dict(self.spec.h_names),
            "sections": {
                "lambda": self.oracle_lambda.as_dict(),
                "lambda_nu": self.oracle_lambda_nu.as_dict(),
                "sigma_circ": self.oracle_sigma_circ.as_dict(),
                "sigma": self.oracle_sigma.as_dict(),
            },
            "center": self.center.as_dict(self.spec),
            "admissibility": ver.as_dict(),
            "citations": CITATIONS,
        }
        return doc
