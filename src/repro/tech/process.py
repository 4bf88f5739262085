"""The resolved process: what every generator and model consumes.

A :class:`Process` bundles a layer set, a resolved design-rule deck,
SPICE device parameters, supply voltage, and wire parasitics —
everything a leaf-cell generator or the delay models need.  Processes
are not defined here: every deck is a descriptor file that the
technology registry (:mod:`repro.techreg`) validates and resolves.
The paper's four decks ship as packaged files:

* ``cda05`` — stands in for Cascade Design Automation ``CDA.5u3m1p``
  (0.5 um, 3 metal, 1 poly),
* ``mos06`` — stands in for MOSIS ``mos.6u3m1pHP`` (0.6 um HP),
* ``cda07`` — stands in for ``CDA.7u3m1p`` (0.7 um), the process used
  for Table I and the 1.2 ns TLB delay quote,
* ``mos08`` — the 0.8 um node most of the Table II dataset used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.tech.layers import LayerSet
from repro.tech.rules import DesignRules
from repro.tech.spice_params import MosParams


@dataclass(frozen=True)
class Process:
    """A complete process description, resolved from one deck's
    descriptor by :func:`repro.techreg.registry.resolve_process`.

    Attributes:
        name: deck name (``cda05``, ``scn4m``, ...), the value
            ``--process`` takes.
        description: human-readable note, including which proprietary
            process the deck stands in for.
        feature_um: drawn feature size in microns.
        metal_layers: number of routing metals (3 for the paper's
            decks, never fewer; the cost model refuses 2-metal chips
            exactly as the paper does).
        vdd: supply voltage in volts (5 V for the paper's decks).
        layers: the mask layer set.
        rules: resolved design rules in centimicrons.
        nmos / pmos: level-1 device parameters.
        wire_r_ohm_sq: sheet resistance of metal1, ohms/square.
        wire_c_af_um: metal1 wire capacitance, attofarads per micron.
    """

    name: str
    description: str
    feature_um: float
    metal_layers: int
    vdd: float
    layers: LayerSet
    rules: DesignRules
    nmos: MosParams
    pmos: MosParams
    wire_r_ohm_sq: float
    wire_c_af_um: float

    @property
    def lambda_cu(self) -> int:
        return self.rules.lambda_cu

    def um_to_cu(self, um: float) -> int:
        """Convert microns to integer centimicrons."""
        return int(round(um * 100))

    def cu_to_um(self, cu: int) -> float:
        """Convert centimicrons back to microns."""
        return cu / 100.0

    def fingerprint(self, chars: int = 16) -> str:
        """Content hash of the *resolved* deck: everything that can
        change generated geometry or the guarantee models.

        Deliberately excludes the name, description, and provenance
        (packaged file, search directory, or entry point): a
        byte-identical copy of a deck found through another source must
        fingerprint equal, so cached artifacts survive moving a deck.
        Any rule, layer, device, or supply edit changes the
        fingerprint — this is the value
        :meth:`repro.core.config.RamConfig.digest`, the artifact store's
        bundle key, and campaign journal fingerprints fold in.
        """
        import dataclasses

        from repro.core.canonical import stable_digest

        payload = {
            "feature_um": self.feature_um,
            "metal_layers": self.metal_layers,
            "vdd": self.vdd,
            "lambda_cu": self.rules.lambda_cu,
            "rules": dict(self.rules.rules),
            "layers": [
                [l.name, l.cif_name, l.gds_number, l.conductor,
                 l.routing_level]
                for l in self.layers
            ],
            "nmos": dataclasses.asdict(self.nmos),
            "pmos": dataclasses.asdict(self.pmos),
            "wire_r_ohm_sq": self.wire_r_ohm_sq,
            "wire_c_af_um": self.wire_c_af_um,
        }
        return stable_digest(payload, chars)


#: The paper's decks, shipped as packaged descriptor files
#: (``repro/techreg/decks/*.json``).
_PAPER_DECKS = ("cda05", "cda07", "mos06", "mos08")


def available_processes() -> Tuple[str, ...]:
    """Names of the paper's decks, sorted; the registry holds more."""
    return _PAPER_DECKS


def get_process(name: str) -> Process:
    """Look a deck up by name in the default technology registry.

    Packaged decks are the lowest-precedence source: a deck of the
    same name in a ``repro.techs`` entry point or a search directory
    (``REPRO_TECH_DIR``, ``--tech-dir``) shadows them.  A warm lookup
    is a dict hit plus one ``stat`` of the deck's file.

    Raises:
        UnknownProcessError: (a :class:`~repro.core.errors.ConfigError`
            *and* a ``KeyError``) when the name resolves nowhere; the
            message lists every available deck.
    """
    from repro.techreg.registry import default_registry

    return default_registry().resolve(name)
