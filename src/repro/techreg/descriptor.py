"""The technology descriptor: one deck as a declarative document.

A descriptor file (JSON, or TOML on Python 3.11+ where ``tomllib``
exists) carries everything :class:`~repro.tech.process.Process` needs,
in one of two deck styles:

* ``deck_type = "lambda"`` — rules are given *in lambda units* as
  overrides/extensions of the default SCMOS-like table; lambda is
  derived from ``feature_um`` (lambda = feature/2, on the centimicron
  grid).  This is the portable style the paper's processes use.
* ``deck_type = "absolute"`` — rules are the complete resolved table
  in centimicrons, plus an explicit ``lambda_cu`` drawing grid; the
  style for nm-class decks whose rules are not lambda multiples.

Example (TOML)::

    [tech]
    name = "scn4m"
    description = "..."
    deck_type = "lambda"
    feature_um = 0.4
    metal_layers = 4
    vdd = 3.3

    [rules]
    "width.metal4" = 6          # lambda units

    [layers.metal4]
    cif_name = "CMQ"
    gds_number = 13
    conductor = true
    routing_level = 4

    [nmos]
    node_um = 0.4               # or the full explicit parameter set

    [wire]
    r_ohm_sq = 0.06
    c_af_um = 80.0

Loading only parses and shapes the data; the strict semantic checks
live in :mod:`repro.techreg.validate`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Mapping, Tuple

from repro.core.errors import DescriptorError
from repro.tech.layers import Layer

#: Descriptor file suffixes the registry scans for.
DESCRIPTOR_SUFFIXES = (".toml", ".json")

#: Keys allowed in the ``[tech]`` table.
_TECH_KEYS = frozenset({
    "name", "description", "deck_type", "feature_um", "metal_layers",
    "vdd", "lambda_cu",
})

#: Top-level tables a descriptor may carry.
_TOP_KEYS = frozenset({
    "tech", "rules", "layers", "nmos", "pmos", "wire", "metadata",
})


@dataclass(frozen=True)
class TechDescriptor:
    """A parsed technology descriptor.

    Attributes:
        name: deck name (the value ``--process`` takes).
        description: human-readable note.
        deck_type: ``"lambda"`` or ``"absolute"``.
        feature_um: drawn feature size in microns.
        metal_layers: routing metal count (>= 3).
        vdd: supply voltage in volts.
        lambda_cu: drawing grid in centimicrons.  Derived as
            ``round(feature_um * 50)`` for lambda decks; required
            explicitly for absolute decks.
        rules: rule table — lambda units for lambda decks (overrides
            and extensions of the default table), centimicrons for
            absolute decks (the complete table).
        extra_layers: mask layers beyond the standard 3-metal set.
        nmos / pmos: device parameter mapping — either
            ``{"node_um": f}`` (derive the representative level-1 set
            for that node) or the full explicit parameter set.
        wire: ``{"r_ohm_sq": ..., "c_af_um": ...}``.
        metadata: free-form provenance notes (never fingerprinted).
        source: where the descriptor came from (file path, entry-point
            name, or ``""`` for in-memory); never fingerprinted.
    """

    name: str
    description: str
    deck_type: str
    feature_um: float
    metal_layers: int
    vdd: float
    lambda_cu: int
    rules: Mapping[str, int]
    extra_layers: Tuple[Layer, ...] = ()
    nmos: Mapping[str, float] = field(default_factory=dict)
    pmos: Mapping[str, float] = field(default_factory=dict)
    wire: Mapping[str, float] = field(default_factory=dict)
    metadata: Mapping[str, object] = field(default_factory=dict)
    source: str = ""

    @classmethod
    def from_dict(cls, data: Mapping, source: str = "") -> "TechDescriptor":
        """Shape a parsed document into a descriptor.

        Raises:
            DescriptorError: on structural problems that prevent even
                constructing the descriptor (missing ``[tech]`` table,
                unknown top-level tables, malformed layer entries).
                Field-level semantic problems are left to
                :func:`repro.techreg.validate.validate_descriptor`.
        """
        if not isinstance(data, Mapping):
            raise DescriptorError(
                f"descriptor must be a table/object, got "
                f"{type(data).__name__}", path=source)
        unknown = set(data) - _TOP_KEYS
        if unknown:
            raise DescriptorError(
                f"unknown descriptor table(s): {sorted(unknown)}; "
                f"expected a subset of {sorted(_TOP_KEYS)}", path=source)
        tech = data.get("tech")
        if not isinstance(tech, Mapping):
            raise DescriptorError(
                "descriptor needs a [tech] table", path=source)
        unknown = set(tech) - _TECH_KEYS
        if unknown:
            raise DescriptorError(
                f"unknown [tech] key(s): {sorted(unknown)}", path=source)

        deck_type = str(tech.get("deck_type", ""))
        feature_um = _number(tech.get("feature_um", 0.0))
        if "lambda_cu" in tech:
            lambda_cu = int(tech["lambda_cu"])
        elif deck_type == "lambda":
            lambda_cu = int(round(feature_um * 50))
        else:
            lambda_cu = 0

        layers = []
        for lname, spec in dict(data.get("layers", {})).items():
            if not isinstance(spec, Mapping):
                raise DescriptorError(
                    f"layer {lname!r} must be a table", path=source)
            try:
                layers.append(Layer(
                    name=str(lname),
                    cif_name=str(spec["cif_name"]),
                    gds_number=int(spec["gds_number"]),
                    conductor=bool(spec.get("conductor", False)),
                    routing_level=int(spec.get("routing_level", 0)),
                    color=str(spec.get("color", "#888888")),
                ))
            except KeyError as error:
                raise DescriptorError(
                    f"layer {lname!r} is missing key {error}",
                    path=source) from None

        rules: Dict[str, int] = {}
        for rname, value in dict(data.get("rules", {})).items():
            try:
                rules[str(rname)] = int(value)
            except (TypeError, ValueError):
                raise DescriptorError(
                    f"rule {rname!r} must be an integer, got {value!r}",
                    path=source) from None

        return cls(
            name=str(tech.get("name", "")),
            description=str(tech.get("description", "")),
            deck_type=deck_type,
            feature_um=feature_um,
            metal_layers=int(tech.get("metal_layers", 0)),
            vdd=_number(tech.get("vdd", 0.0)),
            lambda_cu=lambda_cu,
            rules=rules,
            extra_layers=tuple(layers),
            nmos=dict(data.get("nmos", {})),
            pmos=dict(data.get("pmos", {})),
            wire=dict(data.get("wire", {})),
            metadata=dict(data.get("metadata", {})),
            source=source,
        )


def _number(value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        return 0.0


def load_descriptor(path) -> TechDescriptor:
    """Parse one descriptor file (TOML or JSON) into a descriptor.

    Raises:
        DescriptorError: on unreadable files, parse errors, or
            structural problems.  Semantic validation is separate
            (:func:`repro.techreg.validate.check_descriptor`).
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as error:
        raise DescriptorError(
            f"cannot read descriptor {path}: {error}",
            path=str(path)) from None
    suffix = path.suffix.lower()
    if suffix == ".toml":
        try:
            import tomllib
        except ImportError:
            raise DescriptorError(
                f"descriptor {path} is TOML, which needs Python 3.11+ "
                f"(tomllib); write the deck as .json to load it here",
                path=str(path)) from None
        try:
            data = tomllib.loads(raw.decode("utf-8"))
        except (tomllib.TOMLDecodeError, UnicodeDecodeError) as error:
            raise DescriptorError(
                f"descriptor {path} is not valid TOML: {error}",
                path=str(path)) from None
    elif suffix == ".json":
        try:
            data = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise DescriptorError(
                f"descriptor {path} is not valid JSON: {error}",
                path=str(path)) from None
    else:
        raise DescriptorError(
            f"descriptor {path} has unsupported suffix {suffix!r}; "
            f"expected one of {DESCRIPTOR_SUFFIXES}", path=str(path))
    return TechDescriptor.from_dict(data, source=str(path))
