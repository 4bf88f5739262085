"""Technology-backend registry: rule decks as data, not code.

The paper's premise is design-rule independence — "a range of 3-metal
processes ... may be chosen by the user" — and this package makes the
choice *pluggable*.  Every technology, the paper's own included, is a
:class:`~repro.techreg.descriptor.TechDescriptor` file (JSON, or TOML
on Python 3.11+: lambda or absolute rule deck, layer map, MOS
parameters, supply and wire parasitics, metadata), checked by a strict
validator (:mod:`repro.techreg.validate`), and resolved into a
:class:`~repro.tech.process.Process`.

Decks are discovered from three sources, later overriding earlier:

1. descriptor files packaged under ``repro/techreg/decks/``: the
   paper's ``cda05``/``mos06``/``cda07``/``mos08`` plus ``scn4m`` and
   ``pfin7``, all JSON so that every packaged deck loads on every
   supported Python,
2. ``repro.techs`` entry points exported by installed packages, each
   naming a descriptor file,
3. search directories — the ``REPRO_TECH_DIR`` environment variable
   (``os.pathsep``-separated), then any ``--tech-dir`` passed on the
   command line.

Every resolved deck has a content-hash *fingerprint*
(:meth:`repro.tech.process.Process.fingerprint`) folded into
``RamConfig.digest``, the artifact-store bundle key, and campaign
journal fingerprints: editing a deck file changes every cache key
derived from it, so no stale artifact is ever served across a deck
edit.
"""

from repro.techreg.descriptor import TechDescriptor, load_descriptor
from repro.techreg.registry import (
    TechRegistry,
    default_registry,
    resolve_process,
)
from repro.techreg.validate import (
    FieldError,
    check_descriptor,
    validate_descriptor,
)

__all__ = [
    "TechDescriptor",
    "load_descriptor",
    "TechRegistry",
    "default_registry",
    "resolve_process",
    "FieldError",
    "check_descriptor",
    "validate_descriptor",
]
