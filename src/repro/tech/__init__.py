"""Technology layer: mask layers, design rules, and resolved processes.

BISRAMGEN is *design-rule independent*: all leaf-cell generators consume a
:class:`~repro.tech.rules.DesignRules` object rather than hard-coded
dimensions, so the same generator code produces legal layout for any
3-metal CMOS process at 0.5 um and above.  The paper exercised the tool
with the Cascade Design Automation processes ``CDA.5u3m1p`` and
``CDA.7u3m1p`` and the MOSIS ``mos.6u3m1pHP`` process; those decks are
proprietary, so the technology registry (:mod:`repro.techreg`) ships
faithful *scalable* equivalents (``cda05``, ``mos06``, ``cda07``,
``mos08``) as packaged descriptor files: rules as multiples of a lambda
grid, plus SPICE level-1 device parameters typical of each node.
"""

from repro.tech.layers import Layer, LayerSet, STANDARD_LAYERS
from repro.tech.rules import DesignRules, RuleViolationError
from repro.tech.process import (
    Process,
    available_processes,
    get_process,
)
from repro.tech.spice_params import MosParams

__all__ = [
    "Layer",
    "LayerSet",
    "STANDARD_LAYERS",
    "DesignRules",
    "RuleViolationError",
    "Process",
    "available_processes",
    "get_process",
    "MosParams",
]
