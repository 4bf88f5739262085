"""Hierarchical layout database.

Cells hold rectangles on mask layers, named ports, and placed instances
of other cells; the hierarchy is flattened on demand for DRC, rendering,
and CIF export.  Ports are layer-tagged edge rectangles so that the
abutment-based assembly style of BISRAMGEN ("no routing is necessary and
the signals in adjacent modules are perfectly aligned and connected by
abutments") can be checked exactly.
"""

from repro.layout.cell import Cell, CellInstance, InstanceArray, Port
from repro.layout.drc import DrcChecker, DrcViolation
from repro.layout.cif import write_cif
from repro.layout.render import render_svg, render_ascii
from repro.layout.library import CellLibrary

__all__ = [
    "Cell",
    "CellInstance",
    "InstanceArray",
    "Port",
    "DrcChecker",
    "DrcViolation",
    "write_cif",
    "render_svg",
    "render_ascii",
    "CellLibrary",
]
