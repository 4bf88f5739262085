"""Abutment detection.

"During this structured design, no routing is necessary and the
signals in adjacent modules are perfectly aligned and connected by
abutments between macrocells."  :func:`abutting_ports` verifies the
claim on a placed assembly: two instance ports connect by abutment when
their (same-layer) port rectangles coincide or touch in the parent's
coordinates.
"""

from __future__ import annotations

from typing import List

from repro.layout.cell import Cell
from repro.pnr.connectivity import Abutment, extract


def abutting_ports(parent: Cell) -> List[Abutment]:
    """All abutment connections among the direct children of ``parent``.

    Returns tuples (instance_a, port_a, instance_b, port_b) in placement
    order of the two ports.  Ports connect when they share a layer and
    their rectangles intersect (zero-thickness edge ports coincide
    exactly on abutting edges); :func:`repro.pnr.connectivity.extract`
    finds them.
    """
    return extract(parent).abutments


def unconnected_ports(parent: Cell, expected: List[str]) -> List[str]:
    """Which of the expected inter-block signals failed to abut.

    ``expected`` names signals (port names) that must connect by
    abutment somewhere in the assembly; returns those with no abutment.
    """
    connected = set()
    for _, port_a, _, port_b in abutting_ports(parent):
        connected.add(port_a)
        connected.add(port_b)
    return [name for name in expected if name not in connected]
