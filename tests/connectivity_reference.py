"""Reference net extraction: pairwise contacts and a breadth-first search.

The straightforward all-pairs version of
:func:`repro.pnr.connectivity.extract`, kept outside the package as the
slow oracle the sweep must agree with exactly
(``test_connectivity_agreement.py``): the same abutments in the same
order, and the same components in the same order.

* :func:`abutting_ports` compares every pair of placed ports.
* :func:`components` builds an adjacency list over (instance, port)
  endpoints plus one node per parent-level drawn shape, joining
  feed-through twins, abutting ports, touching shapes, and each landing
  with *every* drawn shape it touches.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.layout.cell import Cell
from repro.layout.drc import _merged
from repro.pnr.connectivity import Netlist, _through_key
from repro.tech.process import Process

Endpoint = Tuple[str, str]


def _placed(parent: Cell) -> List[Tuple[str, object]]:
    return [(inst.name or inst.cell.name, port)
            for inst in parent.instances() for port in inst.ports()]


def abutting_ports(parent: Cell) -> List[Tuple[str, str, str, str]]:
    """Every pair of same-layer, intersecting ports of two instances."""
    placed = _placed(parent)
    found = []
    for i, (name_a, port_a) in enumerate(placed):
        for name_b, port_b in placed[i + 1:]:
            if name_a == name_b:
                continue
            if port_a.layer != port_b.layer:
                continue
            if port_a.rect.intersects(port_b.rect):
                found.append((name_a, port_a.name, name_b, port_b.name))
    return found


def components(parent: Cell, process: Optional[Process] = None,
               ) -> List[FrozenSet[Endpoint]]:
    """Connected components over endpoints, in first-endpoint order."""
    corner_touch = process is None or process.rules.corner_touch_connects()
    placed = _placed(parent)
    adjacent: Dict[object, List[object]] = {}
    for label, port in placed:
        adjacent.setdefault((label, port.name), [])

    def join(a: object, b: object) -> None:
        adjacent[a].append(b)
        adjacent[b].append(a)

    twins: Dict[Tuple[str, str], List[Endpoint]] = {}
    for endpoint in adjacent:
        twins.setdefault(
            (endpoint[0], _through_key(endpoint[1])), []).append(endpoint)
    for members in twins.values():
        for a, b in zip(members, members[1:]):
            join(a, b)
    for name_a, port_a, name_b, port_b in abutting_ports(parent):
        join((name_a, port_a), (name_b, port_b))

    drawn = [(layer, rect) for layer, rect in parent.shapes()
             if rect.area > 0]
    for k, (layer, rect) in enumerate(drawn):
        adjacent[("<drawn>", k)] = []
        for m in range(k):
            if drawn[m][0] == layer and _merged(rect, drawn[m][1],
                                                corner_touch):
                join(("<drawn>", k), ("<drawn>", m))
        for label, port in placed:
            if port.layer == layer and _merged(rect, port.rect,
                                               corner_touch):
                join(("<drawn>", k), (label, port.name))

    seen = set()
    out = []
    for start in list(adjacent):
        if start in seen:
            continue
        seen.add(start)
        queue = deque([start])
        members = []
        while queue:
            node = queue.popleft()
            if node[0] != "<drawn>":
                members.append(node)
            for nxt in adjacent[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        if members:
            out.append(frozenset(members))
    return out


def extract(parent: Cell, process: Optional[Process] = None) -> Netlist:
    """The reference :class:`~repro.pnr.connectivity.Netlist`."""
    endpoints = {(label, port.name): None for label, port in _placed(parent)}
    keys = [(label, _through_key(name)) for label, name in endpoints]
    return Netlist(
        abutments=abutting_ports(parent),
        links=len(keys) - len(set(keys)),
        components=components(parent, process),
    )
