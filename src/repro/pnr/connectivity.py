"""Net extraction from abutments: one union-find over port contacts.

"The signals in adjacent modules are perfectly aligned and connected by
abutments" — so the electrical nets of an assembled macro are exactly
the connected components of the port-contact relation.  :func:`extract`
is the one definition of a net; every question assembly verification
asks reads from it:

* which instance ports abut (:func:`repro.pnr.abutment.abutting_ports`),
* which instance ports belong to one net (e.g. a bit line spanning
  precharge -> every array row -> column mux),
* whether an expected net is *continuous* (one component, not several
  disconnected islands that merely look aligned),
* what LVS extracts (:func:`repro.verify.lvs.check_connectivity`).

Contacts come from the DRC kernel's banded sweep
(:func:`repro.layout.drc._near_pairs`) at reach 1, per layer, so no
step compares all pairs.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

from repro.geometry import Rect
from repro.layout.cell import Cell
from repro.layout.drc import _DisjointSet, _merged, _near_pairs
from repro.tech.process import Process

#: One endpoint: (instance name, port name).
Endpoint = Tuple[str, str]

#: One abutment: (instance_a, port_a, instance_b, port_b).
Abutment = Tuple[str, str, str, str]


class Netlist(NamedTuple):
    """What :func:`extract` finds in one assembly.

    ``components`` partition the (instance, port) endpoints, singletons
    included, ordered by each one's first endpoint in placement order.
    ``abutments`` are in placement order of their two ports, and
    ``links`` counts the feed-through twin connections.
    """

    abutments: List[Abutment]
    links: int
    components: List[FrozenSet[Endpoint]]


def _through_key(port_name: str) -> str:
    """Normalise facing-edge twin names to their shared net key.

    The leaf/macro port convention names the feed-through twin of a
    port by inserting ``t`` (top) or ``r`` (right): ``bl``/``bl_t``,
    ``wl``/``wl_r``, ``bl_3``/``bl_t_3``.  Twins are internally
    connected (the signal runs straight through the cell), so they
    collapse to one key here.
    """
    parts = [p for p in port_name.split("_") if p not in ("t", "r")]
    return "_".join(parts)


def extract(parent: Cell, process: Optional[Process] = None) -> Netlist:
    """The nets among the direct children of ``parent``.

    Three relations join (instance, port) endpoints:

    * feed-through twins of one instance (a bit line entering an array
      at the bottom exits at the top);
    * abutment: same-layer port rectangles of two differently labelled
      instances that coincide or touch (zero-thickness edge ports meet
      exactly on abutting edges);
    * shapes drawn at the parent level, which join each other and the
      port landings they touch under the deck's ``touch.corner`` rule
      (see :func:`~repro.layout.drc._merged`; any contact without a
      ``process``) — the path by which a stray routing shape shorts
      two nets.
    """
    corner_touch = process is None or process.rules.corner_touch_connects()
    placed: List[Tuple[Endpoint, str, Rect]] = [
        ((inst.name or inst.cell.name, port.name), port.layer, port.rect)
        for inst in parent.instances() for port in inst.ports()
    ]
    n = len(placed)
    drawn = [(layer, r) for layer, r in parent.shapes() if r.area > 0]
    ds = _DisjointSet(n + len(drawn))
    first: Dict[Endpoint, int] = {}
    twin: Dict[Tuple[str, str], int] = {}
    links = 0
    by_layer: Dict[str, List[int]] = {}
    for i, (endpoint, layer, _) in enumerate(placed):
        by_layer.setdefault(layer, []).append(i)
        if first.setdefault(endpoint, i) != i:
            ds.union(first[endpoint], i)
            continue
        key = (endpoint[0], _through_key(endpoint[1]))
        if twin.setdefault(key, i) != i:
            ds.union(twin[key], i)
            links += 1
    rects = [r for _, _, r in placed] + [r for _, r in drawn]
    for k, (layer, _) in enumerate(drawn):
        if layer in by_layer:
            by_layer[layer].append(n + k)

    abutting: List[Tuple[int, int]] = []
    for items in by_layer.values():
        for a, b, _, _ in _near_pairs([rects[i] for i in items], 1):
            i, j = sorted((items[a], items[b]))
            if j < n:
                if placed[i][0][0] != placed[j][0][0]:
                    abutting.append((i, j))
                    ds.union(i, j)
            elif _merged(rects[i], rects[j], corner_touch):
                ds.union(i, j)
    abutting.sort()

    groups: Dict[int, List[Endpoint]] = {}
    for endpoint, i in first.items():
        groups.setdefault(ds.find(i), []).append(endpoint)
    return Netlist(
        abutments=[placed[i][0] + placed[j][0] for i, j in abutting],
        links=links,
        components=[frozenset(g) for g in groups.values()],
    )


def extract_nets(parent: Cell, process: Optional[Process] = None,
                 min_size: int = 2) -> List[FrozenSet[Endpoint]]:
    """Components of :func:`extract` with at least ``min_size`` endpoints.

    Smaller components are unconnected ports, reported by
    :func:`dangling_ports` instead.
    """
    return [c for c in extract(parent, process).components
            if len(c) >= min_size]


def dangling_ports(parent: Cell,
                   ignore: Sequence[str] = ()) -> List[Endpoint]:
    """Ports with no abutment partner (candidates for routing).

    ``ignore`` filters port-name prefixes that legitimately terminate
    at the macro boundary (external pins).
    """
    return sorted(
        endpoint
        for net in extract(parent).components if len(net) == 1
        for endpoint in net
        if not any(endpoint[1].startswith(p) for p in ignore)
    )


def net_spans_instances(parent: Cell, instance_names: Sequence[str],
                        port_prefix: str) -> bool:
    """Is there one net touching all the named instances through ports
    with the given prefix?

    The assembly check for a bit line: a single electrical net must
    span precharge row, array, and mux row.
    """
    wanted = set(instance_names)
    for net in extract_nets(parent):
        touched = {
            inst for inst, port in net if port.startswith(port_prefix)
        }
        if wanted <= touched:
            return True
    return False


def net_statistics(parent: Cell) -> Dict[str, int]:
    """Summary counts for reports: nets, endpoints, dangling ports.

    ``abutments`` counts the contacts: abutting port pairs plus
    feed-through links.
    """
    netlist = extract(parent)
    sizes = [len(c) for c in netlist.components]
    return {
        "endpoints": sum(sizes),
        "abutments": len(netlist.abutments) + netlist.links,
        "nets": sum(1 for n in sizes if n >= 2),
        "dangling": sum(1 for n in sizes if n == 1),
    }
