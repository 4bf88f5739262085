"""Macrocell place-and-route.

BISRAMGEN "sorts the rectangular macrocells in decreasing order of
areas and uses heuristics to make the overall layout 'as rectangular as
possible'", with two named heuristics — port alignment and stretching —
plus channel and over-the-cell (metal-3) routing.  The layout quality
is provably within (1 + epsilon) of optimal area for a fixed small
epsilon independent of memory size; the quality metrics here
(:func:`~repro.pnr.placer.placement_quality`) measure exactly that
ratio so the bench can check it.
"""

from repro.pnr.placer import (
    Block,
    Placement,
    place_decreasing_area,
    placement_quality,
)
from repro.pnr.port_align import align_ports, AlignmentResult
from repro.pnr.stretching import stretch_cell
from repro.pnr.router import ChannelRouter, Net, route_channel
from repro.pnr.abutment import abutting_ports
from repro.pnr.connectivity import (
    Netlist,
    extract,
    extract_nets,
    dangling_ports,
    net_spans_instances,
    net_statistics,
)

__all__ = [
    "Block",
    "Placement",
    "place_decreasing_area",
    "placement_quality",
    "align_ports",
    "AlignmentResult",
    "stretch_cell",
    "ChannelRouter",
    "Net",
    "route_channel",
    "abutting_ports",
    "Netlist",
    "extract",
    "extract_nets",
    "dangling_ports",
    "net_spans_instances",
    "net_statistics",
]
