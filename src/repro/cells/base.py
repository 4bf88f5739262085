"""Shared drawing primitives for leaf-cell generators.

:class:`CellBuilder` wraps a cell under construction with a lambda-grid
coordinate system and correct-by-construction primitives:

* :meth:`rect` — a rectangle given in lambda units,
* :meth:`wire_h` / :meth:`wire_v` — minimum-width (or wider) wires,
* :meth:`contact` / :meth:`via1` / :meth:`via2` — cuts with their
  enclosing landing pads on both connected layers,
* :meth:`mosfet` — a transistor: diffusion strip, poly gate with
  endcaps, optional well,
* :meth:`edge_port` — zero-thickness boundary ports for abutment.

Primitives honour the scalable rule deck, so a generator written once
is legal on every supported process.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from repro.geometry import Rect
from repro.layout.cell import Cell, Port
from repro.tech.process import Process


class CellBuilder:
    """Lambda-grid drawing helper bound to one cell and one process."""

    def __init__(self, name: str, process: Process) -> None:
        self.cell = Cell(name)
        self.process = process
        self.lam = process.rules.lambda_cu

    # -- coordinate helpers -------------------------------------------------

    def l2cu(self, lam_units: float) -> int:
        """Convert lambda units to integer centimicrons.

        Uses half-up rounding (not banker's): half-lambda endpoints are
        common (wire centre +- width/2) and must round consistently so a
        3-lambda-wide wire never loses a centimicron to round-to-even.
        """
        return math.floor(lam_units * self.lam + 0.5)

    def rect(self, layer: str, x1: float, y1: float, x2: float, y2: float
             ) -> Rect:
        """Add a rectangle given in lambda units; returns it in cu."""
        r = Rect(self.l2cu(x1), self.l2cu(y1), self.l2cu(x2), self.l2cu(y2))
        self.cell.add_shape(layer, r)
        return r

    # -- wires ---------------------------------------------------------------

    def wire_h(self, layer: str, x1: float, x2: float, y: float,
               width_lam: Optional[float] = None) -> Rect:
        """Horizontal wire centred on ``y`` (lambda units)."""
        w = self._wire_width(layer, width_lam)
        return self.rect(layer, x1, y - w / 2, x2, y + w / 2)

    def wire_v(self, layer: str, y1: float, y2: float, x: float,
               width_lam: Optional[float] = None) -> Rect:
        """Vertical wire centred on ``x`` (lambda units)."""
        w = self._wire_width(layer, width_lam)
        return self.rect(layer, x - w / 2, y1, x + w / 2, y2)

    def _wire_width(self, layer: str, width_lam: Optional[float]) -> float:
        min_lam = self.process.rules.min_width(layer) / self.lam
        if width_lam is None:
            return min_lam
        if width_lam < min_lam:
            raise ValueError(
                f"wire on {layer} width {width_lam} lambda below minimum "
                f"{min_lam}"
            )
        return width_lam

    # -- cuts -----------------------------------------------------------------

    def contact(self, bottom_layer: str, cx: float, cy: float) -> None:
        """A contact cut landing metal1 on poly or diffusion at (cx, cy)."""
        rules = self.process.rules
        cut = rules.min_width("contact") / self.lam
        m1_enc = rules.enclosure("metal1", "contact") / self.lam
        bot_rule = (
            "enclose.poly_contact" if bottom_layer == "poly"
            else "enclose.diff_contact"
        )
        bot_enc = rules[bot_rule] / self.lam
        half = cut / 2
        self.rect("contact", cx - half, cy - half, cx + half, cy + half)
        m1 = half + m1_enc
        self.rect("metal1", cx - m1, cy - m1, cx + m1, cy + m1)
        b = half + bot_enc
        self.rect(bottom_layer, cx - b, cy - b, cx + b, cy + b)

    def via1(self, cx: float, cy: float) -> None:
        """A via connecting metal1 and metal2 at (cx, cy)."""
        self._via("via1", "metal1", "metal2", cx, cy)

    def via2(self, cx: float, cy: float) -> None:
        """A via connecting metal2 and metal3 at (cx, cy)."""
        self._via("via2", "metal2", "metal3", cx, cy)

    def _via(self, cut_layer: str, lower: str, upper: str,
             cx: float, cy: float) -> None:
        rules = self.process.rules
        cut = rules.min_width(cut_layer) / self.lam
        lo_enc = rules.enclosure(lower, cut_layer) / self.lam
        hi_enc = rules.enclosure(upper, cut_layer) / self.lam
        half = cut / 2
        self.rect(cut_layer, cx - half, cy - half, cx + half, cy + half)
        lo = half + lo_enc
        self.rect(lower, cx - lo, cy - lo, cx + lo, cy + lo)
        # Upper pad must also satisfy the upper layer's min width.
        hi = max(half + hi_enc, rules.min_width(upper) / self.lam / 2)
        self.rect(upper, cx - hi, cy - hi, cx + hi, cy + hi)

    # -- devices -----------------------------------------------------------------

    def mosfet(
        self,
        polarity: str,
        x: float,
        y: float,
        w_lam: float,
        l_lam: Optional[float] = None,
        vertical_gate: bool = True,
    ) -> Tuple[Rect, Rect]:
        """Draw a transistor with its gate centred at ``(x, y)``.

        With a vertical gate, current flows horizontally: the diffusion
        strip is ``2*overhang + L`` wide and ``W`` tall.  Returns the
        (diffusion, poly) rectangles in centimicrons so callers can hook
        wires to the terminals.

        PMOS devices also get an enclosing n-well.
        """
        if polarity not in ("nmos", "pmos"):
            raise ValueError(f"bad polarity {polarity!r}")
        rules = self.process.rules
        l_lam = l_lam if l_lam is not None else rules.min_width("poly") / self.lam
        diff_layer = "ndiff" if polarity == "nmos" else "pdiff"
        over_d = rules["overhang.diff_gate"] / self.lam
        over_p = rules["overhang.gate_poly"] / self.lam
        if vertical_gate:
            diff = self.rect(
                diff_layer,
                x - l_lam / 2 - over_d, y - w_lam / 2,
                x + l_lam / 2 + over_d, y + w_lam / 2,
            )
            poly = self.rect(
                "poly",
                x - l_lam / 2, y - w_lam / 2 - over_p,
                x + l_lam / 2, y + w_lam / 2 + over_p,
            )
        else:
            diff = self.rect(
                diff_layer,
                x - w_lam / 2, y - l_lam / 2 - over_d,
                x + w_lam / 2, y + l_lam / 2 + over_d,
            )
            poly = self.rect(
                "poly",
                x - w_lam / 2 - over_p, y - l_lam / 2,
                x + w_lam / 2 + over_p, y + l_lam / 2,
            )
        if polarity == "pmos":
            enc = rules.enclosure("well", "diff") / self.lam
            self.cell.add_shape(
                "nwell",
                Rect(
                    diff.x1 - self.l2cu(enc),
                    diff.y1 - self.l2cu(enc),
                    diff.x2 + self.l2cu(enc),
                    diff.y2 + self.l2cu(enc),
                ),
            )
        return diff, poly

    # -- ports ------------------------------------------------------------------

    def edge_port(
        self,
        name: str,
        layer: str,
        edge: str,
        along_from: float,
        along_to: float,
        extent: float,
        direction: str = "inout",
    ) -> Port:
        """A zero-thickness port segment on a cell boundary.

        ``edge`` is one of "left", "right", "bottom", "top"; ``extent``
        is the boundary coordinate (x for left/right, y for bottom/top);
        ``along_from``/``along_to`` span the segment along the edge.
        All in lambda units.
        """
        a1, a2 = self.l2cu(along_from), self.l2cu(along_to)
        e = self.l2cu(extent)
        if edge in ("left", "right"):
            rect = Rect(e, min(a1, a2), e, max(a1, a2))
        elif edge in ("bottom", "top"):
            rect = Rect(min(a1, a2), e, max(a1, a2), e)
        else:
            raise ValueError(f"bad edge {edge!r}")
        port = Port(name=name, layer=layer, rect=rect, direction=direction)
        self.cell.add_port(port)
        return port

    def point_port(self, name: str, layer: str, x: float, y: float,
                   direction: str = "inout") -> Port:
        """A point port at interior coordinates (lambda units)."""
        p = self.l2cu(x), self.l2cu(y)
        port = Port(
            name=name, layer=layer,
            rect=Rect(p[0], p[1], p[0], p[1]),
            direction=direction,
        )
        self.cell.add_port(port)
        return port

    def finish(self) -> Cell:
        """Return the built cell."""
        return self.cell
