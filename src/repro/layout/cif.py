"""CIF (Caltech Intermediate Form) export.

CIF is the interchange format of the era: a plain-text hierarchical
format that the original BISRAMGEN (built on 1990s university CAD
infrastructure) would have produced for MOSIS submission.  We emit
standard CIF 2.0: ``DS``/``DF`` definitions, ``C`` calls with
rotate/mirror/translate, ``L`` layer selection, and ``B`` boxes.

CIF expresses boxes by center and size and its native unit is the
centimicron, which is exactly our database unit, so the export is
loss-free.
"""

from __future__ import annotations

from typing import Dict, List, TextIO

from repro.geometry import Point, Rect, Transform
from repro.geometry.transform import Orientation
from repro.layout.cell import Cell
from repro.tech.layers import LayerSet

#: CIF `C` call transform fragments per orientation.  CIF applies
#: transforms left to right; our MX (flip y) is "M Y" in CIF-speak.
#: The combined orientations MX90/MY90 are rotate-then-mirror in this
#: library's matrix convention, so the rotation fragment comes first.
_ORIENT_CIF = {
    Orientation.R0: "",
    Orientation.R90: " R 0 1",
    Orientation.R180: " R -1 0",
    Orientation.R270: " R 0 -1",
    Orientation.MX: " M Y",
    Orientation.MX90: " R 0 1 M Y",
    Orientation.MY: " M X",
    Orientation.MY90: " R 0 1 M X",
}


def write_cif(cell: Cell, stream: TextIO, layers: LayerSet) -> None:
    """Write ``cell`` and its whole hierarchy as CIF 2.0 text.

    Cells are numbered depth-first with children before parents, as CIF
    requires definitions before calls.
    """
    ordered: List[Cell] = []
    seen: Dict[str, int] = {}

    def visit(c: Cell) -> None:
        if c.name in seen:
            return
        for inst in c.instances():
            visit(inst.cell)
        seen[c.name] = len(ordered) + 1
        ordered.append(c)

    visit(cell)

    stream.write(f"( CIF for {cell.name}, database unit = 1 centimicron );\n")
    cif_names: Dict[str, str] = {}
    for c in ordered:
        number = seen[c.name]
        stream.write(f"DS {number} 1 1;\n")
        stream.write(f"9 {c.name};\n")
        lines = []
        current_layer = None
        for layer_name, (x1, y1, x2, y2) in c.shapes():
            w, h = x2 - x1, y2 - y1
            if not (w and h):
                continue
            cif_layer = cif_names.get(layer_name)
            if cif_layer is None:
                layer = layers.get(layer_name)
                cif_layer = cif_names[layer_name] = (
                    layer.cif_name if layer else layer_name.upper())
            if cif_layer != current_layer:
                lines.append(f"L {cif_layer};\n")
                current_layer = cif_layer
            # CIF boxes take center coordinates; keep everything integral
            # by writing doubled database units when the center is not on
            # the grid (CIF allows any unit scaling via the DS header, but
            # doubling centers is the conventional trick).
            lines.append(f"B {w * 2} {h * 2} {x1 + x2} {y1 + y2};\n")
        stream.write("".join(lines))
        for inst in c.instances():
            child_no = seen[inst.cell.name]
            t = inst.transform
            frag = _ORIENT_CIF[t.orientation]
            stream.write(
                f"C {child_no}{frag} T {t.translation.x} {t.translation.y};\n"
            )
        stream.write("DF;\n")
    stream.write(f"C {seen[cell.name]};\n")
    stream.write("E\n")


#: Reverse of :data:`_ORIENT_CIF`, keyed by normalized fragment tokens.
_CIF_ORIENT = {
    tuple(frag.split()): orient for orient, frag in _ORIENT_CIF.items()
}


def read_cif(stream: TextIO, layers: LayerSet) -> Cell:
    """Read the CIF subset :func:`write_cif` emits back into a hierarchy.

    Understands ``DS``/``DF`` definitions with the ``9 name;`` name
    extension, ``L`` layer selection (CIF layer names are mapped back
    through ``layers``), doubled-unit ``B`` boxes, and ``C`` calls with
    the rotate/mirror/translate fragments the writer produces.  Ports
    do not survive the trip — CIF has no port concept — so a read-back
    cell supports geometric checks (DRC) but not connectivity
    extraction.

    Returns the top cell: the target of the file-level ``C`` call, or
    the last definition when there is none.
    """
    by_cif: Dict[str, str] = {
        layer.cif_name: layer.name for layer in layers
    }
    text = stream.read()
    # Strip comments: parenthesized runs outside definitions.
    cleaned = []
    depth = 0
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        elif depth == 0:
            cleaned.append(ch)
    commands = [c.split() for c in "".join(cleaned).split(";")]

    cells: Dict[int, Cell] = {}
    current: Cell = None
    current_no = 0
    pending_boxes: List = []
    pending_calls: List = []
    layer_name = ""
    top: Cell = None

    def finish() -> None:
        nonlocal current, pending_boxes, pending_calls
        if current is None:
            return
        for layer, rect in pending_boxes:
            current.add_shape(layer, rect)
        for child_no, transform in pending_calls:
            if child_no not in cells:
                raise ValueError(
                    f"CIF call to undefined symbol {child_no}")
            current.add_instance(cells[child_no], transform)
        cells[current_no] = current
        current, pending_boxes, pending_calls = None, [], []

    for tokens in commands:
        if not tokens:
            continue
        word = tokens[0]
        if word == "DS":
            finish()
            current_no = int(tokens[1])
            current = Cell(f"cif_{current_no}")
        elif word == "9" and current is not None:
            current = Cell(tokens[1])
        elif word == "L":
            layer_name = by_cif.get(tokens[1], tokens[1].lower())
        elif word == "B":
            w, h, cx, cy = (int(t) for t in tokens[1:5])
            rect = Rect((2 * cx - w) // 4, (2 * cy - h) // 4,
                        (2 * cx + w) // 4, (2 * cy + h) // 4)
            pending_boxes.append((layer_name, rect))
        elif word == "C":
            child_no = int(tokens[1])
            rest = tokens[2:]
            tx = ty = 0
            frag: List[str] = []
            i = 0
            while i < len(rest):
                if rest[i] == "T":
                    tx, ty = int(rest[i + 1]), int(rest[i + 2])
                    i += 3
                elif rest[i] == "R":
                    frag += ["R", rest[i + 1], rest[i + 2]]
                    i += 3
                elif rest[i] == "M":
                    frag += ["M", rest[i + 1]]
                    i += 2
                else:
                    raise ValueError(
                        f"unsupported CIF call fragment {rest[i]!r}")
            orient = _CIF_ORIENT.get(tuple(frag))
            if orient is None:
                raise ValueError(
                    f"unsupported CIF transform {' '.join(frag)!r}")
            transform = Transform(orient, Point(tx, ty))
            if current is None:
                top = cells.get(child_no)  # the file-level top call
                if top is None:
                    raise ValueError(
                        f"top-level call to undefined symbol {child_no}")
            else:
                pending_calls.append((child_no, transform))
        elif word in ("DF", "E"):
            finish()
    finish()
    if top is None and cells:
        top = cells[max(cells)]
    if top is None:
        raise ValueError("CIF stream contains no cell definitions")
    return top
