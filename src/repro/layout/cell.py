"""Cells, instances, and ports — the layout hierarchy.

A :class:`Cell` is a named container of

* *shapes*: rectangles tagged with a layer name,
* *ports*: named, layer-tagged rectangles that form the cell's signal
  interface (usually zero-thickness segments on the cell boundary), and
* *instances*: placements of child cells under a
  :class:`~repro.geometry.transform.Transform`, either one at a time
  or as an :class:`InstanceArray` — a period of placements repeated at
  a fixed step.

The structure mirrors a CIF/GDS hierarchy.  BISRAMGEN builds macrocells
bottom-up by tiling leaf cells ("exploits the array-like regularity in
module functions and interconnections"), so the dominant operations are
:meth:`Cell.add_array` (and its grid form :meth:`Cell.tile`),
:meth:`Cell.add_instance`, and abutment queries on ports.  An array
keeps that regularity visible: :meth:`Cell.instances` still yields
every placement, in order, but hierarchical DRC reads the arrays
themselves (:meth:`Cell.entries`) to find the elements near a region
by index arithmetic and to check each distinct window of a periodic
seam once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple, Union)

from repro.geometry import Point, Rect, Transform, bounding_box
from repro.geometry.transform import Orientation


@dataclass(frozen=True)
class Port:
    """A named signal landing on a cell.

    Attributes:
        name: signal name, unique within the owning cell.
        layer: layer the port metal lives on.
        rect: port geometry in the owning cell's coordinates.  Edge ports
            are zero-thickness rectangles lying exactly on the boundary.
        direction: "in", "out", "inout", or "supply".
    """

    name: str
    layer: str
    rect: Rect
    direction: str = "inout"

    def __post_init__(self) -> None:
        if self.direction not in ("in", "out", "inout", "supply"):
            raise ValueError(f"bad port direction {self.direction!r}")

    def transformed(self, transform: Transform) -> "Port":
        """The port as seen through a placement transform."""
        return replace(self, rect=self.rect.transformed(transform))


@dataclass(frozen=True)
class CellInstance:
    """A placement of a child cell inside a parent."""

    cell: "Cell"
    transform: Transform
    name: str = ""

    def bbox(self) -> Optional[Rect]:
        box = self.cell.bbox()
        if box is None:
            return None
        return box.transformed(self.transform)

    def port(self, name: str) -> Port:
        """A child port mapped into the parent's coordinates."""
        return self.cell.port(name).transformed(self.transform)

    def ports(self) -> Iterator[Port]:
        for p in self.cell.ports():
            yield p.transformed(self.transform)


@dataclass(frozen=True)
class InstanceArray:
    """``count`` placements cycling through ``period``, ``step`` apart.

    Placement ``i`` is ``period[i % p]`` moved by ``(i // p) * step``,
    where ``p = len(period)``; the last repeat may be partial.  Period
    names are templates: placement ``i`` fills the ``{}`` with
    ``first[i % p] + (i // p) * index_step``.
    """

    period: Tuple[CellInstance, ...]
    first: Tuple[int, ...]
    count: int
    step: Point
    index_step: int = 1

    def __post_init__(self) -> None:
        if not self.period or len(self.first) != len(self.period):
            raise ValueError("an array needs a period with one first "
                             "index per placement")
        if self.count <= 0:
            raise ValueError("array count must be positive")

    def placed(self) -> Tuple[CellInstance, ...]:
        """The period placements that occur at least once."""
        return self.period[:self.count]

    def instances(self) -> Iterator[CellInstance]:
        """Every placement, expanded, in order."""
        p = len(self.period)
        for i in range(self.count):
            k, j = divmod(i, p)
            inst = self.period[j]
            t = inst.transform
            yield CellInstance(
                inst.cell,
                Transform(t.orientation,
                          Point(t.translation.x + k * self.step.x,
                                t.translation.y + k * self.step.y)),
                inst.name.format(self.first[j] + k * self.index_step),
            )


#: One entry of a cell's instance list.
Entry = Union[CellInstance, InstanceArray]


class Cell:
    """A layout cell: shapes + ports + child instances."""

    def __init__(self, name: str) -> None:
        if not name:
            raise ValueError("cell name must be non-empty")
        self.name = name
        self._shapes: List[Tuple[str, Rect]] = []
        self._ports: Dict[str, Port] = {}
        #: Instance entries in placement order: single instances and
        #: arrays.  ``_expanded`` caches :meth:`instances` with the entry
        #: count it was built from; every add drops it.
        self._instances: List[Entry] = []
        self._expanded: Optional[Tuple[int, Tuple[CellInstance, ...]]] = None
        self._bbox_cache: Optional[Rect] = None
        self._bbox_dirty = True

    # -- construction ----------------------------------------------------

    def add_shape(self, layer: str, rect: Rect) -> None:
        """Add one rectangle on ``layer``."""
        self._shapes.append((layer, rect))
        self._bbox_dirty = True

    def add_shapes(self, shapes: Iterable[Tuple[str, Rect]]) -> None:
        """Add ``(layer, rect)`` pairs in order."""
        self._shapes.extend(shapes)
        self._bbox_dirty = True

    def add_port(self, port: Port) -> None:
        """Register a port; names must be unique within the cell."""
        if port.name in self._ports:
            raise ValueError(f"duplicate port {port.name!r} in cell {self.name!r}")
        self._ports[port.name] = port

    def add_instance(
        self,
        cell: "Cell",
        transform: Transform = Transform(),
        name: str = "",
    ) -> CellInstance:
        """Place ``cell`` under ``transform`` and return the instance."""
        inst = CellInstance(cell=cell, transform=transform, name=name)
        self._instances.append(inst)
        self._expanded = None
        self._bbox_dirty = True
        return inst

    def add_array(
        self,
        period: Sequence[Tuple["Cell", Transform, str, int]],
        count: int,
        step: Point,
        index_step: int = 1,
    ) -> InstanceArray:
        """Place ``count`` instances cycling through ``period``.

        Each period entry is ``(cell, transform, name, first)``: the
        placement in repeat 0, a name template whose ``{}`` takes the
        placement's index, and that index in repeat 0.  Repeat ``k``
        moves the period by ``k * step`` and advances every index by
        ``k * index_step`` (see :class:`InstanceArray`).
        """
        array = InstanceArray(
            period=tuple(CellInstance(cell, t, name)
                         for cell, t, name, _ in period),
            first=tuple(first for *_, first in period),
            count=count, step=step, index_step=index_step,
        )
        self._instances.append(array)
        self._expanded = None
        self._bbox_dirty = True
        return array

    def tile(
        self,
        cell: "Cell",
        columns: int,
        rows: int,
        pitch_x: int,
        pitch_y: int,
        origin: Point = Point(0, 0),
        name_prefix: str = "t",
        alternate_mirror_y: bool = False,
    ) -> List[CellInstance]:
        """Place a ``columns`` x ``rows`` array of ``cell``, row by row.

        ``alternate_mirror_y`` mirrors odd rows about the x-axis, the
        standard trick for sharing supply rails between adjacent SRAM
        rows (every other row is flipped so VDD abuts VDD and GND abuts
        GND).  Instance ``(r, c)`` is named ``{name_prefix}_{r}_{c}``.
        The grid is stored as one :class:`InstanceArray` whose period
        is a row (a mirrored row pair with ``alternate_mirror_y``).
        """
        if columns <= 0 or rows <= 0:
            raise ValueError("tile counts must be positive")
        prefix = name_prefix.replace("{", "{{").replace("}", "}}")
        period_rows = 2 if alternate_mirror_y else 1
        period = []
        for r in range(period_rows):
            # MX flips about y=0, so a mirrored row shifts up by the
            # cell height to keep occupying its own pitch slot.
            orient = Orientation.MX if r else Orientation.R0
            y = origin.y + 2 * r * pitch_y
            for c in range(columns):
                t = Transform(orient, Point(origin.x + c * pitch_x, y))
                period.append((cell, t, f"{prefix}_{{}}_{c}", r))
        array = self.add_array(period, rows * columns,
                               Point(0, period_rows * pitch_y),
                               index_step=period_rows)
        return list(array.instances())

    # -- queries ----------------------------------------------------------

    def shapes(self) -> Sequence[Tuple[str, Rect]]:
        return tuple(self._shapes)

    def ports(self) -> Iterator[Port]:
        return iter(self._ports.values())

    def port_names(self) -> Tuple[str, ...]:
        return tuple(self._ports)

    def port(self, name: str) -> Port:
        try:
            return self._ports[name]
        except KeyError:
            raise KeyError(
                f"cell {self.name!r} has no port {name!r}; "
                f"ports: {sorted(self._ports)}"
            ) from None

    def has_port(self, name: str) -> bool:
        return name in self._ports

    def entries(self) -> Sequence[Entry]:
        """The instance list as built: single instances and arrays."""
        return tuple(self._instances)

    def instances(self) -> Sequence[CellInstance]:
        """Every child placement, arrays expanded, in placement order."""
        count, expanded = self._expanded or (-1, ())
        if count != len(self._instances):
            out: List[CellInstance] = []
            for entry in self._instances:
                if isinstance(entry, InstanceArray):
                    out.extend(entry.instances())
                else:
                    out.append(entry)
            expanded = tuple(out)
            self._expanded = (len(self._instances), expanded)
        return expanded

    def bbox(self) -> Optional[Rect]:
        """Bounding box over own shapes, ports, and child instances."""
        if self._bbox_dirty:
            boxes = [r for _, r in self._shapes]
            boxes.extend(p.rect for p in self._ports.values())
            for inst in self.instances():
                b = inst.bbox()
                if b is not None:
                    boxes.append(b)
            self._bbox_cache = bounding_box(boxes)
            self._bbox_dirty = False
        return self._bbox_cache

    @property
    def width(self) -> int:
        box = self.bbox()
        return 0 if box is None else box.width

    @property
    def height(self) -> int:
        box = self.bbox()
        return 0 if box is None else box.height

    def area(self) -> int:
        """Bounding-box area (the area metric of the paper's Table I)."""
        box = self.bbox()
        return 0 if box is None else box.area

    # -- hierarchy operations ----------------------------------------------

    def flatten(
        self, max_depth: Optional[int] = None
    ) -> Iterator[Tuple[str, Rect]]:
        """Yield every shape of the hierarchy in this cell's coordinates.

        ``max_depth`` limits recursion (0 = own shapes only); None means
        full flattening.  Own shapes are yielded as stored, not copied.
        """
        yield from self._shapes
        if max_depth is not None and max_depth <= 0:
            return
        for inst in self.instances():
            yield from inst.cell._flatten(inst.transform, 1, max_depth)

    def _flatten(
        self, transform: Transform, depth: int, max_depth: Optional[int]
    ) -> Iterator[Tuple[str, Rect]]:
        for layer, rect in self._shapes:
            yield layer, rect.transformed(transform)
        if max_depth is not None and depth >= max_depth:
            return
        for inst in self.instances():
            sub = transform.compose(inst.transform)
            yield from inst.cell._flatten(sub, depth + 1, max_depth)

    def count_shapes(self) -> int:
        """Total flattened shape count (used by complexity metrics)."""
        return sum(1 for _ in self.flatten())

    def subcells(self) -> Dict[str, "Cell"]:
        """All distinct cells in the hierarchy, keyed by name."""
        found: Dict[str, Cell] = {}

        def visit(cell: "Cell") -> None:
            if cell.name in found:
                return
            found[cell.name] = cell
            for entry in cell._instances:
                if isinstance(entry, InstanceArray):
                    for inst in entry.placed():
                        visit(inst.cell)
                else:
                    visit(entry.cell)

        visit(self)
        return found

    def __repr__(self) -> str:
        return (
            f"Cell({self.name!r}, shapes={len(self._shapes)}, "
            f"ports={len(self._ports)}, instances={len(self.instances())})"
        )
