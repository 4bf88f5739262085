"""Deck discovery and resolution.

The registry is the single lookup path behind
:func:`repro.tech.process.get_process`.  Every deck is a descriptor
file; the registry merges three sources, later overriding earlier:

1. descriptor files packaged under ``repro/techreg/decks/`` (the
   paper's ``cda05``/``mos06``/``cda07``/``mos08`` plus ``scn4m`` and
   ``pfin7``),
2. ``repro.techs`` entry points of installed packages, each naming a
   descriptor file,
3. search directories — ``REPRO_TECH_DIR`` (``os.pathsep``-separated),
   then directories added with :meth:`TechRegistry.add_search_dir`
   (the CLI's ``--tech-dir``).

Decks are cached per ``(mtime_ns, size)`` of their file and re-validated
when the file changes, so editing a deck mid-process invalidates within
one :meth:`~TechRegistry.resolve` call — the same edit also changes the
deck fingerprint and with it every digest/bundle/journal key downstream.
A file that has gone, or that now names another deck, sends the lookup
through one rescan, so a deleted shadow falls back to the deck it hid.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.errors import DescriptorError, UnknownProcessError
from repro.tech.layers import STANDARD_LAYERS, LayerSet
from repro.tech.process import Process
from repro.tech.rules import DesignRules, _DEFAULT_LAMBDA_RULES
from repro.tech.spice_params import MosParams, nmos_for_node, pmos_for_node
from repro.techreg.descriptor import (
    DESCRIPTOR_SUFFIXES,
    TechDescriptor,
    load_descriptor,
)
from repro.techreg.validate import check_descriptor

#: Entry-point group third-party packages export decks under.
ENTRY_POINT_GROUP = "repro.techs"

#: Environment variable naming extra search directories.
TECH_DIR_ENV = "REPRO_TECH_DIR"


def resolve_process(desc: TechDescriptor) -> Process:
    """Build a :class:`Process` from a *validated* descriptor.

    Pure function — no registry state.  Callers are expected to run
    :func:`repro.techreg.validate.check_descriptor` first; this only
    performs the construction.
    """
    layers = LayerSet(tuple(STANDARD_LAYERS) + desc.extra_layers)
    if desc.deck_type == "absolute":
        rules = DesignRules.absolute(desc.lambda_cu, desc.rules)
    else:
        overrides = {k: v for k, v in desc.rules.items()
                     if k in _DEFAULT_LAMBDA_RULES}
        extensions = {k: v for k, v in desc.rules.items()
                      if k not in _DEFAULT_LAMBDA_RULES}
        rules = DesignRules.scalable(desc.lambda_cu, overrides or None,
                                     extensions or None)
    return Process(
        name=desc.name,
        description=desc.description,
        feature_um=desc.feature_um,
        metal_layers=desc.metal_layers,
        vdd=desc.vdd,
        layers=layers,
        rules=rules,
        nmos=_mos_params("nmos", desc.nmos, desc.feature_um),
        pmos=_mos_params("pmos", desc.pmos, desc.feature_um),
        wire_r_ohm_sq=float(desc.wire["r_ohm_sq"]),
        wire_c_af_um=float(desc.wire["c_af_um"]),
    )


def _mos_params(polarity: str, spec, feature_um: float) -> MosParams:
    if "node_um" in spec:
        derive = nmos_for_node if polarity == "nmos" else pmos_for_node
        return derive(float(spec["node_um"]))
    return MosParams(
        polarity=polarity,
        vto=float(spec["vto"]),
        kp=float(spec["kp"]),
        lambda_=float(spec["lambda_"]),
        cox=float(spec["cox"]),
        cj=float(spec["cj"]),
        cjsw=float(spec["cjsw"]),
        min_l_um=float(spec["min_l_um"]),
    )


@dataclass
class _Entry:
    """One registered deck: its descriptor file as last read."""

    origin: str                       # packaged | entry-point | dir
    path: str
    descriptor: TechDescriptor
    stat: Tuple[int, int]             # (mtime_ns, size) when read
    process: Optional[Process] = None  # resolved on first lookup

    def fresh(self) -> bool:
        """Whether ``descriptor`` still matches the file on disk."""
        try:
            st = os.stat(self.path)
        except OSError:
            return False
        return (st.st_mtime_ns, st.st_size) == self.stat


class TechRegistry:
    """Name -> deck lookup over all discovery sources.

    Scans lazily on first use; :meth:`rescan` forces a fresh pass (a
    lookup that misses, or whose file has gone or been renamed, rescans
    once before failing, so decks dropped into a search directory
    mid-process are picked up).
    """

    def __init__(self, use_entry_points: bool = True,
                 packaged_dir: Optional[Path] = None) -> None:
        self._use_entry_points = use_entry_points
        self._packaged_dir = (Path(__file__).parent / "decks"
                              if packaged_dir is None else packaged_dir)
        self._search_dirs: List[Path] = []
        self._entries: Optional[Dict[str, _Entry]] = None
        #: (source, message) pairs for decks that failed to load during
        #: a scan — surfaced by ``repro tech list``, never fatal.
        self.scan_errors: List[Tuple[str, str]] = []

    # -- configuration ------------------------------------------------------

    def add_search_dir(self, path) -> None:
        """Append a ``--tech-dir`` directory (highest precedence)."""
        self._search_dirs.append(Path(path))
        self._entries = None

    # -- discovery ----------------------------------------------------------

    def rescan(self) -> None:
        """Drop all cached state and walk every source again."""
        self._entries = None
        self._scan()

    def _scan(self) -> Dict[str, _Entry]:
        if self._entries is not None:
            return self._entries
        entries: Dict[str, _Entry] = {}
        self.scan_errors = []
        self._scan_dir(entries, self._packaged_dir, "packaged")
        if self._use_entry_points:
            self._scan_entry_points(entries)
        env = os.environ.get(TECH_DIR_ENV, "")
        for part in env.split(os.pathsep):
            if part:
                self._scan_dir(entries, Path(part), "dir")
        for path in self._search_dirs:
            self._scan_dir(entries, path, "dir")
        self._entries = entries
        return entries

    def _scan_dir(self, entries: Dict[str, _Entry], directory: Path,
                  origin: str) -> None:
        try:
            files = sorted(p for p in directory.iterdir()
                           if p.suffix.lower() in DESCRIPTOR_SUFFIXES)
        except OSError:
            return
        for path in files:
            self._add(entries, str(path), origin)

    def _scan_entry_points(self, entries: Dict[str, _Entry]) -> None:
        try:
            from importlib.metadata import entry_points
            eps = entry_points(group=ENTRY_POINT_GROUP)
        except Exception as error:           # metadata backends vary
            self.scan_errors.append(("entry-points", str(error)))
            return
        for ep in eps:
            try:
                loaded = ep.load()
                if callable(loaded):
                    loaded = loaded()
                path = os.fspath(loaded)
            except Exception as error:
                self.scan_errors.append(
                    (f"entry-point {ep.name}",
                     f"does not name a descriptor file: {error}"))
                continue
            self._add(entries, path, "entry-point")

    def _add(self, entries: Dict[str, _Entry], path: str,
             origin: str) -> None:
        """Register the deck in one file; a bad file is a scan error."""
        try:
            desc, stat = _read(path)
        except (OSError, DescriptorError) as error:
            self.scan_errors.append((path, str(error)))
            return
        if not desc.name:
            self.scan_errors.append((path, "descriptor has no [tech] name"))
            return
        entries[desc.name] = _Entry(origin, path, desc, stat)

    def _current(self, name: str) -> _Entry:
        """The entry for ``name``, re-read if its file has changed.

        A miss, a deleted file, or a file that now names another deck
        rescans once and retries, so a deleted shadow falls back to the
        deck it hid and a renamed deck stops answering to its old name.

        Raises:
            UnknownProcessError: name registered nowhere after the
                rescan.
            DescriptorError: the deck's file changed and no longer
                parses.
        """
        for attempt in range(2):
            if attempt:
                self.rescan()
            entry = self._scan().get(name)
            if entry is None:
                continue
            if entry.fresh():
                return entry
            try:
                desc, stat = _read(entry.path)
            except OSError:
                continue                    # the file has gone
            if desc.name != name:
                continue                    # it now names another deck
            entry.descriptor, entry.stat, entry.process = desc, stat, None
            return entry
        raise UnknownProcessError(name, self.names())

    # -- queries ------------------------------------------------------------

    def names(self) -> Tuple[str, ...]:
        """All registered deck names, sorted."""
        return tuple(sorted(self._scan()))

    def entries(self) -> Tuple[Dict[str, str], ...]:
        """Metadata rows for ``repro tech list``.

        Each row: name, origin, source path, feature size, vdd, and the
        deck fingerprint.  Decks that fail to resolve get an ``error``
        column instead of a fingerprint.
        """
        rows = []
        for name in self.names():
            entry = self._scan()[name]
            row = {"name": name, "origin": entry.origin, "path": entry.path}
            try:
                process = self.resolve(name)
            except DescriptorError as error:
                row["error"] = str(error)
            else:
                row["feature_um"] = f"{process.feature_um:g}"
                row["vdd"] = f"{process.vdd:g}"
                row["metals"] = str(process.metal_layers)
                row["fingerprint"] = process.fingerprint()
            rows.append(row)
        return tuple(rows)

    def descriptor(self, name: str) -> TechDescriptor:
        """The descriptor behind ``name``, as its file reads now."""
        return self._current(name).descriptor

    def resolve(self, name: str) -> Process:
        """Look a deck up by name and build its :class:`Process`.

        Raises:
            UnknownProcessError: name registered nowhere (after one
                automatic rescan).
            DescriptorError: the deck exists but fails validation.
        """
        entry = self._current(name)
        if entry.process is None:
            check_descriptor(entry.descriptor)
            entry.process = resolve_process(entry.descriptor)
        return entry.process


def _read(path: str) -> Tuple[TechDescriptor, Tuple[int, int]]:
    """Parse one descriptor file, with the ``(mtime_ns, size)`` it had.

    Raises ``OSError`` when the file does not exist.
    """
    st = os.stat(path)
    return load_descriptor(path), (st.st_mtime_ns, st.st_size)


_DEFAULT: Optional[TechRegistry] = None


def default_registry() -> TechRegistry:
    """The process-wide registry :func:`repro.tech.get_process` uses."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = TechRegistry()
    return _DEFAULT
