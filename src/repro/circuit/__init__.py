"""Transistor-level circuit representation.

The compiler keeps a netlist view alongside the layout view: leaf-cell
generators emit both.  The netlist feeds the :mod:`repro.spice` engine
for the two SPICE-driven features of the paper — automatic P/N sizing so
critical gates have balanced rise and fall times, and extraction-based
extrapolation of timing/area/power guarantees before the full layout is
built.
"""

import importlib

#: Each export and the submodule it lives in, imported on first use
#: (PEP 562) so that a device model reaching for one submodule does not
#: load the SPICE engine and numpy through the others.
_HOME = {
    "Netlist": "netlist",
    "Mosfet": "netlist",
    "Resistor": "netlist",
    "Capacitor": "netlist",
    "VoltageSource": "netlist",
    "GND": "netlist",
    "mosfet_current": "mosfet",
    "balance_inverter": "sizing",
    "size_for_drive": "sizing",
    "extract_parasitics": "extract",
    "write_spice": "spice_export",
    "export_spice": "spice_export",
    "read_spice": "spice_export",
}

__all__ = list(_HOME)


def __getattr__(name):
    if name in _HOME:
        module = importlib.import_module(f"repro.circuit.{_HOME[name]}")
        return getattr(module, name)
    raise AttributeError(
        f"module 'repro.circuit' has no attribute {name!r}")
