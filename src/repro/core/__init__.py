"""The BISRAMGEN compiler core.

* :mod:`~repro.core.config` — the user parameters (bpw, bpc, word
  count, spare rows, critical gate size, strap space) with the paper's
  validation rules,
* :mod:`~repro.core.floorplan` — macrocell generation and assembly,
* :mod:`~repro.core.datasheet` — the timing/area/power guarantees
  extrapolated from characterised leaf cells,
* :mod:`~repro.core.compiler` — :class:`BISRAMGen`, the top-level tool:
  layout + simulation model + datasheet from one configuration,
* :mod:`~repro.core.stages` — stage-level memoization for the build
  pipeline (floorplan -> layout -> control planes -> datasheet ->
  signoff),
* :mod:`~repro.core.canonical` — the canonical-JSON digest recipe
  shared by stage keys, artifact-store keys, and campaign
  fingerprints.
"""

import importlib

#: Each export and the submodule it lives in, imported on first use
#: (PEP 562) so that reading a config or an error type does not load
#: the compiler and its numeric dependencies.
_HOME = {
    "RamConfig": "config",
    "Datasheet": "datasheet",
    "BISRAMGen": "compiler",
    "CompiledRam": "compiler",
    "compile_ram": "compiler",
    "StageCache": "stages",
    "StageTiming": "stages",
    "canonical_json": "canonical",
    "stable_digest": "canonical",
    "ReproError": "errors",
    "ConfigError": "errors",
    "RepairExhausted": "errors",
    "ServiceUnavailable": "errors",
    "SpiceConvergenceError": "errors",
}

__all__ = list(_HOME)


def __getattr__(name):
    if name in _HOME:
        module = importlib.import_module(f"repro.core.{_HOME[name]}")
        return getattr(module, name)
    raise AttributeError(f"module 'repro.core' has no attribute {name!r}")
