"""BISRAMGEN reproduction.

A full reimplementation of *"A Physical Design Tool for Built-In
Self-Repairable RAMs"* (Chakraborty, Kulkarni, Bhattacharya, Mazumder,
Gupta — DATE 1999 / IEEE TVLSI 9(2), 2001): a design-rule-independent
memory compiler that generates column-multiplexed 6T SRAM macros with
spare rows, a microprogrammed IFA-9 BIST engine, and a TLB-based
built-in self-repair circuit — plus the yield, reliability, and
manufacturing-cost models that quantify the benefit.

Quickstart::

    from repro import RamConfig, compile_ram

    ram = compile_ram(RamConfig(words=2048, bpw=32, bpc=8))
    print(ram.datasheet.summary())
    print(ram.render_ascii())

    device = ram.simulation_model()          # fault-injectable RAM
    controller = ram.self_test_controller(device)
    result = controller.run()                # two-pass BIST + BISR
    assert result.repaired
"""

__version__ = "1.0.0"

__all__ = [
    "BISRAMGen",
    "CompiledRam",
    "Datasheet",
    "RamConfig",
    "compile_ram",
    "__version__",
]


def __getattr__(name):
    # PEP 562: the compiler loads on first use of an export, so
    # ``import repro.cli`` (and ``--help``) stay light.
    if name in __all__:
        import repro.core

        return getattr(repro.core, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
