"""Reference personality check: one ``Trpla.evaluate`` per assignment.

The sum-of-products loop that
:func:`repro.verify.control.check_personality` ran before it indexed
the packed truth table.  ``tests/test_verify_control.py`` pins the
table-driven check to it finding for finding, on clean and corrupted
planes.
"""

from itertools import product
from typing import List, Optional

from repro.bist.microcode import Microprogram, assemble
from repro.bist.trpla import Trpla
from repro.verify.control import _MAX_ASSIGNMENTS, _finding
from repro.verify.report import SignoffFinding


def check_personality(program: Microprogram,
                      trpla: Optional[Trpla] = None,
                      max_findings: int = 50) -> List[SignoffFinding]:
    assembled = assemble(program)
    pla = trpla if trpla is not None else Trpla(
        assembled.and_plane, assembled.or_plane)
    conds = program.condition_inputs()
    state_bits = assembled.state_bits
    encoding = assembled.state_encoding
    out_index = {name: i for i, name in enumerate(assembled.output_names)}
    control_outputs = assembled.output_names[state_bits:]

    findings: List[SignoffFinding] = []
    assignments = list(product((0, 1), repeat=len(conds)))
    if len(assignments) > _MAX_ASSIGNMENTS:
        assignments = assignments[:_MAX_ASSIGNMENTS]
    for inst in program.states.values():
        code = encoding[inst.name]
        state_inputs = [(code >> b) & 1 for b in range(state_bits)]
        for values in assignments:
            inputs = state_inputs + list(values)
            try:
                outputs = pla.evaluate(inputs)
            except (IndexError, ValueError) as error:
                return [_finding(
                    "microword-mismatch", inst.name,
                    f"PLA evaluation failed in state {inst.name}: {error}")]
            got_next = 0
            for b in range(state_bits):
                if outputs[b]:
                    got_next |= 1 << b
            cond_map = dict(zip(conds, values))
            want_next = encoding[inst.next_state(cond_map)]
            if got_next != want_next:
                findings.append(_finding(
                    "microword-mismatch", inst.name,
                    f"state {inst.name} with {cond_map}: PLA jumps to "
                    f"code {got_next}, microprogram says {want_next}",
                    conditions=cond_map))
            else:
                for name in control_outputs:
                    want = 1 if name in inst.outputs else 0
                    if outputs[out_index[name]] != want:
                        findings.append(_finding(
                            "microword-mismatch", inst.name,
                            f"state {inst.name}: control output {name} is "
                            f"{outputs[out_index[name]]}, expected {want}",
                            output=name))
                        break
            if len(findings) >= max_findings:
                return findings
    return findings
