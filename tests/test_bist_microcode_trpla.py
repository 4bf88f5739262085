"""Unit tests for the microcode assembler and the TRPLA model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bist import (
    ALL_TESTS,
    MicroInstruction,
    Microprogram,
    Trpla,
    assemble,
    build_test_program,
    read_plane_files,
    write_plane_files,
)
from repro.bist.trpla import MAX_TABLE_INPUTS


def two_state_program():
    return Microprogram(
        [
            MicroInstruction(
                name="a",
                outputs=("sig_a",),
                branches=(((("cond", 1),), "b"),),
                default="a",
            ),
            MicroInstruction(name="b", outputs=("sig_b",), default="a"),
        ],
        start="a",
    )


class TestMicroprogram:
    def test_duplicate_state_rejected(self):
        with pytest.raises(ValueError):
            Microprogram(
                [
                    MicroInstruction(name="a", default="a"),
                    MicroInstruction(name="a", default="a"),
                ],
                start="a",
            )

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            Microprogram(
                [MicroInstruction(name="a", default="zz")], start="a"
            )

    def test_state_without_successor_rejected(self):
        with pytest.raises(ValueError):
            Microprogram([MicroInstruction(name="a")], start="a")

    def test_state_bits(self):
        prog = two_state_program()
        assert prog.state_bits == 1

    def test_signal_inventories(self):
        prog = two_state_program()
        assert prog.condition_inputs() == ("cond",)
        assert prog.control_outputs() == ("sig_a", "sig_b")

    def test_encoding_start_is_zero(self):
        assert two_state_program().encoding()["a"] == 0

    def test_next_state_priority(self):
        st = MicroInstruction(
            name="s",
            branches=(
                ((("x", 1), ("y", 1)), "both"),
                ((("x", 1),), "just_x"),
            ),
            default="none",
        )
        assert st.next_state({"x": 1, "y": 1}) == "both"
        assert st.next_state({"x": 1, "y": 0}) == "just_x"
        assert st.next_state({"x": 0, "y": 1}) == "none"


class TestAssemble:
    def test_planes_consistent(self):
        pla = assemble(two_state_program())
        assert len(pla.and_plane) == len(pla.or_plane)
        width = 2 * len(pla.input_names)
        assert all(len(r) == width for r in pla.and_plane)

    def test_exactly_one_next_state_term_fires(self):
        """The disjointness property that makes OR-plane mixing safe."""
        prog = two_state_program()
        pla_data = assemble(prog)
        pla = Trpla(pla_data.and_plane, pla_data.or_plane)
        n_bits = pla_data.state_bits
        for state_code in range(len(prog)):
            for cond in (0, 1):
                inputs = [
                    (state_code >> b) & 1 for b in range(n_bits)
                ] + [cond]
                terms = pla.active_terms(inputs)
                next_terms = [
                    t for t in terms
                    if any(pla_data.or_plane[t][:n_bits])
                    or _is_next_state_term(pla_data, t)
                ]
                # Disjoint expansion: exactly one branch term active.
                branch_terms = [
                    t for t in terms if _is_next_state_term(pla_data, t)
                ]
                assert len(branch_terms) == 1

    def test_evaluation_matches_next_state(self):
        prog = two_state_program()
        pla_data = assemble(prog)
        pla = Trpla(pla_data.and_plane, pla_data.or_plane)
        enc = pla_data.state_encoding
        out = pla.evaluate([enc["a"], 1])
        next_code = out[0]
        assert next_code == enc["b"]
        # Control outputs: sig_a asserted in state a.
        names = pla_data.output_names
        assert out[names.index("sig_a")] == 1
        assert out[names.index("sig_b")] == 0


def _is_next_state_term(pla_data, term_index):
    """A term whose AND row tests a condition literal or whose OR row
    drives only next-state bits: the branch terms of the assembler."""
    n_bits = pla_data.state_bits
    or_row = pla_data.or_plane[term_index]
    drives_control = any(or_row[n_bits:])
    return not drives_control


class TestTrpla:
    def test_validation(self):
        with pytest.raises(ValueError):
            Trpla([], [])
        with pytest.raises(ValueError):
            Trpla([[1, 0, 1]], [[1]])  # odd width
        with pytest.raises(ValueError):
            Trpla([[1, 0]], [[1], [0]])  # row mismatch
        with pytest.raises(ValueError):
            Trpla([[1, 0], [0, 1]], [[1], []])  # ragged OR

    def test_and_or_logic(self):
        # Term 0: in0 AND NOT in1 -> out0;  term 1: in1 -> out1.
        pla = Trpla([[1, 0, 0, 1], [0, 0, 1, 0]], [[1, 0], [0, 1]])
        assert pla.evaluate([1, 0]) == (1, 0)
        assert pla.evaluate([1, 1]) == (0, 1)
        assert pla.evaluate([0, 0]) == (0, 0)

    def test_input_count_checked(self):
        pla = Trpla([[1, 0]], [[1]])
        with pytest.raises(ValueError):
            pla.evaluate([1, 0])

    def test_transistor_count(self):
        pla = Trpla([[1, 0, 0, 1], [0, 0, 1, 0]], [[1, 0], [0, 1]])
        assert pla.transistor_count() == 3 + 2


def _reference_table(pla):
    """The sum-of-products model tabulated over every packed input."""
    table = []
    for packed in range(1 << pla.n_inputs):
        inputs = [(packed >> k) & 1 for k in range(pla.n_inputs)]
        outputs = pla.evaluate(inputs)
        table.append(sum(bit << o for o, bit in enumerate(outputs)))
    return table


@st.composite
def personalities(draw):
    """Random planes: contradictory terms (both literals of an input
    programmed) and all-zero OR rows arise freely."""
    n_inputs = draw(st.integers(1, 6))
    n_outputs = draw(st.integers(1, 5))
    terms = draw(st.integers(1, 10))
    bits = st.integers(0, 1)
    and_plane = draw(st.lists(st.lists(bits, min_size=2 * n_inputs,
                                       max_size=2 * n_inputs),
                              min_size=terms, max_size=terms))
    or_plane = draw(st.lists(st.lists(bits, min_size=n_outputs,
                                      max_size=n_outputs),
                             min_size=terms, max_size=terms))
    return Trpla(and_plane, or_plane)


class TestTrplaTable:
    """The compiled lookup table against the sum-of-products reference."""

    @pytest.mark.parametrize("passes", (1, 2, 3))
    @pytest.mark.parametrize("march", ALL_TESTS, ids=lambda t: t.name)
    def test_every_march_personality_exhaustively(self, march, passes):
        pla_data = assemble(build_test_program(march, passes))
        pla = Trpla(pla_data.and_plane, pla_data.or_plane)
        assert list(pla.table) == _reference_table(pla)
        assert [pla.lookup(x) for x in range(1 << pla.n_inputs)] == \
            list(pla.table)

    @settings(max_examples=200, deadline=None)
    @given(personalities())
    def test_random_personalities(self, pla):
        assert list(pla.table) == _reference_table(pla)

    def test_contradictory_term_and_empty_or_row_never_drive(self):
        # Term 0 programs both literals of in0; term 1 drives nothing;
        # term 2 is in1.
        pla = Trpla([[1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]],
                    [[1, 1], [0, 0], [0, 1]])
        assert pla.table == (0, 0, 2, 2)

    def test_one_input_pla(self):
        pla = Trpla([[1, 0], [0, 1], [0, 0]], [[1, 0, 0], [0, 1, 0],
                                                [0, 0, 1]])
        assert pla.table == (0b110, 0b101)
        assert list(pla.table) == _reference_table(pla)

    def test_lookup_range_checked(self):
        pla = Trpla([[1, 0, 0, 1]], [[1]])
        for packed in (-1, 4):
            with pytest.raises(ValueError, match="outside"):
                pla.lookup(packed)

    def test_too_wide_for_a_table(self):
        width = 2 * (MAX_TABLE_INPUTS + 1)
        pla = Trpla([[0] * width], [[1]])
        assert pla.evaluate([0] * (MAX_TABLE_INPUTS + 1)) == (1,)
        with pytest.raises(ValueError, match="too wide"):
            pla.lookup(0)


class TestPlaneFiles:
    def test_roundtrip(self, tmp_path):
        and_plane = [[1, 0, 0, 1], [0, 1, 1, 0]]
        or_plane = [[1, 0], [0, 1]]
        a, o = tmp_path / "and.plane", tmp_path / "or.plane"
        write_plane_files(a, o, and_plane, or_plane)
        got_and, got_or = read_plane_files(a, o)
        assert got_and == and_plane and got_or == or_plane

    def test_corrupt_file_rejected(self, tmp_path):
        a, o = tmp_path / "and.plane", tmp_path / "or.plane"
        a.write_text("10x1\n")
        o.write_text("10\n")
        with pytest.raises(ValueError, match="non-binary"):
            read_plane_files(a, o)

    def test_term_count_mismatch_rejected(self, tmp_path):
        a, o = tmp_path / "and.plane", tmp_path / "or.plane"
        a.write_text("1001\n0110\n")
        o.write_text("10\n")
        with pytest.raises(ValueError, match="disagree"):
            read_plane_files(a, o)

    def test_swapping_control_code_changes_behaviour(self, tmp_path):
        """The paper's workflow: edit the plane files to change the
        test algorithm."""
        a, o = tmp_path / "and.plane", tmp_path / "or.plane"
        write_plane_files(a, o, [[1, 0]], [[1]])
        and_p, or_p = read_plane_files(a, o)
        assert Trpla(and_p, or_p).evaluate([1]) == (1,)
        write_plane_files(a, o, [[0, 1]], [[1]])
        and_p, or_p = read_plane_files(a, o)
        assert Trpla(and_p, or_p).evaluate([1]) == (0,)
