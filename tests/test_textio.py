import pytest

from cantortx.textio import ParseError, parse, serialize
from cantortx.transducer import Transducer
from cantortx.initial import InitialTransducer
from cantortx.machines import (
    identity_transducer,
    letter_complement,
    machine_T,
    machine_U,
    machine_g4,
    oplus,
    realize,
    swap_transducer,
)


POOL = [
    identity_transducer(2),
    identity_transducer(3),
    letter_complement(4),
    machine_g4(),
    machine_T(3),
    machine_U(4),
]


class TestRoundTrip:
    def test_plain_machines(self):
        for M in POOL:
            again = parse(serialize(M))
            assert isinstance(again, Transducer)
            assert again == M

    def test_relabel_needed_for_tuple_states(self):
        from cantortx.words import InvalidInput

        M = oplus(2, swap_transducer(), 4)  # tuple state names
        with pytest.raises(InvalidInput):
            serialize(M)

    def test_initial_machines(self):
        A = realize(machine_g4(), 3)
        again = parse(serialize(A))
        assert isinstance(again, InitialTransducer)
        assert again == A

    def test_plain_state_named_dash(self):
        # initial=- marks a plain machine; a state may still be named "-"
        text = (
            "TRANSDUCER n=2 r=0 states=-,a initial=-\n"
            "- 0 -> a : 0\n- 1 -> - : 1\na 0 -> a : 0\na 1 -> - : 1\n"
        )
        M = parse(text)
        assert isinstance(M, Transducer) and M.states == ("-", "a")
        assert serialize(M) == text
        with pytest.raises(ParseError, match="missing transition - 1"):
            parse(text.replace("- 1 -> - : 1\n", ""))

    def test_comments_and_blank_lines_ignored(self):
        text = serialize(machine_g4())
        noisy = "# a comment\n\n" + text.replace("\n", "\n# note\n", 1)
        assert parse(noisy) == machine_g4()


class TestStrictness:
    def test_missing_transition(self):
        text = serialize(machine_g4())
        broken = "\n".join(text.splitlines()[:-1]) + "\n"
        with pytest.raises(ParseError):
            parse(broken)

    def test_missing_transition_names_it(self):
        # the entry row first, then the rows of the other states in order
        head = "TRANSDUCER n=2 r=1 states=s,q initial=s\n"
        rows = "q 0 -> q : 0\nq 1 -> q : 1\n"
        with pytest.raises(ParseError, match=r"^line 0: missing transition s \.0$"):
            parse(head + rows)
        with pytest.raises(ParseError, match=r"^line 0: missing transition q 1$"):
            parse(head + "s .0 -> q : .0\n" + rows.split("\n")[0] + "\n")

    def test_duplicate_transition(self):
        text = serialize(machine_g4())
        line = text.splitlines()[1]
        with pytest.raises(ParseError):
            parse(text + line + "\n")

    def test_letter_out_of_range(self):
        with pytest.raises(ParseError):
            parse("TRANSDUCER n=2 r=0 states=q initial=-\nq 0 -> q : 0\nq 2 -> q : 1\n")

    def test_unknown_state(self):
        with pytest.raises(ParseError):
            parse("TRANSDUCER n=2 r=0 states=q initial=-\nq 0 -> z : 0\nq 1 -> q : 1\n")

    def test_dotted_letter_in_plain_machine(self):
        with pytest.raises(ParseError):
            parse("TRANSDUCER n=2 r=0 states=q initial=-\nq .0 -> q : 0\nq 1 -> q : 1\n")

    def test_dotted_output_errors_name_their_line(self):
        # a dotted output in a plain machine, and a malformed one
        for header, out in (("n=2 r=0 states=q initial=-", ".0"),
                            ("n=2 r=0 states=q initial=-", ".1,0"),
                            ("n=2 r=1 states=s,q initial=s", ".x,0"),
                            ("n=2 r=1 states=s,q initial=s", ".0,2,y")):
            text = f"TRANSDUCER {header}\nq 0 -> q : {out}\nq 1 -> q : 1\n"
            with pytest.raises(ParseError) as exc:
                parse(text)
            assert exc.value.lineno == 2 and str(exc.value).startswith("line 2: ")

    def test_initial_flag_consistency(self):
        with pytest.raises(ParseError):
            parse("TRANSDUCER n=2 r=1 states=q initial=-\n")

    def test_error_carries_line_number(self):
        text = "TRANSDUCER n=2 r=0 states=q initial=-\nq 0 -> q : 0\nbogus line\n"
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert "line 3" in str(exc.value)
