"""Net file parsing and serialization."""

import pytest

from petrisep import (
    Instance,
    Mode,
    NetFormatError,
    PetriNet,
    Transition,
    format_instance,
    load_instance,
    parse_instance,
)

from conftest import two_place_instance

EXAMPLE = """\
# two places, three transitions
places p1 p2
transition t pre 2 1 post 1 2
transition u pre 1 2 post 0 4
transition v pre 1 0 post 2 1

init 3 1
target 0 4
mode reach
"""


def test_parse_running_example():
    inst = parse_instance(EXAMPLE)
    assert inst == two_place_instance()
    assert inst.mode is Mode.REACH


def test_format_parse_round_trip():
    inst = two_place_instance(Mode.COVER)
    assert parse_instance(format_instance(inst)) == inst


def test_load_instance(tmp_path):
    path = tmp_path / "example.net"
    path.write_text(EXAMPLE)
    assert load_instance(str(path)) == two_place_instance()


def test_comments_and_blank_lines_are_ignored():
    text = "\n# header\nplaces p\n\ntransition t pre 0 post 1\ninit 0\ntarget 2\n"
    inst = parse_instance(text)
    assert inst.mode is Mode.REACH  # mode line is optional
    assert inst.net.places == ("p",)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("transition t pre 0 post 1\n", "places"),
        ("places p\ninit 0\ntarget 0\nmode fly\n", "mode"),
        ("places p p\ninit 0 0\ntarget 0 0\n", "duplicate"),
        ("places p\ntransition t pre 0 post\ninit 0\ntarget 0\n", "transition"),
        ("places p\ntransition t pre 0 post 1 2\ninit 0\ntarget 0\n", "transition"),
        ("places p\ninit 0 0\ntarget 0\n", "init"),
        ("places p\ninit -1\ntarget 0\n", "negative"),
        ("places p\ninit 0\n", "target"),
        ("places p\ntransition t pre x post 1\ninit 0\ntarget 0\n", "integer"),
        # "line N: " pins the line an error names; a missing directive has none
        ("places p\nplaces q\ninit 0\ntarget 0\n", "line 2: duplicate places"),
        ("places\ninit 0\ntarget 0\n", "line 1: places directive needs"),
        (
            "places p\ntransition t pre 0 post 1\ntransition t pre 1 post 0\ninit 0\n",
            "line 3: duplicate transition name 't'",
        ),
        (
            "places p\ntransition t pre -1 post 0\ninit 0\ntarget 0\n",
            "line 2: transition 't': negative flow",
        ),
        ("init 0\nplaces p\ntarget 0\n", "line 1: init before places"),
        ("places p\ninit 0\ninit 1\ntarget 0\n", "line 3: duplicate init"),
        ("places p\ntarget 0\ninit 0\n\ntarget 1\n", "line 5: duplicate target"),
        ("places p\nmode cover\ninit 0\ntarget 0\nmode cover\n", "line 5: duplicate mode"),
        ("# no places\nmode cover\n", "missing places directive"),
        ("places p\ntarget 0\n", "missing init directive"),
    ],
)
def test_malformed_inputs_are_rejected(text, fragment):
    with pytest.raises(NetFormatError) as exc:
        parse_instance(text)
    assert fragment in str(exc.value).lower()


def test_error_carries_line_number():
    text = "places p\ntransition t pre 0 post 1 junk\ninit 0\ntarget 0\n"
    with pytest.raises(NetFormatError) as exc:
        parse_instance(text)
    assert exc.value.line == 2
    assert "line 2" in str(exc.value)


@pytest.mark.parametrize("brk", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_only_universal_newlines_end_a_line(brk):
    # str.splitlines would split on brk too and report line 3.
    text = f"places p1{brk}\ntransition t pre 1 post x\ninit 1\ntarget 0\n"
    with pytest.raises(NetFormatError) as exc:
        parse_instance(text)
    assert exc.value.line == 2
    for eol in ("\r\n", "\r"):
        with pytest.raises(NetFormatError) as exc:
            parse_instance(text.replace("\n", eol))
        assert exc.value.line == 2, eol
    # Inside a line such a character only separates tokens.
    inst = parse_instance(f"places p1{brk}p2\ninit 1 2\ntarget 0{brk}0\n")
    assert inst.net.places == ("p1", "p2") and inst.m_final == (0, 0)


@pytest.mark.parametrize("bad", ["a b", "", " p", "p\n", "p\x0cq", "p\u2028"])
def test_format_instance_refuses_a_name_it_cannot_write(bad):
    # the model types accept any name; only the writer needs single tokens
    good = Transition("t", (1, 0), (0, 1))
    for places, t in (((bad, "q"), good), (("p", "q"), Transition(bad, (1, 0), (0, 1)))):
        inst = Instance(PetriNet(places, (t,)), (1, 0), (0, 1), Mode.REACH)
        with pytest.raises(ValueError) as exc:
            format_instance(inst)
        assert str(exc.value).startswith(f"name {bad!r} is not one token")
    # the first offending name is the one reported, places before transitions
    net = PetriNet(("p", "q r", "s t"), (Transition("u v", (1, 0, 0), (0, 1, 0)),))
    with pytest.raises(ValueError, match="name 'q r'"):
        format_instance(Instance(net, (1, 0, 0), (0, 1, 0), Mode.REACH))


def test_unknown_directive_rejected():
    with pytest.raises(NetFormatError):
        parse_instance("places p\nfoo bar\ninit 0\ntarget 0\n")
