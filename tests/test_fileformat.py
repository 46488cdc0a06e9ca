"""Net file parsing and serialization."""

import random
import re

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
    random_instance,
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


@pytest.mark.parametrize("eol", [b"\n", b"\r\n", b"\r"])
def test_load_instance_skips_a_byte_order_mark(tmp_path, eol):
    path = tmp_path / "bom.net"
    path.write_bytes(b"\xef\xbb\xbf" + EXAMPLE.encode().replace(b"\n", eol))
    assert load_instance(str(path)) == two_place_instance()


@pytest.mark.parametrize("seed", range(40))
def test_format_parse_round_trip_over_random_instances(seed):
    rng = random.Random(seed)
    inst = random_instance(
        seed,
        places=rng.randint(1, 4),
        transitions=rng.randint(0, 4),
        max_flow=rng.choice((0, 1, 4, 10**6)),
        max_marking=rng.choice((0, 1, 4, 10**6)),
        mode=rng.choice((Mode.REACH, Mode.COVER)),
    )
    lines = format_instance(inst).split("\n")
    for _ in range(rng.randint(1, 4)):
        lines.insert(rng.randint(0, len(lines)), rng.choice(("", "# note", " \t# indented", "\t")))
    for eol in ("\n", "\r\n", "\r"):
        assert parse_instance(eol.join(lines)) == inst, repr(eol)


def test_integer_tokens_are_what_int_accepts():
    # A sign, single underscores between digits and non-ASCII decimal
    # digits are all part of the format, as int() reads them.
    inst = parse_instance(
        "places p q r\ntransition t pre +3 1_0 \u0663 post -0 +0 0\n"
        "init +3 1_0 0\ntarget 0 0 \u0663\n"
    )
    assert inst.net.transitions[0].pre == (3, 10, 3)
    assert inst.net.transitions[0].post == (0, 0, 0)
    assert inst.m_init == (3, 10, 0) and inst.m_final == (0, 0, 3)
    for bad in ("1__0", "_1", "1_", "0x1", "1.0", "1e3", "++1"):
        with pytest.raises(NetFormatError, match=re.escape(f"init: '{bad}' is not an integer")):
            parse_instance(f"places p\ninit {bad}\ntarget 0\n")


def test_integer_over_the_digit_limit_is_named_briefly(int_digit_limit):
    # int() refuses these valid integers only for their length; the message
    # says so, counts the digits (no sign, no underscores) and quotes 20 chars.
    limit = "over the limit sys.get_int_max_str_digits() = 4300"
    cases = [
        ("1" * 5000, f"'11111111111111111111'... has 5000 digits, {limit}"),
        ("-" + "1_" * 4400 + "1", f"'-1_1_1_1_1_1_1_1_1_1'... has 4401 digits, {limit}"),
    ]
    for tok, problem in cases:
        with pytest.raises(NetFormatError) as exc:
            parse_instance(f"places p\ninit {tok}\ntarget 0\n")
        assert (str(exc.value), exc.value.line) == (f"line 2: init: {problem}", 2)
    at_limit = parse_instance("places p\ninit " + "1" * 4300 + "\ntarget 0\n")
    assert at_limit.m_init == (int("1" * 4300),)


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


P = "places p q\n"
SHAPE = "expected: transition <name> pre <2 ints> post <2 ints>"


# Every message the reader raises, in full, with the line it names. The
# messages and line numbers are part of the format: a faster reader has to
# give exactly these.
@pytest.mark.parametrize(
    "text,message,line",
    [
        ("places p\nplaces q\ninit 0\ntarget 0\n", "line 2: duplicate places directive", 2),
        ("# x\nplaces\ninit 0\ntarget 0\n", "line 2: places directive needs at least one name", 2),
        ("places p q p\n", "line 1: duplicate place name", 1),
        ("\ntransition t pre 0 post 1\n", "line 2: transition before places directive", 2),
        (P + "transition t pre 0 post 1\n", f"line 2: {SHAPE}", 2),
        (P + "transition t pre 0 1 post 1 0 2\n", f"line 2: {SHAPE}", 2),
        (P + "transition t prx 0 1 post 1 0\n", f"line 2: {SHAPE}", 2),
        (P + "transition t pre 0 1 pst 1 0\n", f"line 2: {SHAPE}", 2),
        (
            P + "transition t pre 0 1 post 1 0\ntransition t pre 0 1 post 1 0\n",
            "line 3: duplicate transition name 't'",
            3,
        ),
        (P + "transition t pre 0 x post 1 y\n", "line 2: pre: 'x' is not an integer", 2),
        (P + "transition t pre 0 1 post 1 1.5\n", "line 2: post: '1.5' is not an integer", 2),
        (P + "transition t pre 0 -1 post 1 0\n", "line 2: transition 't': negative flow entry", 2),
        (P + "transition t pre 0 1 post -1 0\n", "line 2: transition 't': negative flow entry", 2),
        ("init 0\nplaces p\n", "line 1: init before places directive", 1),
        ("target 0\nplaces p\n", "line 1: target before places directive", 1),
        (P + "init 0 0\n\ninit 0 0\n", "line 4: duplicate init directive", 4),
        (P + "target 0 0\ntarget 0 0\n", "line 3: duplicate target directive", 3),
        (P + "init 0 0x1\n", "line 2: init: '0x1' is not an integer", 2),
        (P + "init 0 " + "x" * 30 + "\n", "line 2: init: 'xxxxxxxxxxxxxxxxxxxx'... is not an integer", 2),
        (P + "target \u0663 a\n", "line 2: target: 'a' is not an integer", 2),
        (P + "init 0\n", "line 2: init has 1 entries, expected 2", 2),
        (P + "target 0 0 0\n", "line 2: target has 3 entries, expected 2", 2),
        (P + "init 0 -1\n", "line 2: init marking must be non-negative", 2),
        (P + "target -1 0\n", "line 2: target marking must be non-negative", 2),
        (P + "mode cover\nmode cover\n", "line 3: duplicate mode directive", 3),
        (P + "mode fly\n", "line 2: mode must be 'reach' or 'cover'", 2),
        (P + "mode cover reach\n", "line 2: mode must be 'reach' or 'cover'", 2),
        (P + "mode\n", "line 2: mode must be 'reach' or 'cover'", 2),
        (P + "foo 1\n", "line 2: unknown directive 'foo'", 2),
        (P + "x#y\n", "line 2: unknown directive 'x#y'", 2),
        ("\ufeffplaces p\n", "line 1: unknown directive '\\ufeffplaces'", 1),
        ("# only a comment\n\nmode cover\n", "missing places directive", None),
        (P + "target 0 0\n", "missing init directive", None),
        (P + "init 0 0\n", "missing target directive", None),
        (P + "init 0 0\r\ntransition t pre 1 post 1\r\ntarget 0 0\r\n", f"line 3: {SHAPE}", 3),
        (P + "init 0 0\rtransition t pre 1 1 post 1 z\n", "line 3: post: 'z' is not an integer", 3),
    ],
)
def test_every_parse_error_is_pinned(text, message, line):
    with pytest.raises(NetFormatError) as exc:
        parse_instance(text)
    assert (str(exc.value), exc.value.line) == (message, line)


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


def test_format_instance_refuses_a_net_without_places():
    # "places" with no name after it is a parse error, so writing it would
    # break parse_instance(format_instance(i)) == i
    inst = Instance(PetriNet((), ()), (), (), Mode.REACH)
    with pytest.raises(ValueError, match="net without places"):
        format_instance(inst)


def test_unknown_directive_rejected():
    with pytest.raises(NetFormatError):
        parse_instance("places p\nfoo bar\ninit 0\ntarget 0\n")
