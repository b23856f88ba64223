"""Random command lines over every subcommand of `tx`: whatever the machine,
number or path it is given, main returns or exits with 0, 1 or 2, and no
other exception escapes it."""

import argparse
import io
import random

import pytest

from cantortx.cli import build_parser, main
from cantortx.machines import machine_T, realize
from cantortx.textio import serialize
from cantortx.transducer import Transducer

NUMBERS = ("0", "1", "2", "3", "-1", "x", "", "1.5")
VALUES = {
    "name": ("g4", "T:3", "U:4", "A:3", "B:2", "piR:2", "id:3", "T:1", "T:0",
             "T:x", "Q:3", "T", ""),
    "cls": ("1,2", "0", "2", "", "e", "x", "1,,2", "7"),
    "sigs": ("1", "1,5", "2", "3,5", "-1", "x", "", "1,"),
    "suite": ("F-relations", "nope"),
    "root": ("0", "1", "a", "z"),
}


def subcommands():
    """{name: subparser} of tx."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def random_machine(rng):
    """The text of a random plain machine: n = 2..4, 1..3 states, outputs
    of up to 2 letters."""
    n = rng.randint(2, 4)
    states = range(rng.randint(1, 3))
    table = {
        q: {i: (tuple(rng.randrange(n) for _ in range(rng.randint(0, 2))), rng.choice(states))
            for i in range(n)}
        for q in states
    }
    return serialize(Transducer(n, table))


def dotted_output(rng, text):
    """A plain machine's text with one output replaced by a dotted word,
    which only an initial machine may output."""
    lines = text.splitlines()
    k = rng.randrange(1, len(lines))
    lines[k] = lines[k].rpartition(":")[0] + ": " + rng.choice((".0", ".1,0", ".0,1,1"))
    return "\n".join(lines) + "\n"


def random_text(rng, realized):
    """A random machine, a realized (initial) machine, a plain machine with
    a dotted output, or a malformed text."""
    kind = rng.randrange(7)
    if kind < 3:
        return random_machine(rng)
    if kind == 3:
        return realized
    if kind == 4:
        return dotted_output(rng, random_machine(rng))
    text = random_machine(rng)
    return rng.choice((text[: rng.randrange(len(text))], "", "garbage\n"))


def random_argv(rng, name, parser, paths):
    argv = [name]
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if not action.option_strings:
            argv.append(rng.choice(paths))
        elif action.nargs == 0:
            if rng.random() < 0.5:
                argv.append(action.option_strings[0])
        elif action.required or action.dest == "suite" or rng.random() < 0.5:
            # the default suite, the whole paper, would dominate the run time
            if action.required and rng.random() < 0.05:
                continue  # a missing required option is a usage error
            argv += [action.option_strings[0], rng.choice(VALUES.get(action.dest, NUMBERS))]
    return argv


def test_every_subcommand_exits_zero_one_or_two(tmp_path, capsys, monkeypatch):
    rng = random.Random(21)
    realized = serialize(realize(machine_T(3), 2))
    paths = ["-", str(tmp_path / "missing.tx"), str(tmp_path)]
    for k in range(12):
        path = tmp_path / f"m{k}.tx"
        path.write_text(random_text(rng, realized))
        paths.append(str(path))
    commands = subcommands()
    seen = set()
    for _ in range(300):
        name = rng.choice(sorted(commands))
        argv = random_argv(rng, name, commands[name], paths)
        monkeypatch.setattr("sys.stdin", io.StringIO(random_text(rng, realized)))
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - any escape fails the test
            pytest.fail(f"tx {' '.join(map(repr, argv))} raised {exc!r}")
        capsys.readouterr()
        assert code in (0, 1, 2), argv
        seen.add((name, code))
    assert {name for name, _ in seen} == set(commands)
    assert {code for _, code in seen} == {0, 1, 2}
