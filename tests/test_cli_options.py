"""Every option acts: each option of each subcommand is read, as
``args.<dest>``, in the source of the function that runs the subcommand."""

import argparse
import ast
import inspect

from cfz import cli


def unread_options(parser):
    """``command --option`` for each option of each subcommand of parser
    whose dest the subcommand's ``func`` default never reads."""
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    unread = []
    for name, sp in sub.choices.items():
        tree = ast.parse(inspect.getsource(sp.get_default("func")))
        (func,) = tree.body
        arg = func.args.args[0].arg
        read = {node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == arg}
        unread += [f"{name} {a.option_strings[0]}" for a in sp._actions
                   if not isinstance(a, argparse._HelpAction) and a.dest not in read]
    return unread


def _reads_a(args):
    return args.a


def test_the_scan_finds_an_option_nobody_reads():
    parser = argparse.ArgumentParser()
    sp = parser.add_subparsers().add_parser("run")
    sp.add_argument("--a")
    sp.add_argument("--b-c", action="store_true")
    sp.set_defaults(func=_reads_a)
    assert unread_options(parser) == ["run --b-c"]


def test_every_option_is_read_by_its_command():
    assert unread_options(cli.build_parser()) == []
