"""argparse's parser for the command line's option table: help and usage errors.

:func:`slicemon.cli.parse_args` reads a well-formed command line itself and
imports this module, and with it :mod:`argparse`, only for every other
command line, and :func:`slicemon.cli.cmd_monitor` for a usage error it
finds.  So ``--help`` and every usage error read as argparse writes them.
"""

from __future__ import annotations

import argparse

__all__ = ["build_parsers"]


def build_parsers(
    commands: dict[str, tuple],
) -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser for ``commands`` (:data:`slicemon.cli.COMMANDS`), and each subcommand's."""
    parser = argparse.ArgumentParser(
        prog="slicemon",
        description="Slice and monitor parameter-carrying event traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}
    for command, (summary, func, options) in commands.items():
        subparser = subparsers[command] = sub.add_parser(command, help=summary)
        for flag, keywords in options.items():
            if "type" in keywords:
                keywords = dict(keywords, type=_reported(keywords["type"]))
            subparser.add_argument(flag, **keywords)
        subparser.set_defaults(func=func)
    return parser, subparsers


def _reported(convert):
    """``convert`` as an argparse type: the text of its ValueError is the usage error."""

    def typed(text: str):
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return typed
