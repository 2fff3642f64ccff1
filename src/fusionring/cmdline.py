"""A command line read against a table of subcommands.

A CommandLine holds the table: each subcommand's handler, help line,
positionals and options, plus the options every subcommand takes.  Its
parse reads argv once, left to right:

- Ahead of the subcommand only -h/--help and --version are read.
- After it, the first "--" ends the options; every later argument is a
  positional, another "--" too.  Before that, an argument is an option when
  it starts with "-", is not "-" or a negative number, and has no space
  before any "=".  Options are -h, --help, and --NAME, --NAME=V or
  --NAME V, NAME cut to any unique prefix, an exact name winning.  A value
  in the next argument is refused when that argument is "--" or an option.
  Every other argument fills the next positional at once, its choices
  checked then.
- The first error ends parsing.  Unknown options and surplus positionals
  are reported together, in argv order, after a missing positional.  -h
  answers unless an error came before it.

The words of each usage error are argparse's, which this replaces: building
an argparse parser, and the locale import that its first message makes,
cost 7-8 ms in every CLI process.  Help and usage text are generated from
the table.  Nothing is read from the environment.
"""

from __future__ import annotations

import re
from types import SimpleNamespace
from typing import Any, Callable, Iterable, Optional

# plain classes, since every CLI process pays for its classes at import.
# Creating one six-field class took 0.02 ms as a plain class, 0.17-0.29 ms
# as a NamedTuple and 1.1-1.7 ms as a frozen dataclass, and importing
# dataclasses took 8-10 ms more (Python 3.11, no .pyc, a 2-vCPU Xeon VM)


class Positional:
    """A positional argument; `choices` empty means any value.  Optional
    ones come after the required ones and are None when absent."""

    __slots__ = ("name", "help", "choices", "optional")

    def __init__(
        self, name: str, help: str, choices: tuple[str, ...] = (), optional: bool = False
    ) -> None:
        self.name, self.help, self.choices, self.optional = name, help, choices, optional


class Option:
    """A long option.  `metavar` None makes it a flag, True when given;
    otherwise `type` turns its value into the attribute, raising ValueError
    with the message for a bad one, and `choices`, when not empty, lists
    the values allowed."""

    __slots__ = ("name", "metavar", "help", "type", "default", "choices")

    def __init__(
        self,
        name: str,
        metavar: Optional[str],
        help: str,
        type: Callable[[str], Any] = str,
        default: Any = None,
        choices: tuple[str, ...] = (),
    ) -> None:
        self.name, self.metavar, self.help, self.type, self.default = (
            name, metavar, help, type, default,
        )
        self.choices = choices

    @property
    def spelling(self) -> str:
        return f"--{self.name}" if self.metavar is None else f"--{self.name} {self.metavar}"


class Command:
    """A subcommand: its handler, help line, positionals and own options
    (the shared ones come on top); `exclusive` names options of which at
    most one may be given."""

    __slots__ = ("handler", "help", "positionals", "options", "exclusive")

    def __init__(
        self,
        handler: Callable[[SimpleNamespace], tuple[Any, int]],
        help: str,
        positionals: tuple[Positional, ...],
        options: tuple[Option, ...] = (),
        exclusive: tuple[str, ...] = (),
    ) -> None:
        self.handler, self.help, self.positionals = handler, help, positionals
        self.options, self.exclusive = options, exclusive


class ParseExit(Exception):
    """Parsing ends without a command to run: help or version text (code 0,
    for stdout) or a usage error (code 2, for stderr)."""

    def __init__(self, code: int, text: str) -> None:
        super().__init__(text)
        self.code = code
        self.text = text


class UsageError(Exception):
    """A usage error; its text is what follows "error: "."""


def _invalid_choice(text: str, choices: Iterable[str]) -> str:
    return f"invalid choice: {text!r} (choose from {', '.join(map(repr, choices))})"


def _check_choice(name: str, value: str, choices: Iterable[str]) -> None:
    if choices and value not in choices:
        raise UsageError(f"argument {name}: {_invalid_choice(value, choices)}")


_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _is_option(arg: str) -> bool:
    """Whether arg reads as an option: it starts with "-", is not "-" or a
    negative number, and has no space before any "=" ("-a b" is a word)."""
    return (
        arg[:1] == "-"
        and arg != "-"
        and not _NEGATIVE_NUMBER.match(arg)
        and " " not in arg.partition("=")[0]
    )


def _spelled(arg: str, names: list[str]) -> tuple[Optional[str], Optional[str]]:
    """The name of the option that arg spells ("help" for -h) and the value
    it gives after "=", None when it has no "="; (None, None) for an option
    not in names.  --NAME may be cut to a unique prefix, an exact name
    winning."""
    if arg[:2] == "--":
        typed, equals, value = arg[2:].partition("=")
        matches = [typed] if typed in names else [n for n in names if n.startswith(typed)]
        if len(matches) > 1:
            listed = ", ".join(f"--{name}" for name in matches)
            raise UsageError(f"ambiguous option: {arg} could match {listed}")
        return (matches[0], value if equals else None) if matches else (None, None)
    if arg == "-h":
        return "help", None
    if arg[:2] != "-h":
        return None, None
    # -h runs on as -hh.. or -h=..: each further h is another -h, as in
    # argparse, and what follows them is the value (-hhx gives "x")
    tail = arg[3:] if arg[2] == "=" else arg[2:]
    return "help", (tail.lstrip("h") or None) if tail else ""


def _check_flag(name: str, value: Optional[str]) -> None:
    """Refuse a value given to a flag."""
    if value is not None:
        label = "-h/--help" if name == "help" else f"--{name}"
        raise UsageError(f"argument {label}: ignored explicit argument {value!r}")


class CommandLine:
    """A program's command line: its name, description and version, its
    subcommands, and the options they all take, listed ahead of each
    subcommand's own."""

    __slots__ = ("prog", "description", "version", "commands", "shared")

    def __init__(
        self,
        prog: str,
        description: str,
        version: str,
        commands: dict[str, Command],
        shared: tuple[Option, ...],
    ) -> None:
        self.prog, self.description, self.version = prog, description, version
        self.commands, self.shared = commands, shared

    def usage(self, command: Optional[str]) -> str:
        if command is None:
            return f"{self.prog} [-h] [--version] {{{','.join(self.commands)}}} ..."
        cmd = self.commands[command]
        parts = [self.prog, command, "[-h]"]
        parts += [f"[{opt.spelling}]" for opt in (*self.shared, *cmd.options)]
        for pos in cmd.positionals:
            label = f"{{{','.join(pos.choices)}}}" if pos.choices else pos.name
            parts.append(f"[{label}]" if pos.optional else label)
        return " ".join(parts)

    def help(self, command: Optional[str]) -> str:
        help_row = ("-h, --help", "show this help message and exit")
        if command is None:
            description = self.description
            sections = [
                ("commands", [(name, cmd.help) for name, cmd in self.commands.items()]),
                ("options", [help_row, ("--version", "show the version and exit")]),
            ]
        else:
            cmd = self.commands[command]
            description = cmd.help
            options = [(opt.spelling, opt.help) for opt in (*self.shared, *cmd.options)]
            sections = [
                ("positional arguments", [(pos.name, pos.help) for pos in cmd.positionals]),
                ("options", [help_row, *options]),
            ]
        width = max(len(left) for _, rows in sections for left, _ in rows)
        lines = [f"usage: {self.usage(command)}", "", description]
        for title, rows in sections:
            lines += ["", f"{title}:"]
            lines += [f"  {left:<{width}}  {text}" for left, text in rows]
        return "\n".join(lines) + "\n"

    def parse(self, argv: list[str]) -> SimpleNamespace:
        """Arguments of one invocation, argv[0] naming the subcommand, as a
        namespace with one attribute per positional and option of the
        subcommand (and `command`).  Raises ParseExit for help, version
        and usage errors."""
        command = None
        extras: list[str] = []  # unknown options and surplus positionals
        try:
            command, rest = self._split_command(argv, extras)
            return self._parse_command(command, rest, extras)
        except UsageError as exc:
            prog = self.prog if command is None else f"{self.prog} {command}"
            raise ParseExit(2, f"usage: {self.usage(command)}\n{prog}: error: {exc}\n") from None

    def _split_command(self, argv: list[str], extras: list[str]) -> tuple[str, list[str]]:
        """The subcommand argv names and the arguments after it.  Ahead of
        it only -h/--help and --version are read; the first other argument
        that is not an option names it ("--" included)."""
        for i, arg in enumerate(argv):
            if arg == "--" or not _is_option(arg):
                _check_choice("command", arg, self.commands)
                return arg, argv[i + 1 :]
            name, value = _spelled(arg, ["help", "version"])
            if name is None:
                extras.append(arg)
                continue
            _check_flag(name, value)
            if name == "version":
                raise ParseExit(0, f"{self.prog} {self.version}\n")
            raise ParseExit(0, self.help(None))
        raise UsageError("the following arguments are required: command")

    def _parse_command(self, command: str, rest: list[str], extras: list[str]) -> SimpleNamespace:
        cmd = self.commands[command]
        options = {opt.name: opt for opt in (*self.shared, *cmd.options)}
        names = ["help", *options]
        args = SimpleNamespace(command=command)
        for opt in options.values():
            setattr(args, opt.name, opt.default)
        pending = list(cmd.positionals)

        def take(arg: str) -> None:
            if not pending:
                extras.append(arg)
                return
            pos = pending.pop(0)
            _check_choice(pos.name, arg, pos.choices)
            setattr(args, pos.name, arg)

        chosen = None
        words = iter(rest)
        for arg in words:
            if arg == "--":  # the rest are positionals
                break
            if not _is_option(arg):
                take(arg)
                continue
            name, value = _spelled(arg, names)
            if name is None:
                extras.append(arg)
                continue
            if name == "help":
                _check_flag(name, value)
                raise ParseExit(0, self.help(command))
            opt = options[name]
            if opt.metavar is None:
                _check_flag(name, value)
                value = True
            else:
                if value is None:
                    value = next(words, "--")  # "--" stands for no argument
                    if _is_option(value):
                        raise UsageError(f"argument --{name}: expected one argument")
                try:
                    value = opt.type(value)
                except ValueError as exc:
                    raise UsageError(f"argument --{name}: {exc}") from None
                _check_choice(f"--{name}", value, opt.choices)
            if name in cmd.exclusive:
                if chosen not in (None, name):
                    raise UsageError(f"argument --{name}: not allowed with argument --{chosen}")
                chosen = name
            setattr(args, opt.name, value)
        for arg in words:
            take(arg)

        for pos in pending:
            setattr(args, pos.name, None)
        missing = [pos.name for pos in pending if not pos.optional]
        if missing:
            raise UsageError(f"the following arguments are required: {', '.join(missing)}")
        if extras:
            raise UsageError(f"unrecognized arguments: {' '.join(extras)}")
        return args
