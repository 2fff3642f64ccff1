"""A command line read against a table of subcommands.

A CommandLine holds the table: each subcommand's handler, help line,
positionals and options, plus the options every subcommand takes.  Its
parse reads argv left to right, each option token by getopt: options may
come before, between or after positionals, a long option may be cut to a
unique prefix and takes its value as "--opt value" or "--opt=value", and
"--" ends the options.  What is accepted or refused, what each argument
means and the words of each usage error are those of argparse 3.11, which
this replaces: building an argparse parser, and the locale import that its
first message makes, cost 7-8 ms in every CLI process.  Help and usage text
are generated from the table.  Nothing is read from the environment.
"""

from __future__ import annotations

import getopt
import re
from types import SimpleNamespace
from typing import Any, Callable, Iterable, Optional

# plain classes: a NamedTuple or dataclass costs about 0.3 ms each to create
# at import, which every CLI process would pay


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
    def dest(self) -> str:
        return self.name.replace("-", "_")

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
        handler: Callable[[SimpleNamespace], int],
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


def _read(
    arg: str, longopts: list[str]
) -> tuple[Optional[list[tuple[str, Optional[str]]]], Optional[str]]:
    """How argparse reads arg, each option token read by getopt.  A
    positional (a word, "-", "--", a negative number or an unknown option
    with a space in it) gives (None, None); an option, getopt's (flag,
    value) pairs, value None where it is to come from the next argument,
    and None; an option getopt refused, [] and the usage error argparse
    raises at once, None for an unknown option (reported last)."""
    if arg[:1] != "-" or arg in ("-", "--") or _NEGATIVE_NUMBER.match(arg):
        return None, None
    try:
        # getopt stops at the "-" unless the option takes it as its value
        found, rest = getopt.getopt([arg, "-"], "h", longopts)
    except getopt.GetoptError as exc:
        refusal = _refusal(arg, exc, longopts)
        return (None, None) if " " in arg and refusal is None else ([], refusal)
    if not rest:
        found[-1] = (found[-1][0], None)
    return found, None


def _refusal(arg: str, exc: getopt.GetoptError, longopts: list[str]) -> Optional[str]:
    """The usage error argparse raises at once for an option getopt
    refused: a flag given a value (-hx is -h given x).  None for an unknown
    option, which argparse reports after the other errors."""
    if arg[:2] == "-h":
        value = arg[3:] if arg[2:3] == "=" else arg[2:]
        while value[:1] == "h" and value[1:]:  # -hhx: -h, -h, then x
            value = value[1:]
        return f"argument -h/--help: ignored explicit argument {value!r}"
    if arg[:2] == "--" and exc.opt in longopts:
        name = "-h/--help" if exc.opt == "help" else f"--{exc.opt}"
        return f"argument {name}: ignored explicit argument {arg.partition('=')[2]!r}"
    return None


def _check_prefixes(args: list[str], names: list[str]) -> None:
    """Refuse an ambiguous prefix of a top-level option ahead of "--"
    (--=x could be --help or --version), as argparse does before it reads
    any argument.  No two options of a subcommand may share a prefix."""
    for arg in args[: args.index("--")] if "--" in args else args:
        typed = arg[2:].partition("=")[0]
        matches = [f"--{name}" for name in names if name.startswith(typed)]
        if arg[:2] == "--" and typed not in names and len(matches) > 1:
            raise UsageError(f"ambiguous option: {arg} could match {', '.join(matches)}")


def _take_positionals(
    run: list[str], pending: list[Positional], args: SimpleNamespace, extras: list[str]
) -> None:
    """Fill pending positionals from one run of positional arguments (those
    between two options, or after the last), as argparse 3.11 does: one
    argument each, in order; an optional one takes None once the run is
    used up, so a later run cannot fill it; the first "--" is dropped where
    it borders an argument taken.  What is not taken goes to extras."""
    if not run:
        return
    separator = run.index("--") if "--" in run else -1
    end = 0
    while pending:
        start = end + (end == separator)
        if start < len(run):
            value, end = run[start], start + 1
            end += end == separator
        elif pending[0].optional:
            value, end = None, start
        else:
            break
        pos = pending.pop(0)
        if value is not None:
            _check_choice(pos.name, value, pos.choices)
        setattr(args, pos.name, value)
    extras += run[end:]


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
        extras: list[str] = []
        try:
            command, rest = self._split_command(argv, extras)
            return self._parse_command(command, rest, extras)
        except UsageError as exc:
            prog = self.prog if command is None else f"{self.prog} {command}"
            raise ParseExit(2, f"usage: {self.usage(command)}\n{prog}: error: {exc}\n") from None

    def _split_command(self, argv: list[str], extras: list[str]) -> tuple[str, list[str]]:
        """The subcommand argv names and the arguments after it.  -h/--help
        and --version ahead of it end parsing; unknown options go to extras."""
        longopts = ["help", "version"]
        _check_prefixes(argv, longopts)
        for i, arg in enumerate(argv):
            found, refusal = _read(arg, longopts)
            if found is None:
                _check_choice("command", arg, self.commands)
                return arg, argv[i + 1 :]
            if refusal:
                raise UsageError(refusal)
            if not found:
                extras.append(arg)
            for flag, _ in found:
                if flag == "--version":
                    raise ParseExit(0, f"{self.prog} {self.version}\n")
                raise ParseExit(0, self.help(None))
        raise UsageError("the following arguments are required: command")

    def _parse_command(self, command: str, rest: list[str], extras: list[str]) -> SimpleNamespace:
        cmd = self.commands[command]
        options = {opt.name: opt for opt in (*self.shared, *cmd.options)}
        longopts = ["help", *(o.name + ("=" if o.metavar else "") for o in options.values())]

        args = SimpleNamespace(command=command)
        for opt in options.values():
            setattr(args, opt.dest, opt.default)
        pending = list(cmd.positionals)
        run: list[str] = []  # positionals since the last option
        chosen = None
        i = 0
        while i < len(rest):
            arg = rest[i]
            i += 1
            if arg == "--":  # the rest are positionals
                run += rest[i - 1 :]
                break
            found, refusal = _read(arg, longopts)
            if found is None:
                run.append(arg)
                continue
            _take_positionals(run, pending, args, extras)
            run = []
            if refusal:
                raise UsageError(refusal)
            if not found:
                extras.append(arg)
            for flag, text in found:
                if flag in ("-h", "--help"):
                    raise ParseExit(0, self.help(command))
                opt = options[flag[2:]]
                if opt.metavar is None:
                    value = True
                else:
                    if text is None:
                        following = rest[i] if i < len(rest) else "--"
                        if following == "--" or _read(following, longopts)[0] is not None:
                            raise UsageError(f"argument --{opt.name}: expected one argument")
                        text, i = following, i + 1
                    try:
                        value = opt.type(text)
                    except ValueError as exc:
                        raise UsageError(f"argument --{opt.name}: {exc}") from None
                    _check_choice(f"--{opt.name}", value, opt.choices)
                if opt.name in cmd.exclusive:
                    if chosen not in (None, opt.name):
                        raise UsageError(
                            f"argument --{opt.name}: not allowed with argument --{chosen}"
                        )
                    chosen = opt.name
                setattr(args, opt.dest, value)
        _take_positionals(run, pending, args, extras)

        missing = [pos.name for pos in pending if not pos.optional]
        if missing:
            raise UsageError(f"the following arguments are required: {', '.join(missing)}")
        if extras:
            raise UsageError(f"unrecognized arguments: {' '.join(extras)}")
        return args
