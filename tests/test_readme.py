"""The README is the user contract; these tests pin it to the code.

Every `dialoscope ...` command in the README's `sh` blocks parses with
`cli.build_parser()`, flags spelled out in full. Every subcommand, option
string (but `-h`/`--help`) and `choices` value the parser defines appears
in the README's code, and every `--flag` there is one the parser defines,
so a flag renamed or added on either side fails here. Every `name(` and
`dialoscope.name` in "Library use", but a Python builtin, is a public
attribute of a dialoscope module.
"""
import argparse
import builtins
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import dialoscope
from dialoscope import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
_FENCED = re.compile(r"^```(\w*)\n(.*?)^```", re.M | re.S)
MODULES = [dialoscope] + [importlib.import_module(f"dialoscope.{m.name}")
                          for m in pkgutil.iter_modules(dialoscope.__path__)]


def readme_commands():
    """argv after `dialoscope` of each command in the README's `sh` blocks,
    with backslash continuations joined and comments dropped."""
    for lang, block in _FENCED.findall(README):
        if lang != "sh":
            continue
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["dialoscope"]:
                yield argv[1:]


def readme_code_tokens():
    """The words of every inline code span of the README, split at
    whitespace and `|`, and of every command `readme_commands` finds."""
    tokens = {arg for argv in readme_commands() for arg in argv}
    for span in re.findall(r"`([^`]+)`", _FENCED.sub("", README)):
        tokens.update(re.split(r"[\s|]+", span))
    return tokens


def subparsers(parser):
    """Subcommand name -> its parser."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    raise AssertionError("the parser has no subcommands")


def strict_parser():
    """`cli.build_parser()` accepting no abbreviated flag, so a README flag
    that only starts a parser flag does not parse."""
    parser = cli.build_parser()
    for p in (parser, *subparsers(parser).values()):
        p.allow_abbrev = False
    return parser


def parser_words(parser):
    """Subcommand names, option strings and choices of `parser`'s
    subcommands, leaving out -h and --help."""
    words = set()
    for name, sub in subparsers(parser).items():
        words.add(name)
        for action in sub._actions:
            words.update(s for s in action.option_strings if s not in ("-h", "--help"))
            words.update(str(c) for c in action.choices or ())
    return words


def library_names():
    """Each `name(` and `dialoscope.name` of the "Library use" section."""
    section = README.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return (set(re.findall(r"(?<![\w.])([A-Za-z_][\w.]*)\(", section))
            | set(re.findall(r"(?<![\w.])(dialoscope(?:\.\w+)+)", section)))


def resolves(name: str) -> bool:
    """Whether `name`, dotted or not and with or without a leading
    `dialoscope.`, is a public attribute of a dialoscope module."""
    parts = name.split(".")
    if parts[0] == "dialoscope":
        parts = parts[1:]
    if any(p.startswith("_") for p in parts):
        return False
    for obj in MODULES:
        try:
            for p in parts:
                obj = getattr(obj, p)
        except AttributeError:
            continue
        return True
    return False


def test_every_readme_command_parses(capsys):
    parser = strict_parser()
    commands = list(readme_commands())
    assert commands
    unparsed = []
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            unparsed.append(f"dialoscope {shlex.join(argv)}: {capsys.readouterr().err}")
    assert unparsed == []


def test_every_subcommand_has_a_readme_command():
    assert {argv[0] for argv in readme_commands()} == set(subparsers(cli.build_parser()))


def test_every_parser_word_is_in_the_readme():
    assert parser_words(cli.build_parser()) - readme_code_tokens() == set()


def test_every_readme_flag_is_a_parser_flag():
    flags = {t for t in readme_code_tokens() if re.fullmatch(r"--\w[\w-]*", t)}
    assert flags - parser_words(cli.build_parser()) == set()


def test_library_names_resolve():
    names = library_names() - set(dir(builtins))
    assert names
    assert sorted(n for n in names if not resolves(n)) == []
