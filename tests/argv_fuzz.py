"""Random command lines, read by cli._parse_args and by build_parser().parse_args: the two must
give the same namespace, or the same exit code and the same bytes of help or usage error.

    PYTHONPATH=src python3 tests/argv_fuzz.py [COUNT] [SEED]

It needs nothing past the standard library, so it runs under every supported Python with or
without pytest, and exits 1 on the first difference; test_cli.py draws command lines from
command_line too.
"""

import contextlib
import io
import random
import sys

from zmdiff.cli import COMMANDS, _parse_args, _read_args, build_parser

# values that every int flag converts, the way argparse reads them
INTS = ("0", "7", "360", "-1", "-0", "+5", " 4", "١٢", "-١٢", "1_000", "12345678901234567890")
VALUES = {"--format": ("text", "json"), "--input": ("problem.json", "", "a b", "-3"),
          "--alpha": ("1,2", "", "-1,3", "7")}
# words that leave a command line to argparse, or that argparse refuses
ODD = ("-1 2", "-5 ", "-5_0", "--input=x", "--format=json", "--", "-", "-x", "-h", "--hor",
       "--nope", "abc", "1.5", "xml", "1,,2", "solve")


def command_line(rng: random.Random, odd: float = 0.3) -> list[str]:
    """A well-formed command line: some of a command's flags in any order, each with a value it
    takes, a repeated flag now and then, and verify's candidates before, after or between them.
    With chance `odd` one word is then replaced, inserted or dropped."""
    name = rng.choice(sorted(COMMANDS))
    flags = [row[0] for row in COMMANDS[name][2] if row[0].startswith("--")]
    groups = [[flag, rng.choice(VALUES.get(flag, INTS))]
              for flag in rng.sample(flags, rng.randint(0, len(flags)))]
    if groups and rng.random() < 0.2:
        groups.append([groups[0][0], rng.choice(VALUES.get(groups[0][0], INTS))])
    if name == "verify":
        groups.insert(rng.randint(0, len(groups)), rng.choices(INTS, k=rng.randint(1, 4)))
    words = [name, *(word for group in groups for word in group)]
    if rng.random() < odd:
        at, how = rng.randint(1, len(words)), rng.randrange(3)
        if how == 0 and at < len(words):
            words[at] = rng.choice(ODD + INTS)
        elif how == 1:
            words.insert(at, rng.choice(ODD + INTS))
        elif at < len(words):
            del words[at]
    return words


def parsed(parse, argv):
    """(vars of the namespace or the SystemExit code, stdout, stderr) of parse(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


def main(count: int = 50_000, seed: int = 0) -> int:
    rng, read = random.Random(seed), 0
    for i in range(count):
        argv = command_line(rng)
        if parsed(_parse_args, argv) != parsed(build_parser().parse_args, argv):
            print(f"command line {i} parses differently: {argv!r}")
            return 1
        read += _read_args(argv[0], argv[1:]) is not None
    print(f"{count} command lines, {read} read off COMMANDS, 0 differences "
          f"(Python {sys.version.split()[0]})")
    return 0


if __name__ == "__main__":
    sys.exit(main(*map(int, sys.argv[1:])))
