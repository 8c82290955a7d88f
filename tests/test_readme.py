"""The README's library quick start and command lines run as documented."""

import re
import shlex
from pathlib import Path

import pytest

from permofdm import SecretKey, cli
from permofdm.fileio import write_key_file

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_block_runs():
    text = README.read_text()
    start = text.index("```python\n") + len("```python\n")
    code = text[start:text.index("```", start)]
    exec(compile(code, f"{README}:quick-start", "exec"), {})


def readme_commands() -> list:
    """The argv of each `permofdm ...` line in the README's sh blocks, with
    continuation lines joined and comments stripped."""
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["permofdm"]:
                commands.append(argv[1:])
    return commands


COMMANDS = readme_commands()
EXPERIMENTS = {name: (cls, runner) for name, _, cls, runner in cli._EXPERIMENTS}


def test_the_command_lines_show_every_subcommand():
    assert {argv[0] for argv in COMMANDS} == {"keygen", "encrypt", "decrypt", *EXPERIMENTS}


@pytest.mark.parametrize("argv", COMMANDS,
                         ids=[f"{i}-{argv[0]}" for i, argv in enumerate(COMMANDS)])
def test_command_line_parses_and_builds_its_config(tmp_path, argv):
    """Each line parses; an experiment's config also resolves and builds, with
    a key file of its own standing in for secret.key, and is not run."""
    key = tmp_path / "secret.key"
    write_key_file(key, SecretKey(bytes(range(32))))
    args = cli.build_parser().parse_args([str(key) if a == "secret.key" else a for a in argv])
    if argv[0] in EXPERIMENTS:
        cls, runner = EXPERIMENTS[argv[0]]
        values = cli._resolve(args, cli._options(cls) + cli._runner_options(runner))
        assert isinstance(cli._build(args.parser, cls, values), cls)
