"""The README's library example and CLI examples run as written."""

import json
import re
import shlex
from pathlib import Path

from diagdeform import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README.read_text(), re.S)


def test_readme_python_block_runs(capsys):
    blocks = _blocks("python")
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    out = capsys.readouterr().out.splitlines()
    # eta_1, the first correction, is the one the README shows
    assert "{(1, 2): Fraction(1, 2)}" in out
    # each `print(...)  # text` comment begins with the line that print writes
    comments = re.findall(r"^print\(.*\)\s+# (.*)$", blocks[0], re.M)
    assert len(comments) == len(out)
    for comment, line in zip(comments, out):
        assert comment.startswith(line)


def _transcript(command):
    """The lines after `$ diagdeform <command>` in a README text block."""
    for block in _blocks("text"):
        first, _, rest = block.partition("\n")
        if first == f"$ diagdeform {command}":
            return rest
    raise AssertionError(f"no README transcript of {command}")


def test_readme_sphere_transcript_is_the_cli_output(capsys):
    assert cli.main(["sphere", "h2", "--cutoff", "3"]) == 0
    assert capsys.readouterr().out == _transcript("sphere h2 --cutoff 3")


def test_readme_weyl_eta_json_shows_the_real_etas(capsys):
    shown = re.search(r'"eta": (\{.*?\n    \})',
                      _transcript("weyl eta --order 2 --json"), re.S).group(1)
    assert cli.main(["weyl", "eta", "--order", "2", "--json"]) == 0
    assert json.loads(shown) == json.loads(capsys.readouterr().out)["payload"]["eta"]


def test_readme_tour_commands_exit_zero(tmp_path, monkeypatch, capsys):
    (cocycle,) = _blocks("json")
    (tmp_path / "coc.json").write_text(cocycle)
    monkeypatch.chdir(tmp_path)
    (tour,) = [b for b in _blocks("sh")
               if all(line.startswith("diagdeform ") for line in b.splitlines())]
    commands = [shlex.split(line, comments=True)[1:] for line in tour.splitlines()]
    assert len(commands) == 11
    for argv in commands:
        assert cli.main(argv) == 0, argv
        capsys.readouterr()
