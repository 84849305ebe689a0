"""README.md's CLI walkthrough runs as written: its ``vroute`` commands exit
0 on its config, the run directory holds exactly the files its artifact
table names, and that table agrees with ``cli.ARTIFACTS``."""
import json
import pathlib
import re
import shlex

from vroute import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
FENCE = re.compile(r"^```(\w*)\n(.*?)^```", re.MULTILINE | re.DOTALL)
TABLE_ROW = re.compile(r"^\| `([\w-]+)` \| (.*) \|$", re.MULTILINE)
FILE = re.compile(r"`([\w.]+\.(?:npz|csv|json|svg))`")


def _walkthrough():
    """The config, the ``vroute`` commands and the artifact table of the
    README's walkthrough section."""
    text = README.read_text(encoding="utf-8")
    text = text.split("\n## The CLI on a tiny config\n")[1].split("\n## ")[0]
    fences = FENCE.findall(text)
    [config] = [body for lang, body in fences if lang == "json"]
    commands = [shlex.split(line) for lang, body in fences if lang == "sh"
                for line in body.splitlines() if line.startswith("vroute ")]
    table = {cmd: set(FILE.findall(cells))
             for cmd, cells in TABLE_ROW.findall(text)}
    return json.loads(config), commands, table


def test_walkthrough_commands_write_the_named_files(tmp_path, monkeypatch):
    config, commands, table = _walkthrough()
    assert [argv[1] for argv in commands] == list(table)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tiny.json").write_text(json.dumps(config))
    for argv in commands:
        assert cli.main(argv[1:]) == 0, " ".join(argv)
    named = set().union(*table.values())
    assert sorted(p.name for p in (tmp_path / "runs" / "tiny").iterdir()) \
        == sorted(named)


def test_artifact_table_names_each_pattern_of_its_command():
    _, _, table = _walkthrough()
    assert set(table) == set(cli.ARTIFACTS)
    for cmd, named in table.items():
        patterns = {p: re.compile(re.escape(p).replace(r"\{variant\}", r"\w+"))
                    for p in cli.ARTIFACTS[cmd]}
        for name in named:
            assert any(r.fullmatch(name) for r in patterns.values()), \
                f"{cmd} writes no {name}"
        for p, r in patterns.items():
            assert any(r.fullmatch(name) for name in named), \
                f"the README names no {p} for {cmd}"
