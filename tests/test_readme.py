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


def test_efficiency_follows_the_walkthrough_config(tmp_path):
    # 1 attached layer, 4 experts, width 8, inference width 2, 4 samples.
    config, _, _ = _walkthrough()
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "eff"
    assert cli.main(["efficiency", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
    assert (out / "efficiency.csv").read_text(encoding="utf-8") == (
        "variant,params,params_pct,macs_per_token,macs_pct\n"
        "weight_space,96,1.2e-05,128,1.6e-05\n"
        "vglr_mf,32,4e-06,48,6e-06\n"
        "vglr_fc,44,5.5e-06,84,1.05e-05\n"
        "vtsr,21,2.625e-06,22,2.75e-06\n")
    assert json.loads((out / "efficiency.json").read_text())["spec"] == {
        "layers": 1, "num_experts": 4, "hidden_dim": 8, "inference_width": 2,
        "samples": 4, "base_active_params": 800e6,
        "base_macs_per_token": 800e6}
