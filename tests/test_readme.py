"""Every Python block of the README runs as written, its quick-start output
is what ``run`` prints, and its config table names the fields of the config
table in ``scenario.py``."""

import re
from pathlib import Path

import pytest

from nyquist_otdm import cli, scenario

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("source", BLOCKS,
                         ids=[f"block{i}" for i in range(1, len(BLOCKS) + 1)])
def test_readme_python_block_runs(source, tmp_path, monkeypatch):
    """Each block runs on its own, in a fresh directory for what it writes."""
    monkeypatch.chdir(tmp_path)
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})


def test_quick_start_output_is_what_run_prints(capsys, monkeypatch):
    """The quick-start block is the metrics table and comb that ``run``
    prints for the bundled scenario, line for line."""
    block = re.search(r"^```\n(branch .*?)^```", README.read_text(encoding="utf-8"),
                      re.MULTILINE | re.DOTALL).group(1)
    monkeypatch.chdir(ROOT)
    assert cli.main(["run", "paper-scenarios/nyquist_qpsk_8gbd_30km.json"]) == 0
    assert capsys.readouterr().out.splitlines() == block.splitlines()


FIELDS = {row[0] for row in scenario._TRANSMISSION + scenario._COMB} - {"version"}
CONFIG_BLOCKS = {path.rpartition(".")[0] for path in FIELDS} - {""}


def _table_rows():
    """The config table's rows: block ("" for the top level) to the names
    its fields cell gives in backticks."""
    text = README.read_text(encoding="utf-8")
    table = text.split("| block | fields (defaults) |\n| --- | --- |\n")[1]
    rows = {}
    for line in table.split("\n\n")[0].splitlines():
        block, fields = line.strip("|").split("|")
        block = "" if block.strip() == "top level" else block.strip(" `")
        rows[block] = set(re.findall(r"`([^`]+)`", fields))
    return rows


def test_config_table_names_every_field():
    rows = _table_rows()
    assert rows.keys() == CONFIG_BLOCKS | {""}
    for path in FIELDS:
        block, _, field = path.rpartition(".")
        assert field in rows[block], path


def test_config_table_names_only_fields_and_blocks():
    """A row's names are its own fields, top-level fields or blocks."""
    for block, names in _table_rows().items():
        for name in names:
            assert f"{block}.{name}" in FIELDS or name in FIELDS | CONFIG_BLOCKS, \
                (block, name)


def test_every_dotted_field_in_the_readme_is_a_table_row():
    dotted = re.findall(r"`([a-z_]+\.[a-z0-9_]+)`", README.read_text(encoding="utf-8"))
    named = [path for path in dotted if path.partition(".")[0] in CONFIG_BLOCKS]
    assert named
    for path in named:
        assert path in FIELDS, path
