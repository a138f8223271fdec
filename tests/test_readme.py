"""Every ```python block in README.md runs as written, and every ```ini block loads and runs."""

import re
from pathlib import Path

import pytest

from sloccsim.cli import _COMMAND_TO_SCENARIO, main
from sloccsim.config import dump_config, load_config

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)
INI_BLOCKS = re.findall(r"^```ini\n(.*?)^```$", TEXT, re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index, capsys):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})
    assert capsys.readouterr().err == ""


def test_readme_has_ini_blocks():
    assert INI_BLOCKS


@pytest.mark.parametrize("index", range(len(INI_BLOCKS)))
def test_readme_ini_block_loads_and_round_trips(index):
    config = load_config(INI_BLOCKS[index])
    dumped = dump_config(config)
    assert load_config(dumped) == config
    assert dump_config(load_config(dumped)) == dumped


@pytest.mark.parametrize("command", _COMMAND_TO_SCENARIO)
@pytest.mark.parametrize("index", range(len(INI_BLOCKS)))
def test_readme_ini_block_runs_every_subcommand(index, command, tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text(INI_BLOCKS[index], encoding="utf-8")
    code = main([command, "--config", str(config)])
    assert code == 0, capsys.readouterr().err
