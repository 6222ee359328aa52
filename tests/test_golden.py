"""The golden table (golden.py) and the committed worlds (worlds.py)."""

import pytest

import golden
import worlds


@pytest.mark.parametrize("row", golden.ROWS, ids=[row.argv for row in golden.ROWS])
def test_golden_row(row, tmp_path):
    assert golden.check(row, tmp_path) == []


@pytest.mark.parametrize("name", sorted(worlds.WORLDS))
def test_committed_world_is_the_generators_output(name):
    text = worlds.render(worlds.WORLDS[name]())
    assert (worlds.SCENARIOS / name).read_bytes() == text.encode()
