"""Every CSV table ``rld`` writes follows one cell rule.

Each command runs once on the shipped scenario.  Its header is one of the
column lists the README documents; an integer column holds integers, a
text column text, and every other cell is a float written as
``repr(float(v))``, so it reads back to the same double.  An empty cell
(a NaN) appears only in the residual column of the ``3sigma`` rule, which
solves no stage equation.
"""
import csv
from pathlib import Path

import pytest
from click.testing import CliRunner

from rld.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
INTEGER = {"stage", "t", "n_runs"}
TEXT = {"engine", "policy"}
FAST = ["--policy", "3sigma,ct", "--runs", "20", "--no-timing"]

COMMANDS = {
    **{f"thresholds-{e}": ["thresholds", "--engine", e] for e in ("3sigma", "lattice", "mc", "ct")},
    "simulate": ["simulate", "--engine", "ct", "--seed", "1"],
    "benchmark": ["benchmark", *FAST],
    "sweep-csv": ["sweep", "--axis", "D", "--grid", "0.1,0.3", *FAST],
    "sweep-plotdata": ["sweep", "--axis", "B", "--grid", "1e-3,1e-2", "--format", "plotdata",
                       *FAST],
    "rbm-table": ["rbm-table"],
}


@pytest.mark.parametrize("name", COMMANDS)
def test_every_cell_follows_the_rule(tmp_path, name):
    result = CliRunner().invoke(main, [*COMMANDS[name], "--out", str(tmp_path / "table")])
    assert result.exit_code == 0, result.output
    written = sorted(tmp_path.iterdir())
    assert written
    for path in written:
        with open(path, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert f"`{','.join(header)}`" in README, (path.name, header)
        assert rows
        for row in rows:
            assert len(row) == len(header)
            for column, cell in zip(header, row):
                if column in INTEGER:
                    assert cell == str(int(cell)), (path.name, column, cell)
                elif column in TEXT:
                    assert cell, (path.name, column)
                elif cell == "":
                    assert column == "residual" and row[header.index("engine")] == "3sigma"
                else:
                    assert repr(float(cell)) == cell, (path.name, column, cell)
