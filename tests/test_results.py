"""The committed tables under results/ are the output of the CLI commands below.

Each command is run with ``--out`` into a temporary directory and compared
with the committed file: headers and text cells exactly, numbers to rel
1e-10 (abs 1e-14 for rounding dust such as a 5.6e-16 ``abs_diff``).
Numbers are not byte-compared, because a last-ulp move in a computation can
flip the 12th printed digit.  README lists the same commands, one per line.
"""
import csv
import math
from pathlib import Path

import pytest

from leosec import cli

REPO = Path(__file__).resolve().parents[1]

ALTITUDES = "500,550,600,650,700,750,800,850,900,950,1000,1050,1100,1150,1200,1250,1300,1350,1400,1450,1500"
GAMMAS = "0.05,0.1,0.15,0.2,0.25,0.3,0.35,0.4,0.45,0.5,0.55,0.6,0.65,0.7,0.75,0.8,0.85,0.9,0.95"
# pi/12, pi/6, pi/4, pi/3, pi/2
BEAMS = "0.2617993877991494,0.5235987755982988,0.7853981633974483,1.0471975511965976,1.5707963267948966"

# committed file -> leosec arguments that regenerate it (without --out)
COMMANDS = {
    "gamma_vs_density.csv": ["sweep", "--axis1", "device_density=1e-6,1e-5,1e-4",
                             "--axis2", f"gamma={GAMMAS}", "--metric", "p_sec"],
    "altitude_sweep_p_suc.csv": ["sweep", "--axis1", f"altitude_m={ALTITUDES}", "--metric", "p_suc"],
    "altitude_sweep_p_sec.csv": ["sweep", "--axis1", f"altitude_m={ALTITUDES}", "--metric", "p_sec"],
    "availability_grid.csv": ["sweep", "--axis1", f"theta_beam={BEAMS}",
                              "--axis2", f"altitude_m={ALTITUDES}", "--metric", "p_av"],
    "validation.csv": ["validate", "--trials", "2000", "--seed", "1"],
}


def _cells_match(got: str, want: str) -> bool:
    try:
        g, w = float(got), float(want)
    except ValueError:
        return got == want
    return math.isclose(g, w, rel_tol=1e-10, abs_tol=1e-14)


def _read(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_committed_table_is_command_output(name, tmp_path):
    out = tmp_path / name
    assert cli.main([*COMMANDS[name], "--out", str(out)]) == cli.EXIT_OK
    got, want = _read(out), _read(REPO / "results" / name)
    assert got[0] == want[0]
    assert len(got) == len(want)
    for row_got, row_want in zip(got[1:], want[1:]):
        assert len(row_got) == len(row_want)
        assert all(_cells_match(g, w) for g, w in zip(row_got, row_want)), (row_got, row_want)


def test_every_results_file_has_a_command_in_readme():
    assert sorted(p.name for p in (REPO / "results").iterdir()) == sorted(COMMANDS)
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    for name, args in COMMANDS.items():
        assert " ".join(["leosec", *args, "--out", f"results/{name}"]) in readme
