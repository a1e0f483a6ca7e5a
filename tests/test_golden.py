"""Golden sha256 pins for the shipped configs and the demo walkthrough.

The per-run CSVs and demo points are the byte-deterministic contract; the
reports are pinned with their `created_utc` line (the only timestamp)
dropped. A change that alters any of these bytes must re-pin on purpose.
"""

import hashlib
from pathlib import Path

import pytest

from occkit.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _sha256(path: Path, drop: str | None = None) -> str:
    lines = path.read_bytes().splitlines(keepends=True)
    if drop is not None:
        lines = [line for line in lines if drop.encode() not in line]
    return hashlib.sha256(b"".join(lines)).hexdigest()


def _only(out: Path, pattern: str) -> Path:
    found = sorted(out.glob(pattern))
    assert len(found) == 1, found
    return found[0]


@pytest.mark.parametrize(
    "command, config, per_run, report",
    [
        (
            "occ-eval",
            "demo-occ-eval.json",
            "8a6d02686db0a0719afb823625d3c64bbcf54b4b58ca9aab40a9bcf67d0ab339",
            "df58b8120ad617fe1b275f220646086f3ba907de5f89ff6e43479560580fbd02",
        ),
        (
            "omission",
            "demo-omission.json",
            "70be3cb2bf91f8c3b1f459a09b3ecac7f57921393f86285fb55e1a363189f73d",
            "c165f6d391ba09ea7bda19db42337bfa85381bbfba43f4410b96722b7252120b",
        ),
    ],
)
def test_shipped_config_outputs_are_pinned(tmp_path, command, config, per_run, report):
    argv = [command, "--config", str(CONFIGS / config), "--seed", "42", "--out", str(tmp_path)]
    assert main(argv) == 0
    run_dir = _only(tmp_path, f"{command}/*/per_run.csv").parent
    assert _sha256(run_dir / "per_run.csv") == per_run
    assert _sha256(run_dir / "report.json", drop='"created_utc"') == report


def test_demo_points_are_pinned(tmp_path):
    assert main(["demo", "--seed", "7", "--out", str(tmp_path)]) == 0
    points = _only(tmp_path, "demo/*/demo_points.csv")
    assert _sha256(points) == "0072a6cdd7854b37bdad20e9b3f8d18acd07ddb913cf9babdb3d69634b5b98cd"
