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
            "2f25f6ac83135f5c9a02b7b1f3904271ae42481524e5b38365518cda38ea217a",
            "6a3a39d4714f6e9411fd37ed90fa7e2f43b21ca3a67021efa564451ccdf7687f",
        ),
        (
            "omission",
            "demo-omission.json",
            "9d5c96857bfd44acc469c7510456ff49be218f6859318ba1be9ef28655cd6ee0",
            "19d3ad2e0fc20ddab26b92d95ede462dd8774409a2efdcde114dbad6c8bbc07a",
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
    assert _sha256(points) == "459b69a200cf239873720160246fce23b1f7fdd59eacd7b7c6d824d055b11c44"
