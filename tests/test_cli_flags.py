"""Every CLI flag does something: forms that would be silently ignored are rejected."""

import concurrent.futures
import json
import multiprocessing

import pytest

import occkit.cells as cells
from occkit.cli import main


def _omission_config(tmp_path, n_runs=1):
    path = tmp_path / f"omission-{n_runs}.json"
    path.write_text(
        json.dumps(
            {
                "seed": 3,
                "dataset": {"demo": {"n_normal": 60, "n_attack": 20}},
                "split": {"n_runs": n_runs},
                "detectors": {"stochastic-forest": {"variant": "stochastic-forest", "n_trees": 5}},
                "omission": {"k_values": [1], "with_noise": False, "rf": {"n_trees": 3}},
            }
        )
    )
    return path


def _argparse_exit_code(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


def test_demo_rejects_workers(tmp_path):
    argv = ["demo", "--out", str(tmp_path), "--seed", "1", "--workers", "2"]
    assert _argparse_exit_code(argv) == 2
    assert not (tmp_path / "demo").exists()


def test_demo_rejects_config(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"seed": 1}))
    argv = ["demo", "--out", str(tmp_path), "--seed", "1", "--config", str(config)]
    assert _argparse_exit_code(argv) == 2
    assert not (tmp_path / "demo").exists()


def test_demo_requires_seed(tmp_path):
    assert _argparse_exit_code(["demo", "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "demo").exists()


def test_omission_worker_count_does_not_change_output(tmp_path):
    # Three runs, so with two workers each worker takes grid and one-class cells.
    argv = ["omission", "--config", str(_omission_config(tmp_path, n_runs=3))]
    outs = [tmp_path / "w1", tmp_path / "w2"]
    for out, workers in zip(outs, ("1", "2")):
        assert main(argv + ["--out", str(out), "--workers", workers]) == 0
    blobs = [next(out.glob("omission/*/per_run.csv")).read_bytes() for out in outs]
    assert blobs[0] == blobs[1]


def _occ_eval_config(tmp_path, n_runs, detectors):
    path = tmp_path / f"occ-{n_runs}x{len(detectors)}.json"
    variants = {name: {"variant": name, "n_trees": 5} for name in detectors}
    path.write_text(json.dumps({"seed": 3, "split": {"n_runs": n_runs}, "detectors": variants}))
    return path


def _config_for(command, tmp_path):
    if command == "omission":
        return _omission_config(tmp_path, n_runs=2)
    return _occ_eval_config(tmp_path, 2, ["isolation-forest"])


@pytest.mark.parametrize("command", ["occ-eval", "omission"])
@pytest.mark.parametrize("workers", [0, -1])
def test_rejects_workers_below_one(command, workers, tmp_path, capsys):
    out = tmp_path / "out"
    argv = [command, "--config", str(_config_for(command, tmp_path)), "--out", str(out)]
    assert main(argv + ["--workers", str(workers)]) == 2
    assert "--workers must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["occ-eval", "omission"])
def test_workers_need_fork(command, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    out = tmp_path / "out"
    argv = [command, "--config", str(_config_for(command, tmp_path)), "--out", str(out)]
    assert main(argv + ["--workers", "2"]) == 2
    assert "needs the 'fork' start method" in capsys.readouterr().err
    assert not out.exists()
    assert main(argv + ["--workers", "1"]) == 0


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records its size, runs the cells in this process."""

    sizes: list = []

    def __init__(self, max_workers, *, mp_context, initializer, initargs):
        _InlinePool.sizes.append((max_workers, mp_context.get_start_method()))
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, cells):
        return map(fn, cells)


@pytest.mark.parametrize(
    ("n_runs", "detectors", "sizes"),
    [
        (1, ["isolation-forest", "stochastic-forest"], [(2, "fork")]),  # 2 cells
        (3, ["isolation-forest"], [(3, "fork")]),  # 3 cells
        (1, ["isolation-forest"], []),  # 1 cell: no pool
    ],
)
def test_occ_eval_forks_no_more_workers_than_cells(n_runs, detectors, sizes, tmp_path, monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(cells, "_worker_fn", None)
    config = _occ_eval_config(tmp_path, n_runs, detectors)
    outs = [tmp_path / "w8", tmp_path / "w1"]
    for out, workers in zip(outs, ("8", "1")):
        assert main(["occ-eval", "--config", str(config), "--out", str(out), "--workers", workers]) == 0
    assert _InlinePool.sizes == sizes
    blobs = [next(out.glob("occ-eval/*/per_run.csv")).read_bytes() for out in outs]
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize(
    ("n_runs", "sizes"),
    [
        (1, [(4, "fork")]),  # 3 combination cells (k=0, then k=1 for a1 and a2) + 1 one-class cell
        (2, [(8, "fork")]),  # 8 cells
    ],
)
def test_omission_forks_no_more_workers_than_cells(n_runs, sizes, tmp_path, monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(cells, "_worker_fn", None)
    config = _omission_config(tmp_path, n_runs)
    outs = [tmp_path / "w8", tmp_path / "w1"]
    for out, workers in zip(outs, ("8", "1")):
        assert main(["omission", "--config", str(config), "--out", str(out), "--workers", workers]) == 0
    assert _InlinePool.sizes == sizes
    blobs = [next(out.glob("omission/*/per_run.csv")).read_bytes() for out in outs]
    assert blobs[0] == blobs[1]


def test_report_rejects_out_alias(tmp_path):
    assert _argparse_exit_code(["report", "--out", str(tmp_path)]) == 2


def test_report_requires_run_dir():
    assert _argparse_exit_code(["report"]) == 2
