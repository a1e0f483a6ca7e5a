"""One engine for an experiment's independent cells, serial or on forked worker processes."""

from __future__ import annotations

from typing import Any, Callable, Iterator, Sequence

__all__ = ["map_cells"]

# The cell function a worker process was forked with. Only the pool's
# initializer sets it, in the worker; the process running the experiment never does.
_worker_fn: Callable | None = None


def _enter_worker(fn: Callable) -> None:
    global _worker_fn
    _worker_fn = fn


def _worker_cell(cell: Any) -> Any:
    return _worker_fn(cell)


def map_cells(fn: Callable, cells: Sequence, workers: int = 1) -> Iterator:
    """Yield fn(cell) for each cell, in cell order, whatever the number of workers.

    One worker (or one cell) is a plain `map`. More run the cells on
    min(workers, cells) processes forked from this one: they inherit `fn` and
    its data copy-on-write, and only cells and results are pickled. A cell's
    exception is raised here, when its result is reached.
    """
    workers = min(workers, len(cells))
    if workers <= 1:
        yield from map(fn, cells)
        return
    # Imported here only: `import occkit.cli` stays light for every other use.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # The pool forks all its workers before it starts its own thread.
    with ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_enter_worker,
        initargs=(fn,),
    ) as pool:
        yield from pool.map(_worker_cell, cells)
