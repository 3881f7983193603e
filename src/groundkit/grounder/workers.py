"""A training step's passes, run on every usable CPU.

``train`` hands each step's batch to a ``PassPool``, which cuts it with
``forward_passes`` and runs pass ``i`` in process ``i % processes``, the
calling process being process 0.  With one process nothing is forked.  With
more, the pool forks its workers once, before step 0: they inherit the
model, the dataset and the prepared layouts, so only a step's sample
indices and each pass's loss cross a ``multiprocessing`` pipe.  The
parameters sit in Adam's shared ``AdamState.flat``, so the workers see each
step's in-place update with no copy.  The workers are forked, not spawned,
so that they need not pickle the layouts or import anew; OpenBLAS joins its
own threads before a fork (its ``pthread_atfork`` handler), so the process
forks with one thread.

Each pass writes its flat gradient, in Adam's layout, into its own slot of
a shared buffer, and the calling process adds the slots in pass order.  Every
parameter gets one gradient per pass, so the sum makes the same additions,
in the same order, as accumulating ``Tensor.grad`` pass by pass: the
process count changes no byte of a run.  When passes fail, the exception of
the lowest-numbered one is raised, as it would be in one process.  For the
same reason a worker that cannot be forked, or that is lost (killed, or its
pipe broken), costs only time: its rank's passes run in the calling process
from then on, after one warning naming it, and the run writes the bytes of
a one-process run.  A lost worker is reaped at once.

``process_count`` bounds the count by the usable CPUs and by the most passes
a step can have.  While ``train`` runs, ``blas_held_to_one_thread`` holds
the loaded OpenBLAS to one thread (``cli.run`` holds it for every command):
two processes running two BLAS threads each on two CPUs were about four
times slower than one process.  Where the thread count cannot be held (no
OpenBLAS found, or no ``/proc/self/maps``) or ``os.fork`` is missing,
training runs in one process.
"""

from __future__ import annotations

import ctypes
import functools
import logging
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

from .. import numcore as nc
from ..core import Sample
from .model import GroundingModel, SampleLayout, forward_passes, replay_pass

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

log = logging.getLogger(__name__)


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def process_count(most_passes: int) -> int:
    """Processes for a run whose steps have at most ``most_passes`` passes."""
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(usable_cpus(), most_passes))


# ---------------------------------------------------------------------------
# the BLAS thread count

@functools.cache
def _openblas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The thread-count getter and setter of the loaded OpenBLAS, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({fields[5].strip() for fields in (line.split(None, 5) for line in maps)
                            if len(fields) == 6 and "openblas" in fields[5]})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        # numpy's wheels bundle scipy-openblas, whose 64-bit-index symbols
        # carry a prefix and a suffix
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.restype, put.argtypes, put.restype = ctypes.c_int, [ctypes.c_int], None
                return get, put
    return None


@contextmanager
def blas_held_to_one_thread() -> Iterator[bool]:
    """Hold the loaded OpenBLAS to one thread in the block, and restore its
    count after it; yields whether the count is held."""
    threads = _openblas_threads()
    if threads is None:
        yield False
        return
    get, put = threads
    before = get()
    put(1)
    try:
        yield get() == 1
    finally:
        put(before)


@dataclass
class _Worker:
    pid: int
    conn: Connection   # the calling process's end of the worker's pipe


def _reap(worker: _Worker) -> None:
    _pid, status, usage = os.wait4(worker.pid, 0)
    log.debug("pass worker %d: exit status %d, peak RSS %.1f MB",
              worker.pid, status, usage.ru_maxrss / 1024.0)


class PassPool:
    """Runs the passes of ``train``'s steps in ``processes`` processes.

    ``slots`` bounds the passes of one step (``process_count``'s
    ``most_passes``).  The pool forks on ``__enter__`` and waits for its
    workers on ``__exit__``; ``run`` does one step's passes.
    """

    def __init__(self, model: GroundingModel, state: nc.AdamState, dataset: Sequence[Sample],
                 layouts: Sequence[SampleLayout], processes: int, slots: int):
        self.model = model
        self.params = [model.params[name] for name in state.names]   # in Adam's layout
        self.dataset = dataset
        self.layouts = layouts
        self.processes = processes
        # one slot serves every pass when they all run here, one after another
        shape, dtype = (slots if processes > 1 else 1, state.flat.size), state.flat.dtype
        self.slots = nc.shared_array(shape, dtype) if processes > 1 else np.empty(shape, dtype)
        self.total = np.empty(state.flat.size, dtype)
        self.workers: dict[int, _Worker] = {}   # by rank; a rank without one runs here

    # -- processes ---------------------------------------------------------

    def __enter__(self) -> "PassPool":
        try:
            for rank in range(1, self.processes):
                self.workers[rank] = self._fork(rank)
        except OSError as exc:
            log.warning("cannot fork a pass worker (%s): the passes of %d of %d workers "
                        "run in this process", exc, self.processes - rank, self.processes - 1)
        except BaseException:
            self._stop()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._stop()

    def _fork(self, rank: int) -> _Worker:
        # imported here: it costs every command about 5 ms, and only a
        # train with workers needs it
        from multiprocessing.connection import Pipe
        here, there = Pipe()
        try:
            pid = os.fork()
        except OSError:
            here.close()
            there.close()
            raise
        if pid == 0:
            code = 1
            try:
                here.close()
                for other in self.workers.values():
                    other.conn.close()
                self._serve(rank, there)
                code = 0
            finally:
                os._exit(code)
        there.close()
        return _Worker(pid, here)

    def _stop(self) -> None:
        """Close the pipes, so each worker reads the end of its input and
        exits, and wait for every worker."""
        for worker in self.workers.values():
            worker.conn.close()
        for worker in self.workers.values():
            _reap(worker)
        self.workers = {}

    def _lose(self, rank: int) -> None:
        """Run ``rank``'s passes here from now on: its worker is gone."""
        worker = self.workers.pop(rank)
        log.warning("pass worker %d exited: its passes run in this process", worker.pid)
        worker.conn.close()
        _reap(worker)

    def _serve(self, rank: int, conn: Connection) -> None:
        """A worker's loop: read a step's passes, run them, reply with
        their losses and the first failure, until the pipe closes."""
        while True:
            try:
                step, batch_size, passes = conn.recv()
            except EOFError:
                return
            conn.send(self._run_ranks(step, batch_size, passes, [rank]))

    # -- one step ----------------------------------------------------------

    def run(self, step: int, batch: Sequence[int]) -> tuple[float, np.ndarray]:
        """Run the passes of ``batch`` (dataset indices) at ``step``; return
        the sum of each pass's mean loss times its sample count, added in
        pass order, and the batch's flat gradient, in Adam's layout."""
        passes = [[batch[i] for i in positions]
                  for positions in forward_passes([self.layouts[idx] for idx in batch])]
        ranks = range(1, min(self.processes, len(passes)))
        busy, here = [], [0]
        for rank in ranks:
            if rank in self.workers:
                try:
                    self.workers[rank].conn.send((step, len(batch), passes))
                    busy.append(rank)
                    continue
                except OSError:
                    self._lose(rank)
            here.append(rank)
        replies = [self._run_ranks(step, len(batch), passes, here)]
        for rank in busy:
            try:
                replies.append(self.workers[rank].conn.recv())
            except (EOFError, OSError):
                self._lose(rank)
                replies.append(self._run_ranks(step, len(batch), passes, [rank]))
        losses = {i: loss for done, _failure in replies for i, loss in done.items()}
        failures = [failure for _done, failure in replies if failure is not None]
        if failures:
            raise min(failures, key=lambda failure: failure[0])[1]
        if self.processes > 1:
            for i in range(len(passes)):
                self._add(i, self.slots[i])
        return sum((losses[i] for i in range(len(passes))), 0.0), self.total

    def _run_ranks(self, step: int, batch_size: int, passes: list[list[int]],
                   ranks: list[int]) -> tuple[dict[int, float], tuple[int, Exception] | None]:
        """Run the passes of ``ranks`` in this process, in pass order, up to
        the first that fails: their losses by pass and that failure.  With
        more than one process pass ``i`` writes slot ``i``, for ``run`` to
        add once all are in; with one, each pass is added when done."""
        losses = {}
        with np.errstate(all="ignore"):
            for i in sorted(i for rank in ranks
                            for i in range(rank, len(passes), self.processes)):
                slot = self.slots[i if self.processes > 1 else 0]
                try:
                    losses[i] = self._pass(step, batch_size, passes[i], slot)
                except Exception as exc:
                    return losses, (i, exc)
                if self.processes == 1:
                    self._add(i, slot)
        return losses, None

    def _add(self, i: int, flat: np.ndarray) -> None:
        if i == 0:
            np.copyto(self.total, flat)
        else:
            self.total += flat

    def _pass(self, step: int, batch_size: int, indices: Sequence[int],
              out: np.ndarray) -> float:
        """One pass over the samples ``indices`` of a ``batch_size`` batch:
        its flat gradient, of its mean loss weighted by its share of the
        batch, goes to ``out``, and each ``Tensor.grad`` is cleared; returns
        the mean loss times the sample count."""
        chunk = [self.layouts[idx] for idx in indices]
        ids = ", ".join(self.dataset[idx].sample_id for idx in indices)
        with nc.located(f"step {step}, pass over samples {ids}"):
            with nc.deferred_checks(), nc.Graph() as graph:
                loss = self.model.batch_loss(chunk)
                finite = np.isfinite(loss.data)
                if finite:
                    graph.backward(nc.scale(loss, len(chunk) / batch_size))
            if not finite:
                replay_pass(lambda: self.model.batch_loss(chunk))
        np.concatenate([np.zeros(p.data.size, out.dtype) if p.grad is None
                        else p.grad.reshape(-1) for p in self.params], out=out)
        for p in self.params:
            p.zero_grad()
        return float(loss.data) * len(chunk)
