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

Each process has one slot of a shared buffer for a pass's flat gradient, in
Adam's layout.  The calling process walks a step's passes in pass order:
it runs pass ``i`` or receives its loss, adds slot ``i % processes`` to the
total, and lets that worker fill the slot with its next pass, which has run
its backward meanwhile.  So memory is bounded by the process count, and the
sum makes the same additions, in the same order, as accumulating
``Tensor.grad`` pass by pass: the process count changes no byte of a run,
and the first failing pass raises, as it would in one process.  A worker
that cannot be forked, or that is lost (killed, or its pipe broken), costs
only time: its passes run in the calling process from then on, in its slot,
after one warning naming it.  A lost worker is reaped at once.

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
    """Runs the passes of ``train``'s steps in ``processes`` processes,
    with one gradient slot each.  The pool forks on ``__enter__`` and waits
    for its workers on ``__exit__``; ``run`` does one step's passes."""

    def __init__(self, model: GroundingModel, state: nc.AdamState, dataset: Sequence[Sample],
                 layouts: Sequence[SampleLayout], processes: int):
        self.model = model
        self.params = [model.params[name] for name in state.names]   # in Adam's layout
        self.dataset = dataset
        self.layouts = layouts
        self.processes = processes
        self.slots = nc.shared_array((processes, state.flat.size), state.flat.dtype)
        self.total = np.empty(state.flat.size, state.flat.dtype)
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
        """A worker's loop until the pipe closes: run its share of each
        step's passes, and reply to each with its loss, its gradient in slot
        ``rank``, or with its exception, which ends the step."""
        slot = self.slots[rank]
        try:
            while True:
                step, batch_size, passes = conn.recv()
                for k, i in enumerate(range(rank, len(passes), self.processes)):
                    try:
                        reply = self._pass(step, batch_size, passes[i])
                    except Exception as exc:
                        reply = exc
                    if k:
                        conn.recv()   # the go-ahead: the slot's last pass is added
                    if isinstance(reply, Exception):
                        conn.send(reply)
                        break
                    self._take(slot)
                    conn.send(reply)
        except (EOFError, OSError):
            return

    # -- one step ----------------------------------------------------------

    def run(self, step: int, batch: Sequence[int]) -> tuple[float, np.ndarray]:
        """Run the passes of ``batch`` (dataset indices) at ``step``; return
        the sum of each pass's mean loss times its sample count, added in
        pass order, and the batch's flat gradient, in Adam's layout.  Pass
        ``i`` fills slot ``i % processes``, added as soon as the pass is in."""
        passes = [[batch[i] for i in positions]
                  for positions in forward_passes([self.layouts[idx] for idx in batch])]
        for rank in [rank for rank in self.workers if rank < len(passes)]:
            try:
                self.workers[rank].conn.send((step, len(batch), passes))
            except OSError:
                self._lose(rank)
        total = 0.0
        for i, indices in enumerate(passes):
            rank = i % self.processes
            if rank in self.workers:
                try:
                    loss = self.workers[rank].conn.recv()
                except (EOFError, OSError):
                    self._lose(rank)
            if rank not in self.workers:
                loss = self._pass(step, len(batch), indices)
                self._take(self.slots[rank])
            if isinstance(loss, Exception):
                raise loss
            if i:
                self.total += self.slots[rank]
            else:
                np.copyto(self.total, self.slots[rank])
            total += loss
            if rank in self.workers and i + self.processes < len(passes):
                try:
                    self.workers[rank].conn.send(None)   # the go-ahead: its slot is free
                except OSError:
                    self._lose(rank)
        return total, self.total

    def _pass(self, step: int, batch_size: int, indices: Sequence[int]) -> float:
        """One pass over the samples ``indices`` of a ``batch_size`` batch:
        backpropagates its mean loss, weighted by its share of the batch,
        into each ``Tensor.grad``; returns the mean loss times the sample
        count."""
        chunk = [self.layouts[idx] for idx in indices]
        ids = ", ".join(self.dataset[idx].sample_id for idx in indices)
        with np.errstate(all="ignore"), nc.located(f"step {step}, pass over samples {ids}"):
            with nc.deferred_checks(), nc.Graph() as graph:
                loss = self.model.batch_loss(chunk)
                finite = np.isfinite(loss.data)
                if finite:
                    graph.backward(nc.scale(loss, len(chunk) / batch_size))
            if not finite:
                replay_pass(lambda: self.model.batch_loss(chunk))
        return float(loss.data) * len(chunk)

    def _take(self, out: np.ndarray) -> None:
        """Move the pass's gradient, flat in Adam's layout, from each
        ``Tensor.grad`` into ``out``."""
        np.concatenate([np.zeros(p.data.size, out.dtype) if p.grad is None
                        else p.grad.reshape(-1) for p in self.params], out=out)
        for p in self.params:
            p.zero_grad()
