"""Forked worker processes for batch work: the study's replications and
the population reference's chunks; and the rule for when a CPU is left
over for the burn-in's helper thread."""

import os
import pickle
import signal
import threading
import traceback

from . import _BLAS_PINNED


def can_fork() -> bool:
    """Forked workers are safe and fast only from a single-threaded process
    whose BLAS runs one thread; otherwise they compete for the cores."""
    return hasattr(os, "fork") and _BLAS_PINNED and threading.active_count() == 1


def spare_cpu(processes: int) -> bool:
    """Whether a CPU is left over beside ``processes`` busy processes: they
    are fewer than the CPUs this process may run on."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return processes < cpus


def map_in_processes(fn, items: list, processes: int) -> list:
    """``[fn(x) for x in items]``, with the items split into contiguous
    shares over ``processes`` processes: this one and forked children.

    The children are forked before this process runs its share, so state
    that ``fn`` builds on first use is built once per process. A child
    sends its share's results, or the exception it raised, through a pipe
    and leaves through ``os._exit``. An exception raised in a child is
    raised here. Every child is reaped before this returns or raises, and
    killed first if this process raised.
    """
    processes = max(1, min(processes, len(items)))
    cuts = [len(items) * i // processes for i in range(processes + 1)]
    children = []
    try:
        for i in range(1, processes):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                _child(fn, items[cuts[i] : cuts[i + 1]], read_fd, write_fd)
            os.close(write_fd)
            children.append((pid, os.fdopen(read_fd, "rb")))
        results = [fn(x) for x in items[: cuts[1]]]
        for pid, pipe in children:
            data = pipe.read()
            if not data:
                raise ChildProcessError(f"worker process {pid} exited without sending its results")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results.extend(value)
        return results
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe in children:
            pipe.close()
            os.waitpid(pid, 0)


def _child(fn, share: list, read_fd: int, write_fd: int) -> None:
    """Body of a forked worker: send ``(True, results)`` or ``(False,
    exception)`` and leave without running the parent's cleanup. A child
    that cannot send its message sends nothing, which the parent reports."""
    code = 1
    try:
        os.close(read_fd)
        try:
            message = (True, [fn(x) for x in share])
        except BaseException as exc:
            exc.add_note(f"raised in a worker process:\n{traceback.format_exc()}")
            message = (False, exc)
        payload = pickle.dumps(message)
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)
