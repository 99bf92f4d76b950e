"""The one place the package forks and ends processes: a job's later chunks
run in workers, and a CLI run leaves without interpreter teardown.

A worker sends its result back through a pipe with marshal, so a result is
built of floats, ints, bools, None, str, bytes, tuples and lists, and every
float comes back bit for bit.  Nothing forks while a second thread is alive,
since a fork copies only the calling thread.
"""

from __future__ import annotations

import marshal
import os
import sys

_MAX_CHUNKS = 8


def _can_fork() -> bool:
    if not hasattr(os, "fork"):
        return False
    import threading

    return threading.active_count() == 1


def chunk_count() -> int:
    """How many chunks to cut a job into: one per usable CPU, at most 8, or 1
    where nothing may fork."""
    if not _can_fork():
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(_MAX_CHUNKS, cpus)


def map_chunks(fn, chunks) -> list | None:
    """[fn(chunk) for chunk in chunks]: chunk 0 here, each later one in a forked worker.

    None if a worker fails or an OSError stops the job here (no pipe, no
    process); the caller then does the whole job itself, and so raises
    whatever error the job really has.  Every worker is reaped before this
    returns, and killed first if fn raised here.  With one chunk, or where
    nothing may fork, every chunk runs here.
    """
    if len(chunks) < 2 or not _can_fork():
        return [fn(chunk) for chunk in chunks]
    pids, pipes, sent = [], [], []
    try:
        for chunk in chunks[1:]:
            r, w = os.pipe()
            pipes.append(r)
            try:
                pid = os.fork()
                if pid == 0:
                    _work(fn, chunk, w, pipes)
            finally:
                os.close(w)
            pids.append(pid)
        mine = fn(chunks[0])
        for r in pipes:
            with open(r, "rb", closefd=False) as pipe:
                sent.append(pipe.read())
    except BaseException as exc:
        import signal

        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        if not isinstance(exc, OSError):
            raise
        sent = None
    finally:
        for r in pipes:
            os.close(r)
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    if sent is None or any(statuses):
        return None
    return [mine, *map(marshal.loads, sent)]


def _work(fn, chunk, w: int, pipes) -> None:
    """A forked worker: write fn(chunk) to w with marshal, and leave.

    A worker whose caller has died gets BrokenPipeError at the write.
    """
    status = 1
    try:
        for r in pipes:
            os.close(r)
        data = marshal.dumps(fn(chunk))
        with open(w, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def leave(code: int):
    """End the process with status code after the atexit callbacks and a flush
    of both streams, without interpreter teardown.  A failed flush here is not
    reported, so the caller flushes its output and reports its errors first."""
    import atexit

    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            try:
                stream.flush()
            except (OSError, ValueError):  # a closed or failed stream: nowhere to say so
                pass
    os._exit(code)
