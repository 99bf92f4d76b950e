"""The one place the package forks and ends processes: a job's chunks are
shared with forked workers, and a CLI run leaves without interpreter teardown.

The caller runs chunk 0 first.  The index of every later chunk waits in a
pipe filled before the fork, and the caller and each worker take one index
at a time until the pipe is empty, so a process that the host slows takes
fewer chunks (self-scheduling).  A worker appends each result with marshal
to one memory file opened before the fork, so a result is built of floats,
ints, bools, None, str, bytes, tuples and lists, and every float comes back
bit for bit.  Nothing forks while a second thread is alive, since a fork
copies only the calling thread.
"""

from __future__ import annotations

import marshal
import os
import sys

_MAX_PROCESSES = 8
_TOKEN = 4  # bytes of a chunk index in the pipe
_HEADER = 8  # bytes of a record's length in the file


def _can_fork() -> bool:
    if not hasattr(os, "fork"):
        return False
    import threading

    return threading.active_count() == 1


def process_count() -> int:
    """How many processes may share a job: one per usable CPU, at most 8, or 1
    where nothing may fork."""
    if not _can_fork():
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(_MAX_PROCESSES, cpus)


def map_chunks(fn, chunks) -> list | None:
    """[fn(chunk) for chunk in chunks]: chunk 0 here, then each later one here
    or in one of up to process_count() - 1 forked workers, whichever takes it.

    None if fn raises or a worker fails, or an OSError stops the job here (no
    pipe, no file, no process); the caller then does the whole job itself,
    and so raises whatever error the job really has.  Every worker is reaped
    before this returns, and killed first if the job stopped here.  With one
    chunk, or where nothing may fork, every chunk runs here.
    """
    workers = min(process_count(), len(chunks)) - 1
    if workers < 1:
        return [fn(chunk) for chunk in chunks]
    pids, fds, results = [], [], None
    try:
        try:
            out = _result_file()
            fds.append(out)
            deal, w = os.pipe()
            fds += [deal, w]
            os.set_blocking(w, False)  # a full pipe raises here; nothing would empty it
            tokens = b"".join(k.to_bytes(_TOKEN, "little") for k in range(1, len(chunks)))
            if os.write(w, tokens) < len(tokens):
                raise OSError("more chunks than the pipe holds")
            os.close(fds.pop())  # no writer is left, so a read of the empty pipe ends
            for _ in range(workers):
                pid = os.fork()
                if pid == 0:
                    _work(fn, chunks, deal, out)
                pids.append(pid)
            results = {0: fn(chunks[0])}
            for k in _claims(deal):
                results[k] = fn(chunks[k])
        except BaseException as exc:
            import signal

            for pid in pids:
                os.kill(pid, signal.SIGKILL)
            results = None
            if not isinstance(exc, Exception):
                raise
        finally:
            if any([os.waitpid(pid, 0)[1] for pid in pids]):  # a list: reap every one
                results = None
        if results is None:
            return None
        results.update(_records(out))
        return [results[k] for k in range(len(chunks))]
    finally:
        for fd in fds:
            os.close(fd)


def _result_file() -> int:
    """A file for the workers' records, in memory where os has memfd_create.

    It is opened to append: processes that write through one shared offset
    would overwrite each other's records, since Linux does not lock the
    offset of a memfd, while each write to append lands whole at the end.
    """
    if hasattr(os, "memfd_create"):
        fd = os.memfd_create("map_chunks")
    else:
        import tempfile

        with tempfile.TemporaryFile() as fh:
            fd = os.dup(fh.fileno())
    import fcntl

    fcntl.fcntl(fd, fcntl.F_SETFL, os.O_APPEND)
    return fd


def _claims(deal: int):
    """The chunk indices this process takes from the pipe, one at a time,
    until it is empty."""
    while token := os.read(deal, _TOKEN):
        yield int.from_bytes(token, "little")


def _work(fn, chunks, deal: int, out: int) -> None:
    """A forked worker: for each index k it takes, append fn(chunks[k]) to out
    as a length and the marshal bytes of (k, result), and leave.

    A short write cuts a record, so it fails the worker like a raise does.
    """
    status = 1
    try:
        for k in _claims(deal):
            record = marshal.dumps((k, fn(chunks[k])))
            header = len(record).to_bytes(_HEADER, "little")
            if os.writev(out, (header, record)) < _HEADER + len(record):
                return
        status = 0
    finally:
        os._exit(status)


def _records(out: int) -> dict:
    """{k: result} of each record in the file, decoded from one read of it."""
    data = os.pread(out, os.fstat(out).st_size, 0)
    records, pos = {}, 0
    with memoryview(data) as view:
        while pos < len(data):
            end = pos + _HEADER + int.from_bytes(view[pos:pos + _HEADER], "little")
            k, result = marshal.loads(view[pos + _HEADER:end])
            records[k] = result
            pos = end
    return records


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
