"""Split a stage's independent rows over forked processes, so that each row gets
the same bits however they split.  Only os and warnings, both loaded at
interpreter start, are imported at load.
"""

import os
import warnings


def split(run, rows: int, workers: int, arrays=()) -> None:
    """Call run(lo, hi) over rows 0, ..., rows - 1 in w = min(workers, rows, CPUs
    this process may run on) contiguous slices, each but the first in a forked
    child that sends its rows of each C-ordered array in arrays back.  One slice
    forks nothing.  When any slice fails, run(0, rows) reruns here, so the error
    is the one-process one."""
    w = min(workers, rows)
    if w > 1:  # os.sched_getaffinity and os.fork are POSIX-only: one slice needs neither
        w = min(w, len(os.sched_getaffinity(0)))
    if w < 2 or not _forked(run, [rows * k // w for k in range(w + 1)], arrays):
        run(0, rows)


def _forked(run, bounds: list, arrays) -> bool:
    """Call run(lo, hi) on the rows between each pair of consecutive bounds: the first
    slice here, each other one in a child forked before it, which sends its rows of each
    array back through a pipe.  True when every slice succeeded.  A child ends in
    os._exit on every path, so it never unwinds into the caller or flushes a buffer it
    inherited, and a warning in it fails its slice.  Every child is reaped on every
    path, killed first once a slice has failed."""
    import signal

    children, ok = [], False  # (pid, read end of its pipe)
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            fd, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    warnings.simplefilter("error")  # fails the slice; the rerun prints it
                    run(lo, hi)
                    with open(w, "wb") as fh:
                        for a in arrays:
                            fh.write(a[lo:hi])
                    status = 0
                finally:
                    os._exit(status)
            os.close(w)
            children.append((pid, fd))
        run(*bounds[:2])
        for (_, fd), lo, hi in zip(children, bounds[1:-1], bounds[2:]):
            with open(fd, "rb", closefd=False) as fh:  # a failed child sends less
                if not all(fh.readinto(a[lo:hi]) == a[lo:hi].nbytes for a in arrays):
                    break
        else:
            ok = True  # no child is left writing to a pipe
    except Exception:  # the caller reruns in one process, which raises the error itself
        ok = False
    finally:
        for pid, fd in children:
            os.close(fd)
            if not ok:
                os.kill(pid, signal.SIGKILL)
            ok = os.waitpid(pid, 0)[1] == 0 and ok
    return ok
