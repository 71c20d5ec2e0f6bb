"""One function over a sequence of items in forked processes, one share of
the items per CPU the process may run on, with the results and the error
of a serial loop whatever the CPU count. Children inherit the caller's
memory, so only results and exceptions are pickled. Only a process that
runs one OS thread forks: fork copies the calling thread alone, and a BLAS
pool NumPy started before smfdfa would run beside each child's. Any other,
or one with no /proc to count its threads in (macOS), runs serially."""

import contextlib
import os
import pickle
from collections.abc import Callable, Sequence


def _cpu_count() -> int:
    """CPUs this process may run on; 1 where it should not fork."""
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        return 1
    return len(os.sched_getaffinity(0)) if threads == 1 else 1


def _run_share(fn: Callable, items: Sequence, share: range):
    """fn of the items in share, and the (index, exception) of the first
    item that raised, or None; the share stops there."""
    results = []
    for i in share:
        try:
            results.append(fn(items[i]))
        except Exception as exc:
            return results, (i, exc)
    return results, None


def _fork_share(fn: Callable, items: Sequence, share: range):
    """Fork a child that runs share and writes its outcome to a pipe as one
    pickle; returns its pid and the pipe's read end."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child never returns into the caller's code
        status = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as out:
                pickle.dump(_run_share(fn, items, share), out)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb")


def fork_map(fn: Callable, items: Sequence) -> list:
    """[fn(item) for item in items]. Item i runs in share i mod W, W being
    the smaller of the item count and _cpu_count(): this process runs share
    0 and forked children the others, each reading items[i] only for the
    items it runs. No child outlives the call. When items raise, the
    lowest-index one's exception, the one the serial loop raises, reaches
    the caller after every child is reaped; a child that ends without a
    result fails at its share's first item, with an error naming its exit
    status.
    """
    n = len(items)
    n_shares = max(min(_cpu_count(), n), 1)
    shares = [range(k, n, n_shares) for k in range(n_shares)]
    children = []  # (pid, read end of its pipe), not yet reaped
    try:
        for share in shares[1:]:
            children.append(_fork_share(fn, items, share))
        outcomes = [_run_share(fn, items, shares[0])]
        for share in shares[1:]:
            pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            if status or not data:
                code = os.waitstatus_to_exitcode(status)
                outcomes.append(([], (share.start, RuntimeError(
                    f"worker {pid} ended without a result (exit status {code})"))))
            else:
                outcomes.append(pickle.loads(data))
    finally:
        if children:
            import signal  # only here: a clean run never kills a child

            for pid, pipe in children:
                pipe.close()
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    failures = [failure for _, failure in outcomes if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    results: list = [None] * n
    for k, (share_results, _) in enumerate(outcomes):
        results[k::n_shares] = share_results
    return results
