"""One forked child per CPU for a loop whose items are independent.

`sharded(run_slice, n, dtypes)` returns `run_slice(0, n)`.  With at least
`_MIN_ITEMS` items and two or more CPUs in the affinity mask, it cuts 0..n
into one contiguous slice per CPU and runs `run_slice(lo, hi)` for each in
a child forked for this call; otherwise it calls `run_slice(0, n)` here.

The slice contract:

* `run_slice(lo, hi)` returns one array per entry of `dtypes`, each with
  the `hi - lo` items lo..hi.
* An item depends on its own index alone, never on where a slice starts,
  so the result is bit-identical to `run_slice(0, n)` on any number of
  CPUs.
* A slice changes no state its caller reads afterwards, such as a
  generator it draws from: it may run in a child, whose changes are lost,
  or here, on the serial path or as the rerun of a failed child.

`taskset -c 0` keeps every call in the calling process.
"""

from __future__ import annotations

import ctypes
import mmap
import os
import signal

import numpy as np

# Collapse trials and ruin walks, the two loops sharded here, split batches
# of at least this many items over the CPUs of the process's affinity mask.
# On 2 CPUs, with each child started on its own CPU, the split breaks even
# near 2,000 trials in collapse.DEFAULT_REGION, 4,000 in a pi/8 box and
# 6,000 walks at m = 60: a slice has nearly the tail of the whole batch, so
# small batches gain nothing.
_MIN_ITEMS = 8192


def _worker_count() -> int:
    """CPUs this process may run on; 1 where the platform cannot say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def sharded(run_slice, n, dtypes):
    """run_slice(0, n) on every CPU: contiguous slices, one forked child each.

    run_slice keeps the slice contract of the module docstring.  A call
    with fewer than _MIN_ITEMS items stays in this process.  Child i first
    moves to CPU i (mod their number) of this process's affinity mask, read
    before the forks, then allows the whole mask again: it is placed, not
    pinned, since a kernel that never balances load would leave it on the
    CPU it was forked on, beside its sibling.  Each child writes its slice
    into shared mappings; this process reaps every child before it returns
    or raises, and reruns here the slice of a child that did not exit 0.
    """
    workers = _worker_count()
    if workers < 2 or n < _MIN_ITEMS:
        return run_slice(0, n)
    outs = [np.frombuffer(mmap.mmap(-1, n * np.dtype(d).itemsize), d) for d in dtypes]

    def run(lo, hi):
        for out, part in zip(outs, run_slice(lo, hi)):
            out[lo:hi] = part

    cpus = sorted(os.sched_getaffinity(0))
    cuts = [n * i // workers for i in range(workers + 1)]
    children, parent, prctl = [], os.getpid(), ctypes.CDLL(None).prctl
    try:
        for i, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
            # Hold signals (Ctrl-C) until the finally below knows the pid.
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
            try:
                pid = os.fork()
                if pid:
                    children.append((pid, lo, hi))
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            if pid == 0:
                try:
                    # Die with this process (PR_SET_PDEATHSIG), or now if it is gone.
                    prctl(ctypes.c_int(1), ctypes.c_ulong(signal.SIGKILL))
                    if os.getppid() != parent:
                        os._exit(1)
                    os.sched_setaffinity(0, {cpus[i % len(cpus)]})
                    os.sched_setaffinity(0, cpus)
                    run(lo, hi)
                    os._exit(0)
                finally:
                    os._exit(1)
        while children:
            pid, lo, hi = children[0]
            status = os.waitpid(pid, 0)[1]
            children.pop(0)
            if status:
                run(lo, hi)
    finally:
        for pid, _, _ in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return outs
