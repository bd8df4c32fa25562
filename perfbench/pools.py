"""The benchmark's worker pools, and a probe that times their set-up.

Run as a script (``python pools.py <workers>`` with ``parmatch`` on the
path), it imports ``parmatch``, starts both pools, makes one warm-up round
trip on each, prints the seconds that took and shuts the pools down.  The
harness runs it in fresh processes so every import is cold.
"""

import time

# Taken before parmatch is imported, so the probe's time includes the import.
_STARTED = time.perf_counter()

import sys  # noqa: E402
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor  # noqa: E402
from multiprocessing import get_context, resource_tracker  # noqa: E402

from parmatch import ByteText, to_sm  # noqa: E402


def start_pools(workers: int) -> tuple[ThreadPoolExecutor, ProcessPoolExecutor]:
    """A thread pool and a spawn-started process pool, both warmed up.

    The warm-up submits one task per worker at once: a spawn pool starts
    its workers on demand, so this is what makes every worker live.
    """
    threads = ThreadPoolExecutor(max_workers=workers)
    processes = ProcessPoolExecutor(max_workers=workers, mp_context=get_context("spawn"))
    try:
        probe = ByteText(b"abab"), ByteText(b"ab")
        for pool in (threads, processes):
            futures = [pool.submit(to_sm, *probe) for _ in range(workers)]
            if any(future.result().indices != (0, 2) for future in futures):
                raise RuntimeError("warm-up round trip returned a wrong matcher")
    except BaseException:
        stop_pools((threads, processes))
        raise
    return threads, processes


def stop_pools(pools) -> None:
    """Shut the pools down and wait for their workers.

    The spawn pool also started multiprocessing's resource tracker; it is
    stopped and waited for too, so no process outlives its starter.
    """
    for pool in pools:
        pool.shutdown(wait=True, cancel_futures=True)
    resource_tracker._resource_tracker._stop()


if __name__ == "__main__":
    pools = start_pools(int(sys.argv[1]))
    try:
        print(time.perf_counter() - _STARTED)
    finally:
        stop_pools(pools)
