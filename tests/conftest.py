from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from multiprocessing import get_context

import pytest

from support import matching_paths


@pytest.fixture(scope="module")
def paths():
    """The path table on a 3-thread pool and a 2-worker process pool, per module.

    The process pool spawns its workers: forking next to live threads is unsafe.
    """
    with ThreadPoolExecutor(3) as threads, \
            ProcessPoolExecutor(2, mp_context=get_context("spawn")) as processes:
        yield matching_paths(threads, processes)
