"""Shared pytest fixtures.

Also makes ``repro`` importable straight from the source tree when the
package has not been installed (offline environments without wheel support).
"""

import pathlib
import sys
import threading

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, str(_SRC))

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(autouse=True)
def no_shard_worker_thread_left():
    """Fail the test after which a shard worker's serve thread, or a
    connection handler of one, is still running: a leak then shows at the
    test that caused it, not as a flake in a later test."""
    yield
    leaked = [thread.name for thread in threading.enumerate()
              if thread.name.startswith("shard-worker-")
              or thread.name.endswith("(process_request_thread)")]
    if leaked:
        pytest.fail(f"shard worker threads still running after the test: "
                    f"{leaked}")
