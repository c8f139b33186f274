"""Shared test helpers."""

import contextlib
import signal

import pytest


class _Expired(BaseException):
    """Raised by the timer; a BaseException, so no ``except Exception``
    in the code under test swallows it."""


@contextlib.contextmanager
def _deadline(seconds: float):
    """Fail the enclosed block once it has run for ``seconds`` of wall time.

    The timer is ``signal.setitimer`` on the test's own process, so a
    block that hangs fails fast instead of stalling the suite.  Where the
    platform has no SIGALRM the block runs unguarded.
    """
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise _Expired

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except _Expired:
        # reported without the interrupted frames, which pytest cannot
        # always render
        pytest.fail(f"still running after the {seconds} s deadline", pytrace=False)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def deadline():
    """The ``deadline(seconds)`` context manager."""
    return _deadline
