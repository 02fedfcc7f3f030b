"""The test harness's own helpers."""

import signal
import time
from types import SimpleNamespace

import pytest

from conftest import expire


def test_expire_waits_for_a_frame_with_a_line():
    # an alarm on a frame without a line number re-arms a short alarm; one
    # on a frame with a line number raises
    fired = []
    old = signal.signal(signal.SIGALRM, lambda signum, frame: fired.append(1))
    try:
        expire(signal.SIGALRM, SimpleNamespace(f_lineno=None))
        assert 0 < signal.getitimer(signal.ITIMER_REAL)[0] <= 0.01
        end = time.monotonic() + 5
        while not fired and time.monotonic() < end:
            time.sleep(0.001)
        assert fired == [1]
        with pytest.raises(TimeoutError):
            expire(signal.SIGALRM, SimpleNamespace(f_lineno=7))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
