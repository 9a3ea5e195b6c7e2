"""The host-speed meter samples during the work and accounts for its own time.

    python3 -m pytest bench/test_hostspeed.py
"""

import signal
import time

import hostspeed


def test_meter_samples_during_work_and_accounts_for_its_time():
    with hostspeed.Meter() as meter:
        start = time.perf_counter()
        while time.perf_counter() - start < 1.3:
            sum(range(1000))
    assert len(meter.passes) >= 2
    assert sum(meter.passes) <= meter.spent < sum(meter.passes) + 0.01 * len(meter.passes)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_passes_are_positive_times():
    times = hostspeed.passes(2)
    assert len(times) == 2 and all(0 < t < 10 for t in times)


def test_meter_times_one_pass_after_work_shorter_than_a_period():
    with hostspeed.Meter() as meter:
        pass
    assert len(meter.passes) == 1 and meter.spent == 0.0
