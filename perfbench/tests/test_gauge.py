"""Tests of the host-speed gauge (``perfbench/gauge.py``).

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root.
"""

import gc
import signal
import time

from gauge import REFERENCE_S, HostGauge, gauge_load, scaled


def spin(seconds):
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        pass


def test_gauge_times_slices_and_restores_the_signal_handler():
    previous = signal.getsignal(signal.SIGALRM)
    loads = []
    gauge = HostGauge(period_s=0.01, load=lambda: loads.append(1)).install()
    spin(0.2)
    gauge.remove()
    assert gauge.slices
    assert len(gauge.slices) == len(loads)
    assert all(seconds >= 0 for seconds in gauge.slices)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_paused_gauge_times_nothing():
    gauge = HostGauge(period_s=0.01, load=lambda: None).install()
    gauge.paused = True
    spin(0.1)
    gauge.remove()
    assert gauge.slices == []


def test_gauge_load_is_fixed_and_leaves_the_collector_as_found():
    assert gc.isenabled()
    assert gauge_load() == gauge_load()
    assert gc.isenabled()
    gc.disable()
    try:
        gauge_load()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_sample_times_a_slice_even_while_paused():
    gauge = HostGauge(load=lambda: None)
    gauge.paused = True
    seconds = gauge.sample()
    assert gauge.slices == [seconds]


def test_scaled_keeps_times_at_the_reference_speed():
    assert scaled(2.0, REFERENCE_S) == 2.0
    assert scaled(2.0, 2 * REFERENCE_S) < 2.0 < scaled(2.0, REFERENCE_S / 2)
