"""Rescaling to the reference host speed touches only CPU time.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import pytest

from speed import REFERENCE_KERNEL_S, SpeedProbe, at_reference


def test_off_cpu_time_is_kept_and_cpu_time_scales():
    # 2 ms of a 5 ms request ran on the CPU, on a host at half speed.
    assert at_reference(5.0, 2.0, 0.5) == pytest.approx(4.0)


def test_work_that_never_leaves_the_cpu_scales_whole():
    assert at_reference(3.0, 3.0, 1.5) == pytest.approx(4.5)


def test_cpu_time_beyond_the_wall_time_is_clipped():
    assert at_reference(3.0, 4.0, 2.0) == pytest.approx(6.0)


def test_probe_times_the_kernel():
    probe = SpeedProbe()
    probe.sample()
    assert len(probe.samples) == 1 and probe.samples[0] > 0
    assert probe.scale() == pytest.approx(
        REFERENCE_KERNEL_S / probe.samples[0]
    )


def test_scale_follows_the_samples_near_the_work():
    probe = SpeedProbe()
    # Twenty samples at half the reference speed, then twenty at double.
    slow, fast = 2 * REFERENCE_KERNEL_S, REFERENCE_KERNEL_S / 2
    probe.samples = [slow] * 20 + [fast] * 20
    assert probe.scale(0, 1) == pytest.approx(0.5)
    assert probe.scale(39, 40) == pytest.approx(2.0)
    # Half of each: the median sample is their mean.
    assert probe.scale(10, 30) == pytest.approx(
        REFERENCE_KERNEL_S / ((slow + fast) / 2)
    )
