"""Each region has at most one scheduler.

Recovery, migration, drains and upgrades look a region's scheduler up by
its vFPGA id; a second scheduler on the same region would be one they
never quiesce, restore or transplant.
"""

import pytest

from repro.api import AppScheduler
from repro.driver import DriverError

from .platforms import card, scheduled_card


def test_a_second_scheduler_on_a_region_is_refused():
    env, shell, driver, scheduler = scheduled_card()
    with pytest.raises(DriverError):
        AppScheduler(driver, vfpga_id=0)
    assert driver.schedulers == {0: scheduler}


def test_each_region_may_have_its_own_scheduler():
    env, shell, driver = card(num_vfpgas=2)
    first, second = AppScheduler(driver, vfpga_id=0), AppScheduler(driver, vfpga_id=1)
    assert driver.schedulers == {0: first, 1: second}
