"""The shared race driver reports what its threads raise.

Every thread race passes on correct code, so a driver that dropped its
threads' errors would leave them checking nothing.
"""

import sys

from support import race


def test_the_race_driver_returns_what_a_thread_raised():
    interval = sys.getswitchinterval()

    def work(i):
        if i == 3:
            raise ValueError(i)

    assert race(work, [(i,) for i in range(8)]) == (["ValueError(3)"], 0)
    assert sys.getswitchinterval() == interval
