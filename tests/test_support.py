"""The shared race drivers report what their threads raise, and what differs.

Every thread race passes on correct code, so a driver that dropped its
threads' errors, skipped a restore or a comparison would leave them checking
nothing.
"""

import sys

from abjadnum import codec
from support import race, race_rounds


def test_the_race_driver_returns_what_a_thread_raised():
    interval = sys.getswitchinterval()

    def work(i):
        if i == 3:
            raise ValueError(i)

    assert race(work, [(i,) for i in range(8)]) == (["ValueError(3)"], 0)
    assert sys.getswitchinterval() == interval


def test_the_round_driver_restores_its_tables_and_counts_what_differs(monkeypatch):
    probe = {"held": {}}
    monkeypatch.setattr(codec, "_PROBE", probe, raising=False)

    def call(key):
        probe[key] = probe["held"][key] = key
        return len(probe), len(probe["held"])

    # From the tables restored, the first key always gives (2, 1); the second
    # never gives the (0, 0) it is expected to.
    seen = race_rounds(call, [[1, 2]], 3, ["codec._PROBE"], {1: (2, 1), 2: (0, 0)},
                       lambda outs, expected: [f"{len(outs)} finished"])
    assert seen == dict(errors=[], stuck=0, calls=3, differing=3, faults=["1 finished"])
