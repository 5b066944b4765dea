"""Self-tests for the benchmark's own checks.

    python3 bench/selftest.py

Each test plants one fault in the program or its outputs (in this process
only, by replacing a function) and runs a small round of the workload that
should catch it; the test passes when the check reports a failed operation.
A clean round of every workload must report none, so the planted-fault
tests cannot pass by a check that always fails.
"""

from __future__ import annotations

import contextlib
import unittest

import run

run.load_program()

import harness  # noqa: E402
from capmon import Oracle  # noqa: E402
from capmon.engine import Engine  # noqa: E402
from capmon.errors import MonitorError  # noqa: E402
from capmon.machine import Platform  # noqa: E402
from fuzz_checked import FuzzChecked  # noqa: E402
from guest_mem import GuestMem  # noqa: E402
import tenant_sessions  # noqa: E402

SEED = 7


@contextlib.contextmanager
def planted(owner, attr, make):
    """Replace owner.attr with make(original) for the duration."""
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def small(name):
    if name == "fuzz_checked":
        return FuzzChecked(SEED, segments=3, steps=200)
    if name == "guest_mem":
        return GuestMem(SEED, ops=600)
    return tenant_sessions.TenantSessions(SEED, sessions=12)


def failures(workload) -> tuple[int, list[str]]:
    res = harness.run_round(workload)
    return res.failed, res.messages


class CleanRounds(unittest.TestCase):
    def test_every_workload_passes_unplanted(self):
        for name in ("fuzz_checked", "guest_mem", "tenant_sessions"):
            with self.subTest(workload=name):
                failed, messages = failures(small(name))
                self.assertEqual(failed, 0, messages)


class PlantedFaults(unittest.TestCase):
    def test_flipped_byte_in_reassembled_report(self):
        def make(fetch):
            def flipped(st, core=0):
                blob = bytearray(fetch(st, core))
                blob[len(blob) // 2] ^= 0x01
                return bytes(blob)
            return flipped

        with planted(tenant_sessions, "fetch_report", make):
            failed, messages = failures(small("tenant_sessions"))
        self.assertGreater(failed, 0)

    def test_flipped_byte_fails_the_signature_check(self):
        wl = small("tenant_sessions")
        st = wl.setup(None)
        blob = bytearray(tenant_sessions.fetch_report(st))
        self.assertIsNone(wl.check_signature(bytes(blob)))
        blob[100] ^= 0x80
        self.assertIsNotNone(wl.check_signature(bytes(blob)))

    def test_one_wrong_page_in_the_oracle_map(self):
        def make(address_map):
            def wrong(self):
                out = address_map(self)
                dom = max(out)
                page = min(out[dom], default=1)
                out[dom][page] = (out[dom].get(page, (0, False))[0] ^ 1,
                                  False)
                return out
            return wrong

        with planted(Oracle, "address_map", make):
            failed, messages = failures(small("fuzz_checked"))
        self.assertGreater(failed, 0)
        self.assertIn("oracle diff", messages[0])

    def test_state_change_after_a_rejected_call(self):
        def make(carve):
            def leaky(self, caller, handle, rng, rights):
                try:
                    return carve(self, caller, handle, rng, rights)
                except MonitorError:
                    self.tree._next_id += 1
                    raise
            return leaky

        with planted(Engine, "tree_carve", make):
            failed, messages = failures(small("fuzz_checked"))
        self.assertGreater(failed, 0)
        self.assertIn("changed the engine state", messages[0])

    def test_wrong_byte_read_back_from_guest_memory(self):
        def make(read_mem):
            def wrong(self, core, addr):
                ok, value = read_mem(self, core, addr)
                return ok, (value ^ 0x5A) if ok else value
            return wrong

        with planted(Platform, "read_mem", make):
            failed, messages = failures(small("guest_mem"))
        self.assertGreater(failed, 0)
        self.assertIn("read", messages[0])

    def test_counts_that_differ_between_rounds(self):
        wl = small("guest_mem")
        rounds = [harness.run_round(wl) for _ in range(2)]
        rounds[1].counts = dict(rounds[1].counts, trace_records=-1)
        problems = run.check_determinism("selftest", SEED, rounds)
        self.assertTrue(any("round 1" in p for p in problems), problems)


if __name__ == "__main__":
    unittest.main()
