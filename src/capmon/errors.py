"""Monitor error codes and the exception type raised by rejected operations.

A rejected operation raises :class:`MonitorError` and leaves the engine state
unchanged.  Codes are stable small integers so they can travel through the
register-based call ABI.
"""

from __future__ import annotations

import enum


class ErrorCode(enum.IntEnum):
    # region derivation
    UNKNOWN_REGION = 1
    NOT_OWNER = 2
    OUT_OF_RANGE = 3
    RIGHTS_ESCALATION = 4
    OVERLAPS_CARVE = 5
    OVERLAPS_ALIAS = 6
    NOT_A_CHILD = 7
    NO_RIGHTS = 8
    INVALID_RANGE = 9
    STILL_ACCESSIBLE = 10
    OUT_OF_MEMORY_BOUNDS = 11

    # domain lifecycle and policies
    POLICY_DENIED = 20
    OUT_OF_METADATA = 21
    SEALED = 22
    POLICY_ESCALATION = 23
    REGISTER_HIDDEN = 24
    UNTRANSFERABLE_TD = 25
    RECEIVE_DENIED = 26
    ATTRIBUTES_ON_SEALED = 27
    HASH_ON_ALIASED = 28
    ATTRIBUTES_ON_CHANNEL = 29
    ALREADY_SEALED = 30
    UNDELIVERABLE_VECTOR = 31
    CORE_NOT_ALLOWED = 32
    NOT_SEALED = 33
    NO_PARENT = 34
    DOMAIN_REVOKED = 35
    BAD_CURSOR = 36
    UNKNOWN_DOMAIN = 37
    BAD_HANDLE = 38
    CHANNEL_NO_CONTROL = 39
    NOT_RUNNING = 40
    IRQ_RESUME_REQUIRED = 41

    # platform
    BAD_CONFIG = 50

    # attestation and verification
    BAD_SIGNATURE = 60
    MEASUREMENT_MISMATCH = 61
    NONCE_MISMATCH = 62
    UNKNOWN_SUBJECT = 63
    PARSE_ERROR = 64

    # oracle / tooling
    MALFORMED_LOG = 70


class MonitorError(Exception):
    """Raised when an operation is rejected; carries a stable error code."""

    def __init__(self, code: ErrorCode, message: str = ""):
        self.code = code
        self.message = message
        super().__init__(f"{code.name}{': ' + message if message else ''}")


def deny(code: ErrorCode, message: str = "") -> MonitorError:
    return MonitorError(code, message)
