"""Operation log records.

One event per line with a stable field order so traces can be diffed and
replayed.  Line shape:

    <step> <core> <op> k=v k=v ... -> ok [k=v ...]
    <step> <core> <op> k=v k=v ... -> err=CODE

Values are decimal integers, hex integers (0x...), or bare words; no value
contains whitespace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ErrorCode, MonitorError


@dataclass
class OpRecord:
    step: int
    core: int
    op: str
    args: dict = field(default_factory=dict)
    ok: bool = True
    error: str = ""
    results: dict = field(default_factory=dict)

    def to_line(self) -> str:
        parts = [str(self.step), str(self.core), self.op]
        parts += [f"{k}={_render(v)}" for k, v in self.args.items()]
        parts.append("->")
        if self.ok:
            parts.append("ok")
            parts += [f"{k}={_render(v)}" for k, v in self.results.items()]
        else:
            parts.append(f"err={self.error}")
        return " ".join(parts)

    @staticmethod
    def from_line(line: str) -> "OpRecord":
        tokens = line.split()
        if len(tokens) < 5 or "->" not in tokens:
            raise MonitorError(ErrorCode.MALFORMED_LOG, line)
        arrow = tokens.index("->")
        try:
            step = int(tokens[0])
            core = int(tokens[1])
        except ValueError as exc:
            raise MonitorError(ErrorCode.MALFORMED_LOG, line) from exc
        op = tokens[2]
        args = _parse_kv(tokens[3:arrow], line)
        tail = tokens[arrow + 1:]
        if not tail:
            raise MonitorError(ErrorCode.MALFORMED_LOG, line)
        if tail[0] == "ok":
            return OpRecord(step, core, op, args, True, "",
                            _parse_kv(tail[1:], line))
        if tail[0].startswith("err="):
            return OpRecord(step, core, op, args, False, tail[0][4:], {})
        raise MonitorError(ErrorCode.MALFORMED_LOG, line)


def _render(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return hex(value) if value > 9 else str(value)
    return str(value)


def _parse_kv(tokens: list[str], line: str) -> dict:
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise MonitorError(ErrorCode.MALFORMED_LOG, line)
        key, raw = tok.split("=", 1)
        out[key] = _parse_value(raw)
    return out


def _parse_value(raw: str):
    try:
        return int(raw, 0)
    except ValueError:
        return raw


class TraceLog:
    """Accumulates operation records."""

    def __init__(self):
        self.records: list[OpRecord] = []
        # recording is the list's own append, so it enters no Python frame
        self.record = self.records.append

    def lines(self) -> list[str]:
        return [r.to_line() for r in self.records]

    def dump(self) -> str:
        return "\n".join(self.lines()) + ("\n" if self.records else "")


def parse_log(text: str) -> list[OpRecord]:
    records = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        records.append(OpRecord.from_line(line))
    return records
