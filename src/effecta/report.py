"""Check records and their deterministic rendering.

A run produces a flat list of records; rendering sorts them by
(suite, instance, check) so the output never depends on execution order,
and no volatile data (timing, paths, environment) enters the payload.
"""

from __future__ import annotations

import json
from typing import Iterable, NamedTuple, Sequence

PASS = "pass"
FAIL = "fail"
SKIP = "skip"

# the suites of ``effecta check``, in the order they run; kept here so the
# command line can offer them without loading the suites
SUITE_NAMES = ("axioms", "rdp", "sharp", "states", "representation",
               "smearing", "spectral", "extension")


class Record(NamedTuple):
    suite: str
    instance: str
    check: str
    status: str                       # "pass" | "fail" | "skip"
    witness: object = None            # JSON-ready reproduction data
    detail: str = ""

    def sort_key(self) -> tuple:
        return (self.suite, self.instance, self.check)


def sort_records(records: Iterable[Record]) -> list[Record]:
    return sorted(records, key=Record.sort_key)


def render_jsonl(records: Iterable[Record]) -> str:
    lines = []
    for r in sort_records(records):
        payload = {
            "suite": r.suite,
            "instance": r.instance,
            "check": r.check,
            "status": r.status,
        }
        if r.witness is not None:
            payload["witness"] = r.witness
        if r.detail:
            payload["detail"] = r.detail
        lines.append(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    return "\n".join(lines) + "\n" if lines else ""


def render_text(records: Iterable[Record]) -> str:
    lines = []
    for r in sort_records(records):
        line = f"{r.status.upper():4s} {r.suite}:{r.check} [{r.instance}]"
        if r.detail:
            line += f" — {r.detail}"
        if r.witness is not None:
            line += f" witness={json.dumps(r.witness, sort_keys=True)}"
        lines.append(line)
    return "\n".join(lines) + "\n" if lines else ""


def render(records: Iterable[Record], fmt: str) -> str:
    if fmt == "jsonl":
        return render_jsonl(records)
    if fmt == "text":
        return render_text(records)
    raise ValueError(f"unknown format {fmt!r}")


def exit_code(records: Sequence[Record]) -> int:
    return 1 if any(r.status == FAIL for r in records) else 0
