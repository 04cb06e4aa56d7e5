"""The benchmark's workloads: which documents each one checks, how they are
written, and what verdict the theory demands of each.

Every document is a fixed algebra; the run's seed reaches the program only
through ``check --seed``, where it picks the mixture states that the states,
smearing, spectral and extension suites evaluate.

The three workloads load different layers:

* ``rdp-all`` runs all eight suites on algebras with the refinement property,
  so observables (smearing), spectral, lp (extension) and representation
  carry most of the time;
* ``states-rows`` runs only the states suite on algebras with large
  equality systems and few extremal states, so the exact elimination in
  ``linalg.solve_affine`` dominates;
* ``nonrdp-vertices`` runs all suites on algebras without the refinement
  property: many extremal states over tiny systems, so vertex enumeration
  and the per-vertex state predicates carry the time, the gated suites stop
  at ``canonical-representation``, and interpreter start and import show.
  It also holds three unusable or invalid documents.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

SUITES = ("axioms", "rdp", "sharp", "states", "representation",
          "smearing", "spectral", "extension")
GATED = ("representation", "smearing", "spectral", "extension")

# expected verdict kinds
RDP = "rdp"                  # exit 0, no FAIL record
NON_RDP = "non-rdp"          # exit 1, refinement and gated suites FAIL
AXIOM = "axiom"              # exit 1, axioms/validate FAIL with a witness
INPUT_ERROR = "input-error"  # exit 2, one "error:" line, no report


@dataclass(frozen=True)
class Document:
    name: str                        # file stem, which is the report's instance id
    kind: str                        # one of the verdict kinds above
    family: tuple[str, ...] = ()     # `effecta generate` tokens, if generated
    suite: str = "all"
    extra: tuple[str, ...] = ()      # further `check` arguments

    def check_args(self, path: Path, seed: int) -> list[str]:
        return ["check", "--input", str(path), "--seed", str(seed),
                "--suite", self.suite, *self.extra]


def _hsum(block: str, count: int) -> tuple[str, ...]:
    return ("horizontal-sum",) + (block,) * count


WORKLOADS: dict[str, tuple[Document, ...]] = {
    "rdp-all": (
        Document("chain3", RDP, ("chain", "3")),
        Document("boolean4", RDP, ("boolean", "4")),
        Document("interval222", RDP, ("interval", "2", "2", "2")),
        Document("boolean5", RDP, ("boolean", "5")),
        Document("boolean6", RDP, ("boolean", "6")),
    ),
    "states-rows": (
        Document("chain7xchain7", RDP, ("product", "chain7", "chain7"),
                 suite="states"),
        Document("interval333", RDP, ("interval", "3", "3", "3"),
                 suite="states"),
        Document("chain30", RDP, ("chain", "30"), suite="states"),
        Document("interval223", RDP, ("interval", "2", "2", "3"),
                 suite="states"),
    ),
    "nonrdp-vertices": (
        Document("hsum10-boolean2", NON_RDP, _hsum("boolean2", 10)),
        Document("hsum8-boolean2", NON_RDP, _hsum("boolean2", 8)),
        Document("hsum3-boolean2", NON_RDP, _hsum("boolean2", 3)),
        Document("hsum3-boolean3", NON_RDP, _hsum("boolean3", 3)),
        Document("loop4", NON_RDP),
        Document("malformed", INPUT_ERROR),
        Document("boolean4-assoc-broken", AXIOM),
        Document("boolean4-oversize", INPUT_ERROR, ("boolean", "4"),
                 extra=("--max-size", "8")),
    ),
}


# ---------------------------------------------------------------------------
# documents that `effecta generate` cannot write


def loop4_document() -> dict:
    """Four eight-element Boolean blocks pasted in a loop.

    Block i has the atoms (a_i, b_i, a_{i+1}), indices mod 4, so consecutive
    blocks share one atom; each atom's complement is the co-atom above the
    other two atoms of a block holding it.  18 elements; a sum of two atoms
    from different blocks has no refinement.
    """
    atoms = [f"a{i}" for i in range(1, 5)] + [f"b{i}" for i in range(1, 5)]
    labels = ["0", "1"] + atoms + [x + "'" for x in atoms]
    blocks = [("a1", "b1", "a2"), ("a2", "b2", "a3"),
              ("a3", "b3", "a4"), ("a4", "b4", "a1")]
    sums = [["0", x, x] for x in labels]
    sums += [[x, x + "'", "1"] for x in atoms]
    for p, q, r in blocks:
        sums += [[p, q, r + "'"], [p, r, q + "'"], [q, r, p + "'"]]
    return {"elements": labels, "zero": "0", "one": "1", "sum": sums}


MALFORMED_TEXT = '{"elements": ["0", "1"], "zero": "0", "one": "1", "sum": [\n'

# Removing the single sum {1} + {2} = {1,2} from the Boolean algebra 2^4
# leaves ({1} + {2}) + {3} undefined while {1} + ({2} + {3}) = {1,2,3} is
# defined, so associativity fails; every element keeps its one complement.
_BROKEN_PAIR = {"{1}", "{2}"}


def break_associativity(doc: dict) -> dict:
    sums = [s for s in doc["sum"] if set(s[:2]) != _BROKEN_PAIR]
    if len(sums) == len(doc["sum"]):
        raise ValueError("the document has no sum {1} + {2} to remove")
    return dict(doc, sum=sums)


def write_handmade(workload: str, directory: Path) -> None:
    """Write the documents of a workload that `effecta generate` cannot.

    The associativity-broken table is derived from the generated oversize
    document, so `generate` must have run first."""
    names = {d.name for d in WORKLOADS[workload]}
    if "loop4" in names:
        (directory / "loop4.json").write_text(json.dumps(loop4_document()))
    if "malformed" in names:
        (directory / "malformed.json").write_text(MALFORMED_TEXT)
    if "boolean4-assoc-broken" in names:
        base = json.loads((directory / "boolean4-oversize.json").read_text())
        (directory / "boolean4-assoc-broken.json").write_text(
            json.dumps(break_associativity(base)))


# ---------------------------------------------------------------------------
# verdicts


def verdict_error(doc: Document, code: int | None, out: str,
                  err: str) -> str | None:
    """Why this invocation's result contradicts the theory; None if it
    agrees.  ``code`` is None for a timeout or an escaped exception."""
    if code is None:
        return "no exit code (timeout or exception)"
    if "Traceback" in err:
        return "traceback on stderr"
    if doc.kind == INPUT_ERROR:
        lines = err.splitlines()
        if code != 2:
            return f"exit {code}, expected 2"
        if out:
            return "a report was written for unusable input"
        if len(lines) != 1 or not lines[0].startswith("error: "):
            return "expected exactly one 'error:' line on stderr"
        return None

    try:
        records = [json.loads(line) for line in out.splitlines()]
    except json.JSONDecodeError:
        return "stdout is not JSONL"
    failing = {(r.get("suite"), r.get("check")): r for r in records
               if r.get("status") == "fail"}
    if doc.kind == AXIOM:
        # an invalid table says nothing about the other suites' records
        if code != 1:
            return f"exit {code}, expected 1"
        if not failing.get(("axioms", "validate"), {}).get("witness"):
            return "no axioms/validate FAIL with a witness"
        return None

    suites = set(SUITES) if doc.suite == "all" else {doc.suite}
    if {r.get("suite") for r in records} != suites:
        return "report does not cover exactly the requested suites"
    if doc.kind == RDP:
        expected_code, expected = 0, set()
    elif doc.kind == NON_RDP:
        expected_code = 1
        expected = {("rdp", "refinement")}
        expected |= {(s, "canonical-representation") for s in GATED}
        if len(failing.get(("rdp", "refinement"), {}).get("witness") or ()) != 4:
            return "refinement FAIL without a four-element witness"
    else:
        raise ValueError(f"unknown verdict kind {doc.kind!r}")
    if code != expected_code:
        return f"exit {code}, expected {expected_code}"
    if set(failing) != expected:
        return f"FAIL records {sorted(failing)}, expected {sorted(expected)}"
    return None
