"""The check-suite layer: per-suite record inventories, gating, and
determinism of the produced records."""

import pytest

from effecta.errors import ParseError
from effecta.report import render_jsonl
from effecta.serialize import algebra_to_obj
from effecta.suites import SUITE_NAMES, check_document, resolve_suites

from zoo_instances import boolean, chain, mo2


def by_key(records):
    return {(r.suite, r.check): r for r in records}


def test_resolve_suites():
    assert resolve_suites("all") == SUITE_NAMES
    assert resolve_suites("rdp") == ("rdp",)
    assert resolve_suites("states") == ("states",)
    with pytest.raises(ValueError):
        resolve_suites("martian")


def test_chain3_full_inventory_passes():
    recs = check_document(algebra_to_obj(chain(3)), "c3", SUITE_NAMES, seed=0)
    assert len(recs) == 31
    assert all(r.status == "pass" for r in recs)
    assert all(r.instance == "c3" for r in recs)
    names = {(r.suite, r.check) for r in recs}
    assert ("axioms", "validate") in names
    assert ("rdp", "refinement") in names
    assert ("sharp", "boolean-laws") in names
    assert ("states", "separating") in names
    assert ("representation", "sandwich-squeeze") in names
    assert ("smearing", "eq-residual-zero") in names
    assert ("spectral", "phi-square") in names
    assert ("extension", "uniqueness") in names


def test_mo2_gating_and_skip():
    recs = check_document(algebra_to_obj(mo2()), "mo2", SUITE_NAMES, seed=0)
    k = by_key(recs)
    witness = ["h0:{1}", "h0:{2}", "h1:{1}", "h1:{2}"]

    r = k[("rdp", "refinement")]
    assert r.status == "fail" and r.witness == witness

    r = k[("sharp", "boolean-laws")]
    assert r.status == "skip"
    assert r.detail == "requires the refinement property"
    assert k[("sharp", "members")].status == "pass"

    # every suite needing the canonical construction fails at its gate
    for suite in ("representation", "smearing", "spectral", "extension"):
        r = k[(suite, "canonical-representation")]
        assert r.status == "fail" and r.witness == witness

    # the state layer is indifferent to the refinement property
    for check in ("non-empty", "vertex-validity", "mixture-validity",
                  "sigma-additive", "separating"):
        assert k[("states", check)].status == "pass"


def test_carrier_cap_skips_only_the_suites_that_reach_it(monkeypatch):
    monkeypatch.setattr("effecta.representation.MAX_CARRIER", 0)
    recs = check_document(algebra_to_obj(chain(3)), "c3", SUITE_NAMES, seed=0)
    k = by_key(recs)
    for suite in ("representation", "smearing", "extension"):
        r = k[(suite, "size-limit")]
        assert r.status == "skip"
        assert r.detail == "carrier of 1 points exceeds 0"
    # the spectral suite never builds the sharp-set sigma-algebra
    assert all(r.status == "pass" for r in recs if r.status != "skip")
    assert {r.suite for r in recs} == set(SUITE_NAMES)


def test_box_cap_skips_the_suites_that_need_the_polytope(monkeypatch):
    monkeypatch.setattr("effecta.polytope.MAX_BOX_DIM", 0)
    recs = check_document(algebra_to_obj(boolean(2)), "b2", SUITE_NAMES,
                          seed=0)
    k = by_key(recs)
    # the refinement property holds, so every gated suite reaches the cap
    for suite in ("states", "representation", "smearing", "spectral",
                  "extension"):
        r = k[(suite, "size-limit")]
        assert r.status == "skip"
        assert r.detail == "parameter dimension 1 exceeds 0"
    assert all(r.status == "pass" for r in recs if r.status != "skip")
    assert {r.suite for r in recs} == set(SUITE_NAMES)


def test_invalid_algebra_shorts_every_suite():
    bad = algebra_to_obj(chain(3))
    bad["sum"] = [s if s != ["1", "1", "2"] else ["1", "1", "3"]
                  for s in bad["sum"]]
    recs = check_document(bad, "broken", SUITE_NAMES, seed=0)
    k = by_key(recs)
    r = k[("axioms", "validate")]
    assert r.status == "fail" and r.witness == ["1", "2"]
    for suite in SUITE_NAMES[1:]:
        assert k[(suite, "requires-valid-algebra")].status == "fail"
    assert len(recs) == 8


def test_malformed_document_raises():
    with pytest.raises(ParseError):
        check_document({"elements": ["0"]}, "x", SUITE_NAMES, seed=0)


def test_subset_runs_and_determinism():
    doc = algebra_to_obj(chain(4))
    axioms_only = check_document(doc, "c4", ("axioms",), seed=0)
    assert {r.suite for r in axioms_only} == {"axioms"}
    assert len(axioms_only) == 3

    once = render_jsonl(check_document(doc, "c4", SUITE_NAMES, seed=3))
    twice = render_jsonl(check_document(doc, "c4", SUITE_NAMES, seed=3))
    assert once == twice
