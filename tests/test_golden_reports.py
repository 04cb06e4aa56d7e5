"""Byte identity of full reports against digests recorded before any
performance change.

A faster path must leave every report byte unchanged.  The digests below
are the sha256 of the JSONL report of ``check_document`` with all suites at
seed 0, recorded at the commit before the smearing integrals were memoised
(f4bdc40); a change that alters any record on these documents fails here.
The ``effecta smear`` digests are the sha256 of its stdout, recorded at
0314da1.  The ``hsum3-boolean3`` digest was recorded at 163484d, before
vertex enumeration moved to integer arithmetic, and the ``loop4`` digest at
b48337f, before the state equalities moved onto atom values.  The
``--format text`` digests were recorded at 138dec8, before the record
classes became named tuples; ``render_text`` reads every field of a
``Record``.
"""

import hashlib
import json

import pytest

from effecta import cli, generate, parse_family_tokens
from effecta.report import render, render_jsonl
from effecta.serialize import algebra_to_obj
from effecta.suites import SUITE_NAMES, check_document

from zoo_instances import loop4

GOLDEN = {
    "chain3": (("chain", "3"),
               "8e3222dac783f0e84bdc74b994d73bb1"
               "8a23592fec14408eec933ac5581b3e7a"),
    "boolean4": (("boolean", "4"),
                 "32cb04c5b28a8983579382322a30b5f8"
                 "34dcbefce20377134269d11aa98aa8a3"),
    "interval222": (("interval", "2", "2", "2"),
                    "7346af0763545a940217d31c62de2e79"
                    "819eec35a7e9dd59b5eb4736b1b70406"),
    # no refinement property: sharp members under the plain meet, the
    # boolean-laws SKIP and the refinement-gate FAILs (recorded at 36971c8)
    "hsum-boolean2x3": (("horizontal-sum", "boolean2", "boolean2", "boolean2"),
                        "2b665a2912007827b9e669014ab90bbda8a2dabf"
                        "54a767f8065e08438fcca171"),
    # no refinement property, d = 6 and 27 vertices: the only pinned
    # polytope whose cuts slice the parameter box (recorded at 163484d)
    "hsum3-boolean3": (("horizontal-sum", "boolean3", "boolean3", "boolean3"),
                       "07f4a6b57f2b872dac1df19a047c209c"
                       "f59766e2d0b7c3d0dafa1d9ca2787ffe"),
}


@pytest.mark.parametrize("instance", sorted(GOLDEN))
def test_report_bytes_match_the_recorded_digest(instance):
    tokens, digest = GOLDEN[instance]
    doc = algebra_to_obj(generate(parse_family_tokens(list(tokens))))
    report = render_jsonl(check_document(doc, instance, SUITE_NAMES, 0))
    assert hashlib.sha256(report.encode("utf-8")).hexdigest() == digest


# four Boolean blocks pasted in a loop: the one bench document whose blocks
# share atoms, so the only one whose state equations couple atoms of
# different blocks
LOOP4_DIGEST = ("cd9e16e43294f5d27694446dcd9a969b"
                "38edc6412f4c9a912845675a811a035d")


def test_loop4_report_bytes_match_the_recorded_digest():
    report = render_jsonl(check_document(algebra_to_obj(loop4()), "loop4",
                                         SUITE_NAMES, 0))
    assert hashlib.sha256(report.encode("utf-8")).hexdigest() == LOOP4_DIGEST


TEXT_GOLDEN = {
    "boolean4": ("2d53c452dbd54fa1d713ebf8f76368bd"
                 "865e20ea6e06a292976dd105d80468d5"),
    "loop4": ("95f8f8839d272ccfdfd853e77c9f7f3b"
              "d23a90f8a156f01802b5051bae2c029d"),
}


@pytest.mark.parametrize("instance", sorted(TEXT_GOLDEN))
def test_text_report_bytes_match_the_recorded_digest(instance):
    M = (loop4() if instance == "loop4"
         else generate(parse_family_tokens(list(GOLDEN[instance][0]))))
    records = check_document(algebra_to_obj(M), instance, SUITE_NAMES, 0)
    report = render(records, "text")
    assert (hashlib.sha256(report.encode("utf-8")).hexdigest()
            == TEXT_GOLDEN[instance])


SMEAR_GOLDEN = {
    "boolean4": (("boolean", "4"),
                 {"support": ["0", "1/2", "1"],
                  "values": ["{1}", "{2}", "{3,4}"]}, "3",
                 "1e27ac5295594121990e37035a70dce1"
                 "d2f50af710c87b93d2c69e6897db68d7"),
    "chain3": (("chain", "3"),
               {"support": ["0", "1"], "values": ["1", "2"]}, "0",
               "77bb212d22c72607edd80d9fed242219"
               "698112c2c5eaec0f3c748eaa11992e7c"),
}


@pytest.mark.parametrize("instance", sorted(SMEAR_GOLDEN))
def test_smear_output_matches_the_recorded_digest(instance, tmp_path,
                                                  capsys):
    tokens, observable, seed, digest = SMEAR_GOLDEN[instance]
    algebra = tmp_path / f"{instance}.json"
    obs = tmp_path / "obs.json"
    assert cli.main(["generate", *tokens, "--output", str(algebra)]) == 0
    obs.write_text(json.dumps(observable))
    assert cli.main(["smear", "--input", str(algebra), "--observable",
                     str(obs), "--seed", seed]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
