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
``Record``.  The zoo digests were recorded at 143056e, before the
spectral integral became one table per state; on these documents no record
depends on the seed, so one digest serves seeds 0 and 3.
"""

import functools
import hashlib
import json

import pytest

from effecta import cli, generate, parse_family_tokens
from effecta.report import render, render_jsonl
from effecta.serialize import algebra_to_obj
from effecta.suites import SUITE_NAMES, check_document

from zoo_instances import loop4, non_rdp_zoo, rdp_zoo

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


ZOO_GOLDEN = {
    "boolean1": "10dc9146466859421d13e4369ef99051"
                "83e44bf328299ec40e1a95f50ddf0518",
    "boolean2": "2bbc1e6ac6cd0dc187cbc64200bc943a"
                "dd96f63623be7e3801175ba952c5c047",
    "boolean3": "efc483d3b7076eb90acc471e4a977f73"
                "c816fe056ce31e16560f92dc81983c88",
    "boolean4": "32cb04c5b28a8983579382322a30b5f8"
                "34dcbefce20377134269d11aa98aa8a3",
    "chain1": "59e71ee25b080f978325147dc9739636"
              "5cb96587c326c923e4e78b25599f2308",
    "chain1x1x2": "f410ce58dc490ba06bcb6c2ff77c99e0"
                  "87367f59f49341dd0b1603f141a28d6c",
    "chain2": "127d29b2af4e9935a890e4f737e1e82d"
              "692b3ed04b31f2c3a681635a6dcf7481",
    "chain2xchain3": "1e74395f3c3f376486be7adfd442aa9c"
                     "ff2cad81fa173ff0f3ad1428c3b2f23e",
    "chain3": "8e3222dac783f0e84bdc74b994d73bb1"
              "8a23592fec14408eec933ac5581b3e7a",
    "chain3xchain4": "8eb6582f051d494c95f33a37e0530daf"
                     "52a0187293aa8f0e3ccdb2faccbacd1f",
    "chain4": "43062ae4fa6ec432f6ad0344328a3ab5"
              "c1a47e980a4e2b92a753c80ecba9298e",
    "chain5": "b4cad827faeb68e1277f303d6a1f9aff"
              "568cac8a0609a30817442879139188b3",
    "chain6": "7ca1a65825d68c5078db1812f325015b"
              "498381d036c6388363140178a9e685de",
    "chain7": "a332c26b6e6c3ba01e9509b02e197a9a"
              "81e6776644ae68586380219fb1772ead",
    "chain7xchain7": "7351094e2442d2bec3c76fc5683e0ceb"
                     "4bd91f833ee1a17fba45ab9941a14a83",
    "chain8": "8f4c34920001695c6995c37ee75545e4"
              "b25584831bef4405e349b31ef3fb81d3",
    "diamond": "a167d4ed19c66592dcdaf573ce9d9989"
               "ee65e63dd205d5b7d47bf7ab9bcc0676",
    "hsum-mixed": "5c7ccc348fc2fc4762b6d0c4c17a6888"
                  "48656674b2c21522fa4f2272fd66af7a",
    "interval112": "2706289f1233655d8439a6e6802a9263"
                   "ed83e44cad0c23dd30b3a4a60be77931",
    "interval12": "f4f1d69f6ee72126f39f6aba5c925a5d"
                  "b26bd02a56835e4228713b198b17e741",
    "loop4": LOOP4_DIGEST,
    "mo2": "ef6b91eccbac600d2f617115bc1e0e43"
           "769d0b1e50f74c3efabf9d2a9ac36714",
    "mo3": "45d7dcc48e4d8880f13550993a933906"
           "75416f207bf11f06280b299567b29b7b",
}

# (instance, seed) pairs the tests above already pin
_PINNED = {("chain3", 0), ("boolean4", 0), ("loop4", 0)}


@functools.cache
def _zoo():
    return dict(rdp_zoo() + non_rdp_zoo())


def test_zoo_golden_covers_the_whole_zoo():
    assert sorted(ZOO_GOLDEN) == sorted(_zoo())


@pytest.mark.parametrize("instance,seed", [
    (name, seed) for name in sorted(ZOO_GOLDEN) for seed in (0, 3)
    if (name, seed) not in _PINNED])
def test_zoo_report_bytes_match_the_recorded_digest(instance, seed):
    doc = algebra_to_obj(_zoo()[instance])
    report = render_jsonl(check_document(doc, instance, SUITE_NAMES, seed))
    assert (hashlib.sha256(report.encode("utf-8")).hexdigest()
            == ZOO_GOLDEN[instance])
