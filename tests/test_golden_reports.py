"""Byte identity of full reports against recorded digests.

A faster path must leave every report byte unchanged.  The digests below
are the sha256 of the JSONL report of ``check_document`` with all suites at
seed 0, of the ``--format text`` report for ``TEXT_GOLDEN``, and of the
stdout of ``effecta smear`` for ``SMEAR_GOLDEN``.  The zoo digests cover
seeds 0 and 3: on these documents no record depends on the seed, so one
digest serves both.

Every digest here was re-recorded in the change that followed 818df07,
which dropped the records that cannot fail (``states:vertex-validity``,
``mixture-validity``, ``sigma-additive``, ``representation:b0-equals-s0``,
``spectral:phi-identity``, ``extension:spectral-probe`` and ``smear``'s
``observable-valid``) and evaluates an algebra with one extremal state at
that state alone.  A line filter showed each new report to be the 818df07
report minus exactly those lines, with only the ``N states`` details of
``eq-residual-zero``, ``integral-identity`` and ``roundtrip`` changed on the
one-state algebras.

The digests of documents with the refinement property were re-recorded
again after 1042045, which dropped five more records that cannot fail on
the canonical representation (``representation:regular``,
``ideal-congruence``, ``sandwich-squeeze``, ``smearing:kernel-independence``
and ``spectral:measure-additivity``; ``test_suites.py`` keeps a reference
check of each).  Each new digest is that of the 1042045 report with
exactly those records filtered out; the digests of documents without the
property, which stop at the refinement gate, did not move.
"""

import functools
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import effecta
from effecta import cli, generate, parse_family_tokens
from effecta.report import render, render_jsonl
from effecta.serialize import algebra_to_obj
from effecta.suites import SUITE_NAMES, check_document

from zoo_instances import loop4, non_rdp_zoo, rdp_zoo

GOLDEN = {
    "chain3": (("chain", "3"),
               "0b10736d8c9da1c85d3aba71e8e121b0"
               "1c11ca731ab32ff6f0c116809df34c23"),
    "boolean4": (("boolean", "4"),
                 "5b1f93ca6d94b4fce4a253f082aa9d4b"
                 "bd42c41ddfa9585b9142c674d5c59709"),
    "interval222": (("interval", "2", "2", "2"),
                    "a6f4f56534bdb366360e2b03cf9da90f"
                    "4568fa3d89a96204c1baa8b121881f1d"),
    # no refinement property: sharp members under the plain meet, the
    # boolean-laws SKIP and the refinement-gate FAILs
    "hsum-boolean2x3": (("horizontal-sum", "boolean2", "boolean2", "boolean2"),
                        "9b5cadb0b24dfc8030fd6edd514ca7091dbd9c72"
                        "49213666df332d1324908938"),
    # no refinement property, d = 6 and 27 vertices: the only pinned
    # polytope whose cuts slice the parameter box
    "hsum3-boolean3": (("horizontal-sum", "boolean3", "boolean3", "boolean3"),
                       "44cd72d282547e24227b1a89091db909"
                       "91565472094d8a3de2dc60daf763d3de"),
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
LOOP4_DIGEST = ("6bc0ff6ca94910154b8c4d2e4fd300af"
                "8199a49a614b5da991fa5f3188b2a5e3")


def test_loop4_report_bytes_match_the_recorded_digest():
    report = render_jsonl(check_document(algebra_to_obj(loop4()), "loop4",
                                         SUITE_NAMES, 0))
    assert hashlib.sha256(report.encode("utf-8")).hexdigest() == LOOP4_DIGEST


TEXT_GOLDEN = {
    "boolean4": ("4a990e6dad4989c3ad46f8e9298006b5"
                 "8bc83f43c7a5b1bac41d265fb8e3ed81"),
    "loop4": ("28b4f9d799283b4df4e7b878d56dc777"
              "6e1aa0c08434907c4fdf2f39eada4f01"),
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
                 "838a27917ab3a1c1450e1503604ed689"
                 "06449b837ca9a40eef589aadbe221ad9"),
    "chain3": (("chain", "3"),
               {"support": ["0", "1"], "values": ["1", "2"]}, "0",
               "9f405ad44d6933fcc29a1d3b2e173fd1"
               "195fa568ead5c866e9a37c8ec5f52910"),
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


@pytest.mark.parametrize("instance", sorted(SMEAR_GOLDEN))
def test_smear_in_a_fresh_interpreter_matches_the_recorded_digest(
        instance, tmp_path):
    """As a user runs it: one process per command, so every layer ``smear``
    reaches is imported by the command itself."""
    tokens, observable, seed, digest = SMEAR_GOLDEN[instance]
    algebra = tmp_path / f"{instance}.json"
    obs = tmp_path / "obs.json"
    obs.write_text(json.dumps(observable))
    src = str(Path(effecta.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def effecta_cli(*argv):
        return subprocess.run([sys.executable, "-m", "effecta.cli", *argv],
                              env=env, capture_output=True, check=True).stdout

    effecta_cli("generate", *tokens, "--output", str(algebra))
    out = effecta_cli("smear", "--input", str(algebra), "--observable",
                      str(obs), "--seed", seed)
    assert hashlib.sha256(out).hexdigest() == digest


ZOO_GOLDEN = {
    "boolean1": "0f3ba1837a637cf8e53f0cc2ceb09051"
                "300043408a6a8ecf7e9696cf0e3a9ca2",
    "boolean2": "5e6ad553a37df2be0f7a8fb2e255cda5"
                "e2a2daf13eee2e5f62206c008aa86c60",
    "boolean3": "3a304f610e2047a4adfcdc8be1475cd0"
                "8ea8889042d839f7f825076635d5591d",
    "boolean4": "5b1f93ca6d94b4fce4a253f082aa9d4b"
                "bd42c41ddfa9585b9142c674d5c59709",
    "chain1": "ff6612e25938b37327bf96b784b04d34"
              "db724ded60f47951d611917e55b79c16",
    "chain1x1x2": "4ae421f994bafca8c0670bc9f18fcdee"
                  "ca6ae32c4f21989573fe4426d2384a14",
    "chain2": "560dda8f35660dad4109e4ca64da83be"
              "34ef869226af9fa06466691139408aed",
    "chain2xchain3": "1a233fbc52d097e59f5cfc4e2ce0eec4"
                     "96d68f494e141be65e1716c1bb91d324",
    "chain3": "0b10736d8c9da1c85d3aba71e8e121b0"
              "1c11ca731ab32ff6f0c116809df34c23",
    "chain3xchain4": "66fe0548e19d6427015ec6b270661119"
                     "439d8b995eebc33807eac1a9294b045c",
    "chain4": "a4ee44cf6fd026b0f5db35f2bdd39c65"
              "f5b111f682e8e1c2f3c9ce44d9bbbb9f",
    "chain5": "869e02f00ad16a86bf3f84abd113313c"
              "dbf3b5dbb37a7f192815ba2bb565ffcb",
    "chain6": "d80b08be38b42dcbf9cdaa72c7830e32"
              "72d74953d3238e2f83bde31e3bdf62df",
    "chain7": "3a04b7fbca9d3fb68338527c477c480a"
              "894a1257ce3f0d9c823d4d61fd55c110",
    "chain7xchain7": "3be0fc756889d5c3642dca2562b08045"
                     "1324eca6574b918318b9a4b40f88c748",
    "chain8": "99fe743b60d3aa147e1b7b0edad21467"
              "957e45bd8c36ecf7f0bd317f7af519de",
    "diamond": "359109f48b754198fff723f962363433"
               "f015b990a741cd18b394cb64e0ed6846",
    "hsum-mixed": "1f0f88d3f0bacd1804eae70f356f1d78"
                  "4be552b5b2dd1eacf3a6a49b3fd1b2bb",
    "interval112": "401731ef7eda669a5bb82e2e896fba05"
                   "4645f183b057b9c046af84770e5ba0ee",
    "interval12": "57099bd487c70ec9a05ae766b1a09ff5"
                  "bd4b55945d264d0e3d17d5b94b41ab9e",
    "loop4": LOOP4_DIGEST,
    "mo2": "8e83e26ebd21f80c9a9898838bc043c5"
           "35e164b5ea55776c14b40fa7def4ab95",
    "mo3": "145b47fca06c8b53ea57481d1073aa87"
           "4a58b32f4cc4851dfe0b86ba39182d47",
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
