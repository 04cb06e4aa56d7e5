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
               "172fd63f3d2d0c7e0da15d0d824a18ab"
               "fb72a5185a6ca089db6237f3a71d6529"),
    "boolean4": (("boolean", "4"),
                 "9f8d4baa27a90f37629a72cddd5d83a8"
                 "3925ecfa2be4d1271450b0353e450f1e"),
    "interval222": (("interval", "2", "2", "2"),
                    "e52c082962c60711675e58a73f846a62"
                    "dd281970a8c3f340d56e6f18cb4a4692"),
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
    "boolean4": ("659bbd94ad4e2f944ed02560a94a8e00"
                 "725b269573702c44111271cb8ca0f634"),
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
    "boolean1": "c230f7e211e382f89f44f649eb9f6f30"
                "262d84a02a11ad7f04a7109aeb55a8ae",
    "boolean2": "7fdc03476d2a94fa1b14532eccef9052"
                "493f56ae8a4aeb94ac5ea69955e624f0",
    "boolean3": "d602e592466f187d8169dac6c7277dfc"
                "530e8488f64146146cd18242d348da82",
    "boolean4": "9f8d4baa27a90f37629a72cddd5d83a8"
                "3925ecfa2be4d1271450b0353e450f1e",
    "chain1": "075ff3344ebc8f709012ca44d725c7c5"
              "abf49d28e01ab000125ef7c9c3c3e405",
    "chain1x1x2": "8f5294eba091b0b8545e74acd5e635ac"
                  "40cfdc21b2e4a7626948bb0645c13594",
    "chain2": "878c94a05723fc9da8f523fdb5b26765"
              "3c73e3a27e9a5fb99638b4064e8c7a7a",
    "chain2xchain3": "842997ebd4c26f19d56b2769667cc2b3"
                     "27cbafb717d22502722869be3177c7c6",
    "chain3": "172fd63f3d2d0c7e0da15d0d824a18ab"
              "fb72a5185a6ca089db6237f3a71d6529",
    "chain3xchain4": "c25cca0701736dc102f10b214311657b"
                     "eebcc2d8e0db00cf69ff31dc6200324a",
    "chain4": "012713782fcda79ab3825892304a29df"
              "4b298240451baef0b0b779ca63b41f35",
    "chain5": "1048e302f490091104844a18b8165019"
              "17b3c6f246daef38340931ac9e63d1c1",
    "chain6": "fb47dbde60b3ef3b2cf656ea0ddfd317"
              "1a49ebbc4794ffb7f9ed8a09d86c8213",
    "chain7": "d71d94153250c5cd19ecc8eee33f909b"
              "45fba39056796b0ce3a2cd8c666598ca",
    "chain7xchain7": "69ba4f6de03664e2bda825fffc0e0921"
                     "beec0856a04baf04fe0eb35b543c99d7",
    "chain8": "dde6e672a5fd5a0eaeb7008a8a0241fd"
              "24016c8bdfbc43a025a51e5631098890",
    "diamond": "359109f48b754198fff723f962363433"
               "f015b990a741cd18b394cb64e0ed6846",
    "hsum-mixed": "1f0f88d3f0bacd1804eae70f356f1d78"
                  "4be552b5b2dd1eacf3a6a49b3fd1b2bb",
    "interval112": "c4eb26faa154e0cb2f84157cec245c00"
                   "b18f0699f2f88ea9a583bcc4cda893d8",
    "interval12": "e13c91a2abb69036e2e0763255b21c97"
                  "3d55c1a9cf3b6e6f9e7107616b1b73c1",
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
