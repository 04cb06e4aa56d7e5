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

Every JSONL and text digest but ``SMEAR_GOLDEN`` was re-recorded once more
after d1f82fd, which dropped three records that validation or the
product-of-chains certificate proves (``axioms:double-complement``,
``axioms:difference-unique`` and ``sharp:boolean-laws``).  A line filter
showed each new report, at seeds 0 and 3, to be the d1f82fd report minus
exactly those three lines.

The digests of documents with the refinement property were re-recorded
once more after e127600, which dropped four records that the
product-of-chains certificate proves on the canonical representation
(``representation:b0-sigma-laws``, ``sharp-image``, ``measurability`` and
``spectral:injectivity``; ``oracles`` keeps a pair scan of each).  Each new
report, at seeds 0 and 3, is the e127600 report minus exactly those four
lines; ``LOOP4_DIGEST``, the other documents without the property and
``SMEAR_GOLDEN`` did not move.
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
               "d9c4a9404bbfb7e8dcde585998aa4363"
               "75c89a2a643a308c7daa726a6b9dfc0f"),
    "boolean4": (("boolean", "4"),
                 "dc8dc058bd943b975f71eb03344fe6bc"
                 "9fcd3e15bd3323e2979698bde8b6a06b"),
    "interval222": (("interval", "2", "2", "2"),
                    "cd4a867ab630d29511b4178ddc0c8ebb"
                    "4fd022792b1c0561c1c536c38461138c"),
    # the two largest documents of the rdp-all bench workload
    "boolean5": (("boolean", "5"),
                 "820a0d5bb0bc98d483761be18bd014c9"
                 "6d0bf362ebb086643ebaff5ab5d39a62"),
    "boolean6": (("boolean", "6"),
                 "ccedfb00ec85e526ee5c4c9ded7c19bd"
                 "85767d8315f8807bccd630d2fd540676"),
    # no refinement property: sharp members under the plain meet and the
    # refinement-gate FAILs
    "hsum-boolean2x3": (("horizontal-sum", "boolean2", "boolean2", "boolean2"),
                        "43076b4383684cf35e03505986c4c4afa4849793"
                        "149d1f6779dcf10efc9f0cf0"),
    # no refinement property, d = 6 and 27 vertices: the only pinned
    # polytope whose cuts slice the parameter box
    "hsum3-boolean3": (("horizontal-sum", "boolean3", "boolean3", "boolean3"),
                       "4c888b8611d9d17f62948b1c7761e695"
                       "f5e7f017fcaf2647640204835e087815"),
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
LOOP4_DIGEST = ("76727007dbf9e35d117f2583d2151e87"
                "3f071ae93678f9e36281e55a62ce9b9f")


def test_loop4_report_bytes_match_the_recorded_digest():
    report = render_jsonl(check_document(algebra_to_obj(loop4()), "loop4",
                                         SUITE_NAMES, 0))
    assert hashlib.sha256(report.encode("utf-8")).hexdigest() == LOOP4_DIGEST


TEXT_GOLDEN = {
    "boolean4": ("f2aac3eb48176945b1817be4ec2ad4dc"
                 "bc07f12b810ac5e94787a74f6b46b909"),
    "loop4": ("3620c6913efeb749930fed82543ec887"
              "b6736f9136390a2cf1cc47163cf2bb39"),
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
    "boolean1": "b04158eb70e299c8b6fbc0c37a848a53"
                "fbf5fc5e67ea83084b563c1a1d42f564",
    "boolean2": "428bd1c6a91a6ee4bf15dce6cb38bc5d"
                "0dd2227f36899508634fad5f0af1d4e8",
    "boolean3": "5ba5be3d504fba4d7991a83065eb774b"
                "298ff6625ce6a169347fa6f651a3d3bc",
    "boolean4": "dc8dc058bd943b975f71eb03344fe6bc"
                "9fcd3e15bd3323e2979698bde8b6a06b",
    "chain1": "4c2d5c73190cf3e904a70b0669558e0d"
              "a552790fab0a3681a06f450fd92a4a2b",
    "chain1x1x2": "add3de565291b3d1a767d9b44d5ea177"
                  "9a20806f6efc055fe3f4b8cd356afb77",
    "chain2": "ec09620a5fd7c32c8c9d435793525670"
              "b7f65bfa31aaff597c295bb5f9a50acc",
    "chain2xchain3": "0aff29ad93411cc84097afec864b645c"
                     "4324ae392ae319a495ccad468e0c5d35",
    "chain3": "d9c4a9404bbfb7e8dcde585998aa4363"
              "75c89a2a643a308c7daa726a6b9dfc0f",
    "chain3xchain4": "36686d3df84fd0ddf06dda78b827d000"
                     "ea4c47427a6a18f8b559491d6c103575",
    "chain4": "eb6dc3db87c04241e079b650f7359e58"
              "d874cb815b647b0aa9564a1383ea0743",
    "chain5": "4aa626ac331b03792ed790d52589449e"
              "74dc9daa453c7673296cca73d321cb84",
    "chain6": "0da8d24aa7c5806b93449b87da4ff20b"
              "51abe5353304ce000009682303c51c4a",
    "chain7": "dd106bae8878ade3cd39f43ef74ff187"
              "d755fb08f2ddc684b6ae1bc13cd46ae6",
    "chain7xchain7": "e8124b8090dff7d1d44abacc528e9a2f"
                     "d0051b43628248cbea768b3af3bfab82",
    "chain8": "6e999e1647f12054f371b05d130a0d80"
              "63352962c163fdf47cabd6f1658a3f63",
    "diamond": "3ae9f0ee520296b8f1677104e3dc700d"
               "fe0ca59921c47f4251fd8278397ab2a8",
    "hsum-mixed": "888f7a6da9163c3c40b483ea177bb116"
                  "41d46aa84390b45f4a0e52fb25cdd38d",
    "interval112": "7dacf31fe89cdae021f6885e9e929e98"
                   "06c5288f6519b7ac273adcd3f67b73a2",
    "interval12": "a108550cdd59fe57b6dedf35f328aba0"
                  "7951286b527d44fe754e05582763ba02",
    "loop4": LOOP4_DIGEST,
    "mo2": "7a8f8eb180c378d9874f5c34ed560663"
           "e466a3bf30143004d39ed5d403b4ca2d",
    "mo3": "8d059c28909bfbc0b77b6de703f00f39"
           "8c9ea4831a1fb4ca744f524e3952380b",
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
