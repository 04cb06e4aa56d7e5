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
               "f2501dca4e9848b9e43dfc42e2840516"
               "c10619d7edbdd3d201f975dcbbf4986c"),
    "boolean4": (("boolean", "4"),
                 "2f9b71323425445fe07245e3f9a2aac0"
                 "b262d851eb4a5369acb63da2138e1b62"),
    "interval222": (("interval", "2", "2", "2"),
                    "9aae68730f9f8a5c389f5bd1cdab03f2"
                    "0cdb34a597a6b935d10ec5e45d0c81ed"),
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
    "boolean4": ("b5318b3b14648e44ed8bb51b905e90e4"
                 "431efc3f385e27aaa52d8b5afdd8851a"),
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
    "boolean1": "9a9fe7d91ec70990a6b4dc29f05ab33a"
                "8d5eed3d1295a8ed7d010227e03846ac",
    "boolean2": "ab1515fb17e0319c72e07f3652042384"
                "4cb98ee011e786cdb1caf2ed8cd87a7e",
    "boolean3": "bc93f5674fb7376a6a7f38daf0091b5b"
                "67eb29307b399dbfdd5e3df9741228a4",
    "boolean4": "2f9b71323425445fe07245e3f9a2aac0"
                "b262d851eb4a5369acb63da2138e1b62",
    "chain1": "d650821403a859b7dd99b744d8b94a70"
              "5c36d5ed1cd24a1193e15ab7509aa59e",
    "chain1x1x2": "60cd22ff923b96b609cf6ae19f211ac6"
                  "a1d486f6f0566366b53d581bbef25554",
    "chain2": "28f625c618c7d1599714d7fcf1952406"
              "60030111b87d4a6f8e4c6755da6d6cad",
    "chain2xchain3": "30d5a8f7cc9beb36dd87314396de01d8"
                     "d8def30458a861eeade6c9cb1a261f05",
    "chain3": "f2501dca4e9848b9e43dfc42e2840516"
              "c10619d7edbdd3d201f975dcbbf4986c",
    "chain3xchain4": "ac25a46354a1cf2bbcd8bd635674309f"
                     "5db2d86285398ea8219d3157843eac09",
    "chain4": "b530bf7597d5ce20eef116cfce0cee3c"
              "85032f21d257a62d376fdcb5b0a1d969",
    "chain5": "7e94f2478343c57b8477de5c5ce5f1c4"
              "2ea96f7f45cc86878a4fa1313cc82425",
    "chain6": "c0bb3b8050b898ade761d7061e68bfb0"
              "2f94d1b3aaed32af133efe94f8f5617c",
    "chain7": "5e7cc87d97fb168a80c4eef2ac281b83"
              "f234f6abe991b19d1bd9af9d17cc1759",
    "chain7xchain7": "24ce1c8487b070e0fe3b77d3bdf98ab6"
                     "9457a6232b76ddc1190bb16085ef3b98",
    "chain8": "781ccd0a6191c86f417032fe8c7924c4"
              "2bb22f8da97ad1a1137eb288cc77035f",
    "diamond": "3ae9f0ee520296b8f1677104e3dc700d"
               "fe0ca59921c47f4251fd8278397ab2a8",
    "hsum-mixed": "888f7a6da9163c3c40b483ea177bb116"
                  "41d46aa84390b45f4a0e52fb25cdd38d",
    "interval112": "555b05a1aa8391dd5ead8a53e469aebe"
                   "f8c800e0d63d2c7d3579590199bd7c5d",
    "interval12": "1564c5e9f7a8e2b6bc3a1156eace0399"
                  "ef7bcbfeb7cb5a9e0f299824fe976e6c",
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
