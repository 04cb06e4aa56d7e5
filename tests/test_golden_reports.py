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

The digests of documents with the refinement property, and ``SMEAR_GOLDEN``,
were re-recorded once more after 8014b2a, which dropped three records the
product-of-chains certificate proves (``smearing:kernel-measurable``, in
``check`` and in ``smear``, ``spectral:sharp-table`` and
``extension:uniqueness``; ``oracles`` keeps ``sharp_table`` and the rank
certificate ``sharp_kernel``).  Each new report, at seeds 0 and 3, is the
8014b2a report minus exactly those lines; ``LOOP4_DIGEST`` and the other
documents without the property did not move.
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
               "fc9dbf1582d01cb0fc7e7a48445ad531"
               "b11d73ae5e249f3b732cf836d4d18692"),
    "boolean4": (("boolean", "4"),
                 "732f02499f4f35f6484ba042541c8de4"
                 "990e19f32c0a7f80772d9a405bd7bde5"),
    "interval222": (("interval", "2", "2", "2"),
                    "dae2ea2eee7606bac07b93c466a91104"
                    "0897b40ae5e15c2945ef4d8c2e32507b"),
    # the two largest documents of the rdp-all bench workload
    "boolean5": (("boolean", "5"),
                 "fb2a09e875d57b93a3b3dbbc7efd3ff9"
                 "7b68d15734e0c629c67194ecfdf31699"),
    "boolean6": (("boolean", "6"),
                 "5151b4b0ad6f4951d050d6a41143a11c"
                 "0dab6bef5cd5de679bc9233b594ef9b3"),
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
    "boolean4": ("c9a4fbcd880cc2ec899d4f23cd350e65"
                 "31d48688a1d32910928af95244dd5106"),
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
                 "30c14672f57b9139ee7138ba081745d8"
                 "acd77065a325a8ebf3dd3a6fe96d255d"),
    "chain3": (("chain", "3"),
               {"support": ["0", "1"], "values": ["1", "2"]}, "0",
               "4acf6a402cf04835fac6803249d6bbec"
               "66d941ba0a718b998a5b53952aa45212"),
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


@pytest.mark.parametrize("encoding", ["latin-1", "ascii"])
@pytest.mark.parametrize("command", ["check", "smear"])
def test_text_reports_reach_a_non_utf8_stdout_as_utf8(command, encoding,
                                                      tmp_path):
    """A text report holds a non-ASCII dash.  On a stdout whose encoding
    cannot write it, ``check`` and ``smear`` still exit with the report's
    own code, with no traceback, and write the bytes ``--output`` writes."""
    tokens, observable, seed, _ = SMEAR_GOLDEN["chain3"]
    algebra, obs = tmp_path / "algebra.json", tmp_path / "obs.json"
    if command == "check":
        algebra.write_text(json.dumps(algebra_to_obj(loop4())))
        argv = ["check", "--input", str(algebra)]
    else:
        assert cli.main(["generate", *tokens, "--output", str(algebra)]) == 0
        obs.write_text(json.dumps(observable))
        argv = ["smear", "--input", str(algebra), "--observable", str(obs),
                "--seed", seed]
    argv += ["--format", "text"]
    src = str(Path(effecta.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def effecta_cli(*argv, **extra):
        return subprocess.run([sys.executable, "-m", "effecta.cli", *argv],
                              env=dict(env, **extra), capture_output=True)

    written = tmp_path / "report.txt"
    code = effecta_cli(*argv, "--output", str(written)).returncode
    expected = written.read_bytes()
    assert "\u2014".encode("utf-8") in expected
    done = effecta_cli(*argv, PYTHONIOENCODING=encoding)
    assert b"Traceback" not in done.stderr
    assert (done.returncode, done.stdout) == (code, expected)
    assert code == (1 if command == "check" else 0)


ZOO_GOLDEN = {
    "boolean1": "32a14ba1d230f5bb894686c7256c85c1"
                "fb58a34199f9b3c437a62951339a5dd4",
    "boolean2": "261a8ea189da6e40ef61edeef0cf66c1"
                "b84dcc846a1d99fb46f5cd6c32e47bbc",
    "boolean3": "503212bb93f8775f9b805d92f4a69918"
                "f3f21dbef56836e0bf069514ad97a9c1",
    "boolean4": "732f02499f4f35f6484ba042541c8de4"
                "990e19f32c0a7f80772d9a405bd7bde5",
    "chain1": "8cfb711fbb53a0fb92d4d8a541855549"
              "b8e75cf9b7fc038aa9a1341c3e6bb7b1",
    "chain1x1x2": "1be0f8b99e0d156f83edd622dfa51183"
                  "b1b7cc9b3177ca72342cd654765606c0",
    "chain2": "df901f3b12963846c5aaa8c4f98247be"
              "0bb72af8ca5644d08d559d7755559581",
    "chain2xchain3": "6bd767426697c1d9c305c52097694173"
                     "33580630cfad8c4284a4e7ca15367ecb",
    "chain3": "fc9dbf1582d01cb0fc7e7a48445ad531"
              "b11d73ae5e249f3b732cf836d4d18692",
    "chain3xchain4": "9480e946eec6344353895da1c860e541"
                     "b5b6f7247abad3b181c9f7b86cb84e11",
    "chain4": "93b3975b1e6f9f4308f940f652534f33"
              "01010286cf55dce7e1e206464846912c",
    "chain5": "044fd8f945c6e3d704a1c2ce9784abbd"
              "34427676b3a84e83080016c17c3556d1",
    "chain6": "6c6bbeb364bc0113b4401d548dc2d935"
              "4f2e76a8c9310fb8968fb2370f5b8c92",
    "chain7": "fb94dffaaa7e5a7fe9fbbb6a221a17ea"
              "01a3363b3740565de26eb868772c5a2e",
    "chain7xchain7": "ab0291e3cf1cf8529ff44b8701d0072a"
                     "88156736a333fb52ec82a96a2813f341",
    "chain8": "15323e5e1640cd29b166607297e8e505"
              "98b64ff60978466408b673460976bf85",
    "diamond": "3ae9f0ee520296b8f1677104e3dc700d"
               "fe0ca59921c47f4251fd8278397ab2a8",
    "hsum-mixed": "888f7a6da9163c3c40b483ea177bb116"
                  "41d46aa84390b45f4a0e52fb25cdd38d",
    "interval112": "5231246310df4c79ab426f6a27f134b2"
                   "97dfba229bfaf4e729444fd69a820d2a",
    "interval12": "c00b023a64ab64dcc9d011d8f67fcf1c"
                  "a77e85f729ffd5b0a63acb6a013c7b05",
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
