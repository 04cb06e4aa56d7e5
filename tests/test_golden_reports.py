"""Byte identity of full reports against recorded digests.

A faster path must leave every report byte unchanged.  The digests below
are the sha256 of the JSONL report of ``check_document`` with all suites,
of the ``--format text`` report for ``TEXT_GOLDEN``, and of the stdout of
``effecta smear`` for ``SMEAR_GOLDEN``.  The zoo digests are those of
``effecta check`` at ``--seed 0`` and ``--seed 3``: no report depends on
the seed, so one digest serves both.

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

The digests of documents with the refinement property and more than one
extremal state, and ``SMEAR_GOLDEN`` of boolean 4, were re-recorded once
more after 8000130, when the smearing, spectral and extension suites
(and ``smear``) came to evaluate the vertices alone, without ten seeded
mixtures: their identities are linear in the state.  A record comparison
with the ``detail`` field removed showed each new report, at the old
seeds 0 and 3, to equal the 8000130 report; the bytes that moved are the
state counts in the details of ``smearing:eq-residual-zero``,
``spectral:integral-identity`` and ``extension:roundtrip`` (boolean 6,
``794 observables x 16 states`` now ``x 6 states``).  ``LOOP4_DIGEST``,
the one-state chains and the documents without the property did not move.
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
                 "2cb136f894a71f803842558fadc1abf2"
                 "96a0e4b8665eeacb93043da21ac6db3a"),
    "interval222": (("interval", "2", "2", "2"),
                    "303ac0fe2e7e01c8b3c8eb40f2530da2"
                    "3fed7e457bcd91113f8bf157ebfc1fa2"),
    # the two largest documents of the rdp-all bench workload
    "boolean5": (("boolean", "5"),
                 "e416e60e7488d22fce0bc5a9b51470ec"
                 "5c27ac0bab2867ec805360c4b1da4106"),
    "boolean6": (("boolean", "6"),
                 "8d42cd9ce39e06e9a6bcee345436f702"
                 "7dcb7e789e68b4bcc4d3443cd6e1e02e"),
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
    report = render_jsonl(check_document(doc, instance, SUITE_NAMES))
    assert hashlib.sha256(report.encode("utf-8")).hexdigest() == digest


# four Boolean blocks pasted in a loop: the one bench document whose blocks
# share atoms, so the only one whose state equations couple atoms of
# different blocks
LOOP4_DIGEST = ("76727007dbf9e35d117f2583d2151e87"
                "3f071ae93678f9e36281e55a62ce9b9f")


def test_loop4_report_bytes_match_the_recorded_digest():
    report = render_jsonl(check_document(algebra_to_obj(loop4()), "loop4",
                                         SUITE_NAMES))
    assert hashlib.sha256(report.encode("utf-8")).hexdigest() == LOOP4_DIGEST


TEXT_GOLDEN = {
    "boolean4": ("d3ff1d92c69e5f34d268c821998b993c"
                 "b28bb5e278ec603ae21269ae6b38d0a6"),
    "loop4": ("3620c6913efeb749930fed82543ec887"
              "b6736f9136390a2cf1cc47163cf2bb39"),
}


@pytest.mark.parametrize("instance", sorted(TEXT_GOLDEN))
def test_text_report_bytes_match_the_recorded_digest(instance):
    M = (loop4() if instance == "loop4"
         else generate(parse_family_tokens(list(GOLDEN[instance][0]))))
    records = check_document(algebra_to_obj(M), instance, SUITE_NAMES)
    report = render(records, "text")
    assert (hashlib.sha256(report.encode("utf-8")).hexdigest()
            == TEXT_GOLDEN[instance])


SMEAR_GOLDEN = {
    "boolean4": (("boolean", "4"),
                 {"support": ["0", "1/2", "1"],
                  "values": ["{1}", "{2}", "{3,4}"]}, "3",
                 "6a76ee727f2d9a3e41cd07ea09cc5f4d"
                 "34bfad2a49e93c98397ca49490aab1fe"),
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
    "boolean2": "aec640a8be0e32ea4fc82e2374a0fcf0"
                "b9d10187874434dc22206fce040eae90",
    "boolean3": "9e69f3761b6ef02dd55c0acddd265284"
                "ee32a95a42691e9e562ab1d129d96d2d",
    "boolean4": "2cb136f894a71f803842558fadc1abf2"
                "96a0e4b8665eeacb93043da21ac6db3a",
    "chain1": "8cfb711fbb53a0fb92d4d8a541855549"
              "b8e75cf9b7fc038aa9a1341c3e6bb7b1",
    "chain1x1x2": "3a80747ddd0951bb23c2520d9083f568"
                  "1a931b0fb6493b518f747d8a3a822b6f",
    "chain2": "df901f3b12963846c5aaa8c4f98247be"
              "0bb72af8ca5644d08d559d7755559581",
    "chain2xchain3": "d37ef6da99d63352dcdc0c3a7178606c"
                     "b43f20fed537657185595403c76d20ce",
    "chain3": "fc9dbf1582d01cb0fc7e7a48445ad531"
              "b11d73ae5e249f3b732cf836d4d18692",
    "chain3xchain4": "0d08a9526612d95fc08badfde3180809"
                     "f6846e39edd34a24b1e9284b141de68e",
    "chain4": "93b3975b1e6f9f4308f940f652534f33"
              "01010286cf55dce7e1e206464846912c",
    "chain5": "044fd8f945c6e3d704a1c2ce9784abbd"
              "34427676b3a84e83080016c17c3556d1",
    "chain6": "6c6bbeb364bc0113b4401d548dc2d935"
              "4f2e76a8c9310fb8968fb2370f5b8c92",
    "chain7": "fb94dffaaa7e5a7fe9fbbb6a221a17ea"
              "01a3363b3740565de26eb868772c5a2e",
    "chain7xchain7": "3cef55435a3d751e753b64c4a666d59d"
                     "48e2d26aa25568214b1c3f3fed6bfe47",
    "chain8": "15323e5e1640cd29b166607297e8e505"
              "98b64ff60978466408b673460976bf85",
    "diamond": "3ae9f0ee520296b8f1677104e3dc700d"
               "fe0ca59921c47f4251fd8278397ab2a8",
    "hsum-mixed": "888f7a6da9163c3c40b483ea177bb116"
                  "41d46aa84390b45f4a0e52fb25cdd38d",
    "interval112": "91b459f7b82fedb133a4abc259b7ae9a"
                   "b601f0e96b1cf02b35a263e2d51c2de9",
    "interval12": "ea6e8fecee7c153a051f9afd2f1fe7ab"
                  "106d018720fc235c3f3582c1d68399a6",
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
def test_zoo_report_bytes_match_the_recorded_digest(instance, seed,
                                                    tmp_path):
    """``check --seed`` writes the one recorded report at either seed."""
    doc, report = tmp_path / f"{instance}.json", tmp_path / "report.jsonl"
    doc.write_text(json.dumps(algebra_to_obj(_zoo()[instance])))
    cli.main(["check", "--input", str(doc), "--seed", str(seed),
              "--output", str(report)])
    assert (hashlib.sha256(report.read_bytes()).hexdigest()
            == ZOO_GOLDEN[instance])
