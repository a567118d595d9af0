"""Golden CLI outputs: stdout and exit code must stay byte-identical.

Each case runs ``legcable.cli.run`` in process and compares its stdout with
``tests/golden/<name>.txt``.  The files hold the README quickstart commands
(the SVG one written to stdout instead of ``--out``), ``selfcheck``, five
JSON mountain ranges (three whose label order matters, one of a single
point, and one over the committed atlas ``atlas-quoted-names.json``, whose
generator names hold a quote, a backslash and a non-ASCII character), and
the interchange documents of two builtin twist atlases.  They were captured
before the code they guard was refactored, so a refactor that changes any
byte of them changes behaviour.  ``DIGESTS`` holds only the SHA-256 of the
largest range outputs, in each format, captured the same way.
"""

from hashlib import sha256
from pathlib import Path

import pytest

from legcable.cli import run

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "readme-mountain": [
        "mountain", "--atlas", "twist-even-2", "--tb-min", "-3", "--format", "ascii",
    ],
    "readme-cable-mountain": [
        "cable-mountain", "--atlas", "k-minus-5", "--p", "2", "--q", "1", "--tb-min", "-7",
    ],
    "readme-cable-mountain-svg": [
        "cable-mountain", "--atlas", "twist-even-2-surgery", "--p", "2", "--q", "1",
        "--tb-min", "-2", "--format", "svg", "--overlay",
    ],
    "readme-enumerate": [
        "enumerate", "--atlas", "twist-even-2", "--p", "1", "--q", "0", "--n", "2",
    ],
    "readme-isotopic": [
        "isotopic", "--atlas", "k-minus-5",
        '{"regime":"greater","p":2,"q":1,"n":2,"base":{"class":{"gen":"A"}},'
        '"vec":[[1,2],[2,1]]}',
        '{"regime":"greater","p":2,"q":1,"n":2,"base":{"class":{"gen":"B"}},'
        '"vec":[[1,2],[2,1]]}',
    ],
    "readme-permute": [
        "permute", "--atlas", "twist-even-2", "--perm", "2,3,1",
        '{"regime":"integer-lesser","q":0,"n":3,"base":{"class":{"gen":"R1"}},'
        '"vec":[[0,0],[0,0],[0,0]]}',
    ],
    "selfcheck": ["selfcheck"],
    "mountain-twist-even-16": [
        "mountain", "--atlas", "twist-even-16", "--tb-min", "-4", "--format", "json",
    ],
    "greater-k-minus-5": [
        "cable-mountain", "--atlas", "k-minus-5", "--p", "2", "--q", "1",
        "--tb-min", "-9", "--format", "json",
    ],
    "lesser-twist-even-4": [
        "cable-mountain", "--atlas", "twist-even-4", "--p", "2", "--q", "-3",
        "--tb-min", "-12", "--format", "json",
    ],
    "mountain-quoted-names": [
        "mountain", "--atlas", str(GOLDEN / "atlas-quoted-names.json"),
        "--tb-min", "-3", "--format", "json",
    ],
    "mountain-unknot-one-point": [
        "mountain", "--atlas", "unknot", "--tb-min", "-1", "--format", "json",
    ],
    "atlas-show-twist-even-3": ["atlas-show", "--atlas", "twist-even-3"],
    "atlas-show-twist-even-3-surgery": ["atlas-show", "--atlas", "twist-even-3-surgery"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_cli(name, capsys):
    code = run(CASES[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{name}.txt").read_text()


# SHA-256 of the stdout of the largest ranges requests, per format: the
# deepest knot range, a wide one, and a greater and a lesser cable range.
DIGESTS = {
    ("mountain --atlas twist-even-8 --tb-min -40", "ascii"):
        "e82ea9018e84275e9cdf1667803aa7b71f2c81d2b8c2d93735913fc4314582e0",
    ("mountain --atlas twist-even-8 --tb-min -40", "svg"):
        "1d294096f0dc59b828dce6abccb812c186716dc1c832fa5dfab420be11a22859",
    ("mountain --atlas twist-even-8 --tb-min -40", "json"):
        "d58da621c90807701b8d64e612eaf9b32aa3ac2010c420383ac04f319de3e940",
    ("mountain --atlas twist-even-16 --tb-min -10", "ascii"):
        "6e876d21a65337d503e9d8dfaef22f30688850e1a75357b2e5d9158ecb8405c3",
    ("mountain --atlas twist-even-16 --tb-min -10", "svg"):
        "79f9dd167a8cb5b57ae1d20690dbb16feb83af20a79f3ea48238d469f7067a09",
    ("mountain --atlas twist-even-16 --tb-min -10", "json"):
        "fa555770ac09ce1445a708283f2c5193a352211104006cc366b00268abfef4ea",
    ("cable-mountain --atlas twist-even-8 --p 3 --q 5 --tb-min -9", "ascii"):
        "349f13c9082cd343b3103304deeee446e9bfac134295b01eeb7590fa593a70db",
    ("cable-mountain --atlas twist-even-8 --p 3 --q 5 --tb-min -9", "svg"):
        "7f98b6de32642541b5344fedda1761783e72d78b2231cafc3c3a49eac8407bb0",
    ("cable-mountain --atlas twist-even-8 --p 3 --q 5 --tb-min -9", "json"):
        "e3e9bf51e5bec1e06afe0b91b4035456b1c62055d0b28a0c922955f6e24de640",
    ("cable-mountain --atlas twist-even-4 --p 2 --q -3 --tb-min -10", "ascii"):
        "885593556c27c1e9ac4f0d026c1519a38b07d9579f20f3046d69dd50b69c09d6",
    ("cable-mountain --atlas twist-even-4 --p 2 --q -3 --tb-min -10", "svg"):
        "10bfa3f02906eda493fd0b4d3023da9724aa0049f2af289f4c6f75150a6fa48b",
    ("cable-mountain --atlas twist-even-4 --p 2 --q -3 --tb-min -10", "json"):
        "bc77f499a9b8813f79853d64242d7f6f2a3c0259294f4c47eb68cb8302c495ca",
}


@pytest.mark.parametrize("command,fmt", sorted(DIGESTS))
def test_golden_range_digest(command, fmt, capsys):
    code = run(command.split() + ["--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    assert sha256(out.encode()).hexdigest() == DIGESTS[(command, fmt)]
