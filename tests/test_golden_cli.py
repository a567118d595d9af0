"""Golden CLI outputs: stdout and exit code must stay byte-identical.

Each case runs ``legcable.cli.run`` in process and compares its stdout with
``tests/golden/<name>.txt``.  The files hold the README quickstart commands
(the SVG one written to stdout instead of ``--out``), ``selfcheck``, five
JSON mountain ranges (three whose label order matters, one of a single
point, and one over the committed atlas ``atlas-quoted-names.json``, whose
generator names hold a quote, a backslash and a non-ASCII character), and
the interchange documents of two builtin twist atlases.  They were captured
before the code they guard was refactored, so a refactor that changes any
byte of them changes behaviour.
"""

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
