"""Command-line interface: exit codes, determinism, dispatch."""

import argparse
import copy
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from legcable import atlas as atlas_module
from legcable import atlas_to_json, atlas_to_json_str, builtin_atlas
from legcable import cli, selfcheck
from legcable.errors import UnknownName
from legcable.cli import EXIT_INTERNAL, EXIT_OK, EXIT_UNKNOWN, EXIT_USAGE, run
from test_atlas import NON_CONFLUENT
from test_errors import raises_code
from test_golden_cli import CASES


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GREATER_A = json.dumps(
    {
        "regime": "greater",
        "p": 2,
        "q": 1,
        "n": 2,
        "base": {"class": {"gen": "A"}},
        "vec": [[1, 2], [2, 1]],
    }
)
GREATER_B = GREATER_A.replace('"A"', '"B"')
# Two presentations of one integer-lesser link (the first twisted-copy
# identity), which the default budget decides as isotopic.
INTEGER_TWIN = (
    '{"regime":"integer-lesser","q":-1,"n":2,"base":{"class":{"gen":"R1"},"t":1},'
    '"vec":[[1,0],[0,0]]}',
    '{"regime":"integer-lesser","q":-1,"n":2,"base":{"class":{"gen":"R1","plus":1},"t":0},'
    '"vec":[[0,0],[0,1]]}',
)


def test_mountain_ascii(capsys):
    code, out, _ = run_cli(
        capsys, "mountain", "--atlas", "twist-even-2", "--tb-min", "-1", "--format", "ascii"
    )
    assert code == EXIT_OK
    assert out.splitlines()[0].endswith("2 . .")
    assert ". 1 . 1 ." in out


def test_mountain_output_is_deterministic(capsys):
    args = ("mountain", "--atlas", "twist-even-3", "--tb-min", "-3", "--format", "svg")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_isotopic_not_isotopic_exits_zero(capsys):
    code, out, _ = run_cli(
        capsys, "isotopic", "--atlas", "k-minus-5", GREATER_A, GREATER_B
    )
    assert code == EXIT_OK
    assert json.loads(out)["verdict"] == "not_isotopic"


def test_isotopic_unknown_exits_one(capsys):
    link1 = json.dumps(
        {
            "regime": "noninteger-lesser",
            "p": 2,
            "q": 1,
            "n": 1,
            "base": {"class": {"gen": "P1"}, "sign": "+"},
            "vec": [[0, 0]],
        }
    )
    link2 = link1.replace("P1", "P2")
    code, out, _ = run_cli(capsys, "isotopic", "--atlas", "twist-even-2", link1, link2)
    assert code == EXIT_UNKNOWN
    doc = json.loads(out)
    assert doc["verdict"] == "unknown" and doc["reason"]


def test_overlong_atlas_value_is_neither_builtin_nor_file(capsys):
    # longer than any file name, so asking whether it is a file fails
    code, out, err = run_cli(capsys, "peaks", "--atlas", "twist-even-" + "9" * 5000)
    assert (code, out) == (EXIT_USAGE, "")
    assert "neither a builtin atlas" in err and "Errno" not in err
    # the message shows the start of the value, not all of it
    assert len(err.encode()) < 300 and "'twist-even-999" in err


def test_validation_errors_exit_two(tmp_path, capsys):
    code, _, err = run_cli(capsys, "isotopic", "--atlas", "no-such-atlas", GREATER_A, GREATER_B)
    assert code == EXIT_USAGE and "error" in err
    code, _, err = run_cli(
        capsys, "mountain", "--atlas", "unknot", "--tb-min", "5", "--format", "ascii"
    )
    assert code == EXIT_USAGE
    code, _, err = run_cli(capsys, "isotopic", "--atlas", "k-minus-5", "{not json", GREATER_B)
    assert code == EXIT_USAGE
    # malformed documents: no q, a list for a document, a scalar vector
    # negative stabilization counts, a sign that is neither + nor -, and
    # 1e999 (read by JSON as inf) as a count, a component number and a vector,
    # and more components than links.MAX_COMPONENTS, with and without --vec
    no_q = json.dumps({k: v for k, v in json.loads(GREATER_A).items() if k != "q"})
    negative = GREATER_A.replace('{"gen": "A"}', '{"gen": "A", "plus": -3}')
    huge_plus = GREATER_A.replace('{"gen": "A"}', '{"gen": "A", "plus": 1e999}')
    huge_n = GREATER_A.replace('"n": 2', '"n": 1e999')
    many_n = GREATER_A.replace('"n": 2', '"n": 1001')
    many_vec = json.dumps([[0, 0]] * 1001)
    banana = json.dumps({"regime": "noninteger-lesser", "p": 2, "q": -7, "n": 1,
                         "base": {"class": {"gen": "A"}, "sign": "banana"}})
    for args in (
        (no_q, GREATER_B),
        (f"[{GREATER_A}]", GREATER_B),
        ("--vec", "[[0,0],[0,0]]", f"[{GREATER_A}]", GREATER_B),
        ("--vec", "5", GREATER_A, GREATER_B),
        (negative, GREATER_B),
        (banana, banana.replace("banana", "+")),
        (huge_plus, GREATER_B),
        (huge_n, GREATER_B),
        ("--vec", "[[1e999,0]]", GREATER_A, GREATER_B),
        (many_n, GREATER_B),
        ("--vec", many_vec, many_n, GREATER_B),
    ):
        code, out, err = run_cli(capsys, "isotopic", "--atlas", "k-minus-5", *args)
        assert code == EXIT_USAGE and out == "" and err.startswith("error:"), args
    spec = json.loads(atlas_to_json_str(builtin_atlas("twist-even-2")))
    del spec["tbb"]
    path = tmp_path / "no-tbb.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "peaks", "--atlas", str(path))
    assert code == EXIT_USAGE and out == "" and "tbb" in err
    spec = json.loads(atlas_to_json_str(builtin_atlas("twist-even-2")))
    spec["generators"][0]["tb"] = "HUGE"
    path = tmp_path / "huge-tb.json"
    path.write_text(json.dumps(spec).replace('"HUGE"', "1e999"))
    code, out, err = run_cli(capsys, "peaks", "--atlas", str(path))
    assert code == EXIT_USAGE and out == "" and err.startswith("error:")
    # rules that give one class two normal forms: one error line naming the pair
    nc, nc2 = tmp_path / "nc.json", tmp_path / "nc2.json"
    for path, name in ((nc, "two-targets"), (nc2, "rule-order")):
        path.write_text(json.dumps(NON_CONFLUENT[name][0]))
    pair = ('{"regime":"greater","p":2,"q":5,"n":3,"base":{"class":{"gen":"g0"}},'
            '"vec":[[4,4],[5,4],[7,4]]}',
            '{"regime":"greater","p":2,"q":5,"n":3,"base":{"class":{"gen":"g1"}},'
            '"vec":[[2,4],[3,4],[5,4]]}')
    for argv, name in (
        (("mountain", "--atlas", str(nc), "--tb-min", "-3"), "two-targets"),
        (("isotopic", "--atlas", str(nc2), *pair), "rule-order"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (EXIT_USAGE, "", f"error: {NON_CONFLUENT[name][1]}\n"), argv
    # a count flag below 1 is a usage error, not a vacuous pass or an unknown
    code, out, _ = run_cli(capsys, "isotopic", "--atlas", "twist-even-2", *INTEGER_TWIN)
    assert code == EXIT_OK and json.loads(out)["verdict"] == "isotopic"
    for args in (
        ("selfcheck", "--samples", "0"),
        ("selfcheck", "--samples", "-1"),
        ("isotopic", "--atlas", "twist-even-2", "--budget", "0", *INTEGER_TWIN),
        ("isotopic", "--atlas", "twist-even-2", "--budget", "-3", *INTEGER_TWIN),
        ("isotopic", "--atlas", "twist-even-2", "--budget", "abc", *INTEGER_TWIN),
    ):
        code, out, err = run_cli(capsys, *args)
        assert code == EXIT_USAGE and out == "" and "positive integer" in err, args


# The README link documents, each with its atlas, a partner for the two-link
# commands and a permutation of its components.
README_LINKS = [
    ("k-minus-5", json.loads(GREATER_A), json.loads(GREATER_B), "2,1"),
    ("k-minus-5", json.loads(GREATER_B), json.loads(GREATER_A), "2,1"),
    ("twist-even-2", {"regime": "integer-lesser", "q": 0, "n": 3,
                      "base": {"class": {"gen": "R1"}}, "vec": [[0, 0], [0, 0], [0, 0]]},
     None, "2,3,1"),
]
FIELDS = ("regime", "p", "q", "n", "t", "base", "class", "gen", "plus", "minus", "sign",
          "form", "vec")
SCALARS = (None, True, False, -3, -1, 0, 1, 2, 3, 10**9, 0.5, 1e999, "", "A", "R1", "+",
           "-", "greater", "integer-lesser", "noninteger-lesser")


def test_link_document_errors_name_their_check(capsys):
    lesser = {"regime": "noninteger-lesser", "p": 2, "q": -3, "n": 2}
    for doc, text in (
        ({**lesser, "base": {"class": {"rot": 0, "tb": -1}, "form": "spiral"}},
         "unknown lesser form 'spiral'"),
        ({**lesser, "base": {"class": {"gen": "P1"}, "form": "ruling"}},
         "ruling-form base tb=1 above the window tb=-1"),
        ({"regime": "integer-lesser", "q": 0, "n": 2, "base": {"class": {"gen": "P1"}, "t": 3}},
         "base tb=1 with t=3 does not give slope q=0"),
    ):
        link = json.dumps(doc)
        code, out, err = run_cli(capsys, "isotopic", "--atlas", "twist-even-2", link, link)
        assert (code, out, err) == (EXIT_USAGE, "", f"error: {text}\n"), doc


def test_one_negative_count_in_an_entry_exits_two(capsys):
    docs = (
        {"regime": "greater", "p": 2, "q": 3, "base": {"class": {"gen": "P1"}}},
        {"regime": "integer-lesser", "q": 0, "base": {"class": {"gen": "P1"}}},
        {"regime": "noninteger-lesser", "p": 2, "q": -3,
         "base": {"class": {"rot": 0, "tb": -1}, "sign": "+"}},
    )
    for doc in docs:
        for vec in ([[-1, 2], [0, 0]], [[2, -1], [0, 0]]):
            link = json.dumps({**doc, "n": 2, "vec": vec})
            code, out, err = run_cli(capsys, "isotopic", "--atlas", "twist-even-2", link, link)
            assert code == EXIT_USAGE and out == "" and "nonnegative" in err, link


def test_cable_mountain_refuses_integer_and_unsupported_window_slopes(capsys):
    for atlas, p, q, kind in (
        ("twist-even-2", 1, 0, "integer-lesser"),
        ("unknot", 2, -3, "unsupported-window"),
    ):
        code, out, err = run_cli(capsys, "cable-mountain", "--atlas", atlas,
                                 "--p", str(p), "--q", str(q), "--tb-min", "-3")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (
            f"error: slope ({p},{q}) is {kind}; ranges are drawn for greater and non-integer "
            "lesser slopes (use 'enumerate' for integer slopes)\n"
        )


def _random_json(rng, depth=0):
    r = rng.random()
    if depth >= 2 or r < 0.6:
        return rng.choice(SCALARS)
    if r < 0.8:
        return [_random_json(rng, depth + 1) for _ in range(rng.randint(0, 3))]
    return {rng.choice(FIELDS): _random_json(rng, depth + 1) for _ in range(rng.randint(0, 3))}


def _slots(node):
    """Every (container, key) pair inside a JSON document."""
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield node, key
            yield from _slots(child)


def _mutate(rng, doc):
    """A copy of ``doc`` with one field dropped or set to a random JSON value."""
    doc = copy.deepcopy(doc)
    container, key = rng.choice(list(_slots(doc)))
    if rng.random() < 0.3:
        del container[key]
    else:
        container[key] = _random_json(rng)
    return doc


def test_mutated_link_documents_exit_zero_one_or_two(capsys):
    rng = random.Random(20251018)
    for _ in range(120):
        atlas, doc, partner, perm = rng.choice(README_LINKS)
        link = json.dumps(_mutate(rng, doc))
        other = json.dumps(partner or doc)
        for argv in (
            ("isotopic", "--atlas", atlas, link, other),
            ("componentwise", "--atlas", atlas, link, other),
            ("permute", "--atlas", atlas, "--perm", perm, link),
        ):
            start = time.perf_counter()
            code, _, err = run_cli(capsys, *argv)
            assert code in (EXIT_OK, EXIT_UNKNOWN, EXIT_USAGE), (argv, err)
            assert time.perf_counter() - start < 1.0, argv


# Builtin atlases whose documents the fuzz below mutates, each with the
# flags of one mountain, cable-mountain and enumerate request on it.
ATLAS_REQUESTS = {
    "k-minus-5": (("--tb-min", "-7"), ("--p", "2", "--q", "1", "--tb-min", "-9"),
                  ("--p", "2", "--q", "1", "--n", "2")),
    "twist-even-2": (("--tb-min", "-3"), ("--p", "2", "--q", "-3", "--tb-min", "-10"),
                     ("--p", "1", "--q", "0", "--n", "2")),
    "unknot": (("--tb-min", "-4"), ("--p", "2", "--q", "1", "--tb-min", "-4"),
               ("--p", "1", "--q", "-2", "--n", "2")),
    "twist-even-2-surgery": (("--tb-min", "-3"), ("--p", "2", "--q", "1", "--tb-min", "-2"),
                             ("--p", "2", "--q", "1", "--n", "3")),
}


def test_mutated_atlas_documents_exit_zero_one_or_two(tmp_path, capsys):
    rng = random.Random(20261018)
    docs = {name: atlas_to_json(builtin_atlas(name)) for name in ATLAS_REQUESTS}
    path = tmp_path / "atlas.json"
    for _ in range(120):
        name = rng.choice(sorted(docs))
        path.write_text(json.dumps(_mutate(rng, docs[name])))
        mountain, cable, links = ATLAS_REQUESTS[name]
        for argv in (
            ("mountain", *mountain),
            ("peaks",),
            ("cable-mountain", *cable),
            ("enumerate", *links),
        ):
            argv = (argv[0], "--atlas", str(path), *argv[1:])
            start = time.perf_counter()
            code, _, err = run_cli(capsys, *argv)
            assert code in (EXIT_OK, EXIT_UNKNOWN, EXIT_USAGE), (argv, path.read_text(), err)
            assert time.perf_counter() - start < 1.0, (argv, path.read_text())


def _set(doc, path, value):
    """A copy of ``doc`` with the field at ``path`` (keys and indices) set."""
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


# Link documents with every integer field: the greater pair of README, an
# integer-lesser document (t) and a noninteger-lesser one over a generic class.
TYPED_LINKS = (
    ("k-minus-5", json.loads(GREATER_A),
     (("n",), ("p",), ("q",), ("base", "class", "plus"), ("base", "class", "minus"),
      ("vec", 0, 0), ("vec", 1, 1))),
    ("twist-even-2", json.loads(INTEGER_TWIN[0]), (("base", "t"),)),
    ("twist-even-2", {"regime": "noninteger-lesser", "p": 2, "q": -3, "n": 1,
                      "base": {"class": {"rot": 0, "tb": -1}, "sign": "+"}},
     (("base", "class", "rot"), ("base", "class", "tb"))),
)


def test_link_fields_must_be_json_integers(capsys):
    for atlas, doc, paths in TYPED_LINKS:
        good = json.dumps(doc)
        assert run_cli(capsys, "isotopic", "--atlas", atlas, good, good)[0] == EXIT_OK
        for path in paths:
            for bad in (2.9, True, "3"):
                link = json.dumps(_set(doc, path, bad))
                code, out, err = run_cli(capsys, "isotopic", "--atlas", atlas, link, link)
                assert code == EXIT_USAGE and out == "" and err.startswith("error:"), (path, bad)
    # each of these was truncated to an integer and answered "isotopic"
    doc = _set(_set(json.loads(GREATER_A), ("p",), 2.9), ("base", "class", "plus"), 0.5)
    truncated = json.dumps(_set(doc, ("vec",), [[1.99, 2], [2, 1]]))
    code, out, err = run_cli(capsys, "isotopic", "--atlas", "k-minus-5", truncated, truncated)
    assert code == EXIT_USAGE and out == "" and "JSON integer" in err


def test_atlas_fields_must_be_json_integers_and_booleans(tmp_path, capsys):
    spec = atlas_to_json(builtin_atlas("twist-even-2"))
    path = tmp_path / "atlas.json"
    integers = (("generators", 0, "rot"), ("generators", 0, "tb"), ("rules", 0, "da"),
                ("rules", 0, "db"), ("tbb",), ("width_ceiling",))
    flags = (("uniformly_thick",), ("both_signs_determined",))
    cases = [(p, bad) for p in integers for bad in (2.9, True, "3")]
    cases += [(p, bad) for p in flags for bad in (2.9, "3", 1, "false")]
    for field, bad in cases:
        path.write_text(json.dumps(_set(spec, field, bad)))
        code, out, err = run_cli(capsys, "peaks", "--atlas", str(path))
        assert code == EXIT_USAGE and out == "" and err.startswith("error:"), (field, bad)
    # "false" was read as true and made the unknot uniformly thick
    unknot = atlas_to_json(builtin_atlas("unknot"))
    path.write_text(json.dumps(dict(unknot, uniformly_thick="false")))
    code, out, err = run_cli(capsys, "cable-mountain", "--atlas", str(path),
                             "--p", "2", "--q", "-3", "--tb-min", "-8")
    assert code == EXIT_USAGE and out == "" and "uniformly_thick must be a JSON boolean" in err


def test_integer_lesser_documents_with_p_other_than_one_exit_two(capsys):
    twin = ('{"regime":"integer-lesser","p":1,"q":0,"n":2,"base":{"class":{"gen":"P1"}},'
            '"vec":[[1,0],[0,0]]}',
            '{"regime":"integer-lesser","p":1,"q":0,"n":2,"base":{"class":{"gen":"R1"}},'
            '"vec":[[0,0],[0,1]]}')
    code, out, _ = run_cli(capsys, "isotopic", "--atlas", "twist-even-2", *twin)
    assert code == EXIT_OK and json.loads(out)["verdict"] == "isotopic"
    for p in ("2", "7"):
        docs = [doc.replace('"p":1', f'"p":{p}') for doc in twin]
        code, out, err = run_cli(capsys, "isotopic", "--atlas", "twist-even-2", *docs)
        assert code == EXIT_USAGE and out == "" and f"got p={p}" in err


def test_deeply_nested_json_exits_two(tmp_path, capsys):
    deep = "[" * 100_000 + "]" * 100_000
    path = tmp_path / "deep.json"
    path.write_text(deep)
    for argv in (
        ("mountain", "--atlas", str(path), "--tb-min", "-3"),
        ("isotopic", "--atlas", "k-minus-5", f"@{path}", GREATER_B),
        ("isotopic", "--atlas", "k-minus-5", "--vec", deep, GREATER_A, GREATER_B),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE and out == "" and err.startswith("error: malformed"), argv[:3]


def test_internal_errors_exit_three(monkeypatch, capsys):
    def broken(atlas, tb_min):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "mountain_range", broken)
    code, out, err = run_cli(capsys, "mountain", "--atlas", "unknot", "--tb-min", "-3")
    assert code == EXIT_INTERNAL and out == ""
    assert err.startswith("internal error:") and "RuntimeError: boom" in err


def test_enumerate_zero_components_exits_two(capsys):
    # and so does a count above links.MAX_COMPONENTS
    for n in ("0", "1001"):
        for p, q in ((2, 3), (1, 0), (2, -3)):
            code, out, err = run_cli(
                capsys, "enumerate", "--atlas", "twist-even-2", "--p", str(p), "--q", str(q),
                "--n", n,
            )
            assert code == EXIT_USAGE and out == "" and "component" in err


def test_budget_flag_on_the_searching_commands(capsys):
    code, _, _ = run_cli(
        capsys, "isotopic", "--atlas", "k-minus-5", "--budget", "10", GREATER_A, GREATER_B
    )
    assert code == EXIT_OK
    code, _, err = run_cli(capsys, "componentwise", "--atlas", "k-minus-5", "--budget", "10",
                           GREATER_A, GREATER_B)
    assert code == EXIT_USAGE and "--budget" in err
    code, _, err = run_cli(capsys, "permute", "--atlas", "k-minus-5", "--budget", "10",
                           GREATER_A, "--perm", "1,2")
    assert code == EXIT_USAGE and "--budget" in err


# T^1(2.(0,-127))[+0-0,+126-126]: its presentation search holds 4,096 states,
# past isotopic's default budget, and its core has tb above q
UNKNOT_DEEP_COPY = json.dumps({
    "regime": "integer-lesser", "q": -128, "n": 2,
    "base": {"class": {"rot": 0, "tb": -127}, "t": 1}, "vec": [[0, 0], [126, 126]],
})


def test_permute_decides_a_deep_copy_without_a_budget(capsys):
    code, out, _ = run_cli(capsys, "permute", "--atlas", "unknot", UNKNOT_DEEP_COPY,
                           "--perm", "1,2")
    assert code == EXIT_OK and json.loads(out) == {
        "reason": "not an n-copy; invariant-preserving permutations are free",
        "verdict": "isotopic",
    }


def test_link_documents_name_classes_of_their_atlas(capsys):
    def doc(rot, tb, q=0):
        return json.dumps({"regime": "integer-lesser", "q": q, "n": 2,
                           "base": {"class": {"rot": rot, "tb": tb}}})

    # twist-even-2 has no class above tb = 1, none at an even rot + tb, and
    # only Named classes at (0, 1) and (2, -1)
    pairs = [(doc(0, 2), doc(1, 2)), (doc(0, 5), doc(0, 5)),
             (doc(0, 1, -2), doc(0, 1, -2)), (doc(2, -1, -2), doc(2, -1, -2))]
    for link1, link2 in pairs:
        for argv in (("isotopic", link1, link2), ("componentwise", link1, link2),
                     ("permute", link1, "--perm", "1,2")):
            code, out, err = run_cli(capsys, argv[0], "--atlas", "twist-even-2", *argv[1:])
            assert code == EXIT_USAGE and out == "" and "is not a class of twist-even-2" in err


def test_atlas_file_loading(tmp_path, capsys):
    path = tmp_path / "atlas.json"
    path.write_text(atlas_to_json_str(builtin_atlas("twist-even-2")))
    code, out, _ = run_cli(capsys, "peaks", "--atlas", str(path))
    assert code == EXIT_OK
    assert out.splitlines() == ["P1  rot=0 tb=1", "P2  rot=0 tb=1"]


def test_cable_mountain_dispatch(capsys):
    code, out, _ = run_cli(
        capsys, "cable-mountain", "--atlas", "k-minus-5",
        "--p", "2", "--q", "1", "--tb-min", "-7", "--format", "json",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert {"rot": 0, "tb": -5, "multiplicity": 2} in doc["entries"]
    code, out, _ = run_cli(
        capsys, "cable-mountain", "--atlas", "twist-even-2",
        "--p", "2", "--q", "-3", "--tb-min", "-6", "--format", "json",
    )
    assert code == EXIT_OK
    assert sum(e["multiplicity"] for e in json.loads(out)["entries"] if e["tb"] == -6) == 6
    code, _, err = run_cli(
        capsys, "cable-mountain", "--atlas", "twist-even-2",
        "--p", "1", "--q", "0", "--tb-min", "-4",
    )
    assert code == EXIT_USAGE and "enumerate" in err


def test_cable_mountain_cutoff_above_peak_exits_two(capsys):
    # greater (2,1) peak row of k-minus-5 is -5, lesser (2,-3) of twist-even-2 is -6
    for atlas, p, q, tb_min in (("k-minus-5", 2, 1, 100), ("k-minus-5", 2, 1, -4),
                                ("twist-even-2", 2, -3, -5)):
        for fmt in ("json", "ascii", "svg"):
            code, out, err = run_cli(
                capsys, "cable-mountain", "--atlas", atlas, "--p", str(p), "--q", str(q),
                "--tb-min", str(tb_min), "--format", fmt,
            )
            assert code == EXIT_USAGE and out == "", (atlas, tb_min, fmt)
            assert err.startswith(f"error: tb_min={tb_min} above the peak row")


def test_requests_past_the_row_or_column_limit_exit_two_fast(tmp_path, capsys):
    # each once walked every row from its peak down and ran past 10 s
    path = tmp_path / "tall.json"
    path.write_text(json.dumps({"generators": [{"id": "g", "rot": 1, "tb": 10**20}],
                                "rules": [], "tbb": 10**20}))
    # each once drew one ASCII cell per rot from -r_max to r_max on every row:
    # the atlas ran out of memory, the cable grid took about 1 s
    spec = json.loads(atlas_to_json_str(builtin_atlas("k-minus-5")))
    spec["generators"][1]["rot"] = 10**9
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps(spec))
    too_wide = (
        ("mountain", "--atlas", str(wide), "--tb-min", "-7"),
        ("cable-mountain", "--atlas", "twist-even-2", "--p", "1001", "--q", "-300299",
         "--tb-min", "-300599302"),
    )
    for args in (
        ("mountain", "--atlas", str(path), "--tb-min", "-4"),
        ("enumerate", "--atlas", str(path), "--p", "1", "--q", "-4"),
        ("mountain", "--atlas", "twist-even-2", "--tb-min", str(-10**12)),
        ("enumerate", "--atlas", "twist-even-2", "--p", "2", "--q", str(-10**12 - 1)),
        ("cable-mountain", "--atlas", "twist-even-2", "--p", "2", "--q", str(-10**12 - 1),
         "--tb-min", str(-2 * 10**12 - 10)),
        ("cable-mountain", "--atlas", "unknot", "--p", "3001", "--q", "3002",
         "--tb-min", "9000000"),
        *too_wide,
    ):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *args)
        assert time.perf_counter() - start < 1.0, args
        assert code == EXIT_USAGE and out == "", args
        limit = "at most 2001 are drawn" if args in too_wide else "at most 500 are walked"
        assert err.startswith("error:") and err.rstrip().endswith(limit), args
    for args in too_wide:
        code, out, _ = run_cli(capsys, *args, "--format", "json")
        assert code == EXIT_OK and json.loads(out)["entries"], args
    # within the limit a wide diamond costs its points above the cutoff,
    # not its p * p stabilizations
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "cable-mountain", "--atlas", "unknot", "--p", "3001",
                           "--q", "3002", "--tb-min", "9002990", "--format", "json")
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_OK and len(json.loads(out)["entries"]) == 55


def test_enumerate_and_permute(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--atlas", "twist-even-2", "--p", "1", "--q", "0", "--n", "2"
    )
    assert code == EXIT_OK and len(out.splitlines()) == 4
    link = json.dumps(
        {
            "regime": "integer-lesser",
            "q": 0,
            "n": 3,
            "base": {"class": {"gen": "R1"}, "t": 0},
            "vec": [[0, 0], [0, 0], [0, 0]],
        }
    )
    code, out, _ = run_cli(
        capsys, "permute", "--atlas", "twist-even-2", link, "--perm", "2,3,1"
    )
    assert code == EXIT_OK and json.loads(out)["verdict"] == "isotopic"
    code, out, _ = run_cli(
        capsys, "permute", "--atlas", "twist-even-2", link, "--perm", "2,1,3"
    )
    assert code == EXIT_OK and json.loads(out)["verdict"] == "not_isotopic"


def test_componentwise_command(capsys):
    code, out, _ = run_cli(
        capsys, "componentwise", "--atlas", "k-minus-5", GREATER_A, GREATER_B
    )
    assert code == EXIT_OK
    assert json.loads(out) == {"componentwise_isotopic": True}


def test_vec_override_flag(capsys):
    code, out, _ = run_cli(
        capsys, "isotopic", "--atlas", "k-minus-5",
        "--vec", "[[2,0],[2,0]]", GREATER_A, GREATER_B,
    )
    assert code == EXIT_OK
    assert json.loads(out)["verdict"] == "isotopic"


def test_selfcheck_smoke(capsys):
    code, out, _ = run_cli(capsys, "selfcheck", "--samples", "5")
    assert code == EXIT_OK
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 10
    assert all(l.startswith("PASS") for l in lines)
    assert "10/10 criteria passed" in out


def test_svg_output_to_file(tmp_path, capsys):
    out_path = tmp_path / "range.svg"
    code, _, _ = run_cli(
        capsys, "cable-mountain", "--atlas", "twist-even-2-surgery",
        "--p", "2", "--q", "1", "--tb-min", "-2",
        "--format", "svg", "--overlay", "--out", str(out_path),
    )
    assert code == EXIT_OK
    text = out_path.read_text()
    assert text.startswith("<?xml") and "(0,-1)" in text


def test_out_file_holds_the_stdout_bytes(tmp_path, capsys):
    # stdout gets one trailing newline that the file does not when the
    # rendered text lacks one (JSON); the other renderers end in a newline
    for argv in (
        ("mountain", "--atlas", "twist-even-2", "--tb-min", "-3", "--format", "json"),
        ("mountain", "--atlas", "twist-even-2", "--tb-min", "-3", "--format", "ascii"),
        ("cable-mountain", "--atlas", "twist-even-4", "--p", "2", "--q", "-3",
         "--tb-min", "-12", "--format", "json"),
        ("cable-mountain", "--atlas", "twist-even-2-surgery", "--p", "2", "--q", "1",
         "--tb-min", "-2", "--format", "svg", "--overlay"),
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        path = tmp_path / "range.out"
        code, printed, _ = run_cli(capsys, *argv, "--out", str(path))
        assert code == EXIT_OK and printed == ""
        written = path.read_bytes()
        if argv[-1] == "json":
            assert not written.endswith(b"\n")
        assert written + (b"" if written.endswith(b"\n") else b"\n") == out.encode()


def test_zero_samples_fail_oracle_agreement():
    result = selfcheck.check_oracle_agreement(0)
    assert not result.passed
    assert result.detail.count("zero comparisons") == 3
    assert not all(r.passed for r in selfcheck.run_all(samples=0))


def test_reused_parser_answers_like_a_fresh_one(capsys, monkeypatch):
    unknown_flag = ["mountain", "--atlas", "twist-even-2", "--tb-min", "-3", "--colour", "red"]
    errors = [
        unknown_flag,
        ["mountain", "--atlas", "twist-even-2"],
        ["isotopic", "--atlas", "no-such-atlas", GREATER_A, GREATER_B],
        ["selfcheck", "--samples", "0"],
    ]
    # the golden commands, with selfcheck at one sample: its parse is the same
    golden = [argv if argv != ["selfcheck"] else ["selfcheck", "--samples", "1"]
              for argv in CASES.values()]
    calls = errors + [["mountain", "--help"]] + golden + [unknown_flag]
    reused = [run_cli(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in reused] == (
        [EXIT_USAGE] * len(errors) + [EXIT_OK] * (1 + len(golden)) + [EXIT_USAGE]
    )
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    for argv, answer in zip(calls, reused):
        assert run_cli(capsys, *argv) == answer, argv


def test_second_run_builds_no_parser(capsys, monkeypatch):
    argv = ("mountain", "--atlas", "twist-even-2", "--tb-min", "-3")
    assert run_cli(capsys, *argv)[0] == EXIT_OK
    added = []
    add_argument = argparse.ArgumentParser.add_argument

    def counting(self, *args, **kwargs):
        added.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
    assert run_cli(capsys, *argv)[0] == EXIT_OK
    assert added == []


def test_twist_even_names_past_the_bound_exit_two_fast(capsys, monkeypatch):
    # twist-even-99999 ran past a 10 s timeout; twist-even-1000 took 7.5 s and 529 MB
    for name in ("twist-even-99999", "twist-even-1000-surgery", "twist-even-49",
                 "twist-even-49-surgery"):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "mountain", "--atlas", name, "--tb-min", "-3")
        assert time.perf_counter() - start < 1.0, name
        assert code == EXIT_USAGE and out == "", name
        assert "2 <= N <= 48" in err, name
        with raises_code(UnknownName, "unknown-atlas", match="N <= 48"):
            builtin_atlas(name)
    # a numeral past int()'s digit limit is refused by its length
    with raises_code(UnknownName, "unknown-atlas", match="N <= 48"):
        builtin_atlas("twist-even-" + "9" * 5000)
    assert builtin_atlas("twist-even-48").name == "twist-even-48"
    # the surgery atlas at the bound takes seconds to build; its name is accepted
    built = []
    monkeypatch.setattr(atlas_module, "twist_even_atlas", lambda n, s: built.append((n, s)))
    builtin_atlas("twist-even-48-surgery")
    assert built == [(48, True)]


def test_import_loads_no_dataclasses_inspect_or_elementtree():
    src = Path(__file__).resolve().parent.parent / "src"
    heavy = ("dataclasses", "inspect", "xml.etree.ElementTree")
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); import legcable.cli; "
            f"print([m for m in {heavy!r} if m in sys.modules])")
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out == "[]\n"
