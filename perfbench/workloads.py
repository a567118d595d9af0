"""Seeded operation streams of the three workloads, with their known answers.

Each workload repeats a fixed schedule of operation kinds (a period); the
seed draws every input inside a slot.  Fixing the schedule keeps the share
of deep, wide and heavy operations the same in every run, so throughput and
tail latency compare across seeds; the seed still changes every document,
class, slope and depth the program sees.

The program receives only the generated inputs: link documents (``decide``,
``oracle``) and CLI argument lists (``ranges``).  Known answers come from
identities of the paper and closed forms, never from the engine's answer to
the same question.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
from dataclasses import dataclass
from math import gcd
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent

ISOTOPIC = "isotopic"
NOT_ISOTOPIC = "not_isotopic"
UNKNOWN = "unknown"

# Deep slots alternate between the greater and the lesser regime and push
# every component this many times; a push is p stabilizations, so vectors
# stay below 3 * 30000 < 10^5 and a canonicalization does the same work per
# push for every slope.
DEEP_PUSHES = (20000, 30000)
DEEP_N = 2
# Components of the wide slots.
WIDE_NS = (7, 8)
# Underlying classes are drawn from the top POOL_LEVELS tb levels of an
# atlas, at most POOL_PER_LEVEL classes from each.
POOL_LEVELS = 2
POOL_PER_LEVEL = 4


@dataclass
class Op:
    kind: str
    args: tuple
    expect: Any = None
    deep: bool = False
    wide: bool = False
    fresh_atlas: bool = False
    # An ``unknown`` verdict on this oracle pair is not wrong; every other
    # verdict must be definite.
    open_ok: bool = False


@dataclass
class Outcome:
    """What checking one answer found: a contradiction and verdict counts."""

    wrong: Optional[str] = None
    verdicts: int = 0
    unknown: int = 0
    disagreements: int = 0


def ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def class_doc(c) -> dict:
    if hasattr(c, "gen"):
        return {"gen": c.gen, "plus": c.plus, "minus": c.minus}
    return {"rot": c.rot, "tb": c.tb}


def raw_stab(doc: dict, sign: int, count: int = 1) -> dict:
    """The class document stabilized ``count`` times, left unnormalized."""
    if "gen" in doc:
        key = "plus" if sign > 0 else "minus"
        return dict(doc, **{key: doc[key] + count})
    return {"rot": doc["rot"] + sign * count, "tb": doc["tb"] - count}


def bump(vec: list, rng: random.Random) -> list:
    """``vec`` with one stabilization added to one component."""
    out = [list(ab) for ab in vec]
    out[rng.randrange(len(out))][rng.randrange(2)] += 1
    return out


def greater_doc(p, q, cls, vec) -> dict:
    return {"regime": "greater", "p": p, "q": q, "n": len(vec),
            "base": {"class": cls}, "vec": [list(ab) for ab in vec]}


def integer_doc(q, cls, t, vec) -> dict:
    return {"regime": "integer-lesser", "p": 1, "q": q, "n": len(vec),
            "base": {"class": cls, "t": t}, "vec": [list(ab) for ab in vec]}


def lesser_doc(p, q, cls, sign, vec) -> dict:
    return {"regime": "noninteger-lesser", "p": p, "q": q, "n": len(vec),
            "base": {"class": cls, "form": "divide", "sign": "+" if sign > 0 else "-"},
            "vec": [list(ab) for ab in vec]}


def shallow_vec(rng, n, top=6) -> list:
    return [[rng.randint(0, top), rng.randint(0, top)] for _ in range(n)]


def schedule(slots: dict) -> tuple:
    """A fixed, seed-independent interleaving of ``{kind: count}``."""
    kinds = [k for k, count in slots.items() for _ in range(count)]
    random.Random(0).shuffle(kinds)
    return tuple(kinds)


class AtlasData:
    """Classes and slopes of one long-lived atlas, used to draw inputs."""

    def __init__(self, lc, name: str) -> None:
        self.name = name
        self.atlas = atlas = lc.builtin_atlas(name)
        self.lc = lc
        self.tbb = atlas.tbb
        self.wc = atlas.width_ceiling
        self.thick = atlas.uniformly_thick
        self._levels: dict = {}

    def level(self, tb: int) -> list:
        if tb not in self._levels:
            self._levels[tb] = self.lc.classes_at_tb(self.atlas, tb)
        return self._levels[tb]

    def pool(self) -> list:
        out = []
        for tb in range(self.tbb, self.tbb - POOL_LEVELS, -1):
            out.extend(self.level(tb)[:POOL_PER_LEVEL])
        return out

    def greater_slopes(self) -> list:
        out = []
        for p in (1, 2, 3):
            q, found = p * self.wc + 1, 0
            while found < 2:
                if gcd(p, q) == 1:
                    out.append((p, q))
                    found += 1
                q += 1
        return out

    def lesser_slopes(self) -> list:
        return [(p, q) for p in (2, 3) for q in range(p * self.tbb - 1, p * self.tbb - 7, -1)
                if gcd(p, q) == 1]

    def tb_of(self, cls) -> int:
        return self.lc.invariants(self.atlas, cls).tb


def _verdict_outcome(op: Op, kind: str) -> Outcome:
    # The engine decides every decide operation; an unknown is a wrong answer.
    out = Outcome(verdicts=1, unknown=int(kind == UNKNOWN))
    if kind != op.expect:
        out.wrong = f"{op.kind}: {kind}, known answer {op.expect} for {op.args!r}"
    return out


# ---------------------------------------------------------------------------
# decide: long-lived atlases, link documents through the three deciders


class Decide:
    """Link documents through make_link, then isotopic, componentwise_isotopic
    or permutation_realizable, over every builtin atlas and all three regimes.
    """

    name = "decide"
    ATLASES = ("unknot", "k-minus-5", "twist-even-2", "twist-even-3", "twist-even-4",
               "twist-even-2-surgery")
    SLOTS = {
        "greater-twin": 24, "greater-diff": 16, "integer-twin": 20, "integer-diff": 16,
        "lesser-twin": 20, "lesser-diff": 16, "k5-isotopic": 16, "k5-componentwise": 12,
        "greater-componentwise": 16, "greater-permute": 18, "integer-permute": 18,
        "deep": 1, "wide-componentwise": 3, "wide-isotopic": 4,
    }

    def __init__(self, lc) -> None:
        self.lc = lc
        self.schedule = schedule(self.SLOTS)
        # Operations until the schedule and the deep regime both restart.
        self.period = 2 * len(self.schedule)

    def setup(self) -> None:
        self.data = {n: AtlasData(self.lc, n) for n in self.ATLASES}
        self.thick = [d for d in self.data.values() if d.thick]

    def ops(self, seed: int):
        rng = random.Random(seed)
        while True:
            for regime in ("greater", "lesser"):
                for kind in self.schedule:
                    if kind == "deep":
                        pushes = rng.randint(*DEEP_PUSHES)
                        yield getattr(self, f"deep_{regime}")(rng, pushes)
                    else:
                        yield getattr(self, kind.replace("-", "_"))(rng)

    # -- slots ----------------------------------------------------------------

    def _greater_pair(self, rng, n, vec=None, pushes=None):
        """(data, doc, twin doc): cable over u with vec + k p of one sign,
        and the same cable over u stabilized k times (the diamond push)."""
        d = self.data[rng.choice(self.ATLASES)]
        p, q = rng.choice(d.greater_slopes())
        u = class_doc(rng.choice(d.pool()))
        vec = vec or shallow_vec(rng, n)
        k = pushes if pushes is not None else rng.randint(1, 2)
        sign = rng.choice((1, -1))
        side = 0 if sign > 0 else 1
        lifted = [list(ab) for ab in vec]
        for ab in lifted:
            ab[side] += k * p
        return d, greater_doc(p, q, u, lifted), greater_doc(p, q, raw_stab(u, sign, k), vec)

    def greater_twin(self, rng):
        d, a, b = self._greater_pair(rng, rng.randint(1, 6))
        return Op("isotopic", (d.name, a, b), ISOTOPIC)

    def greater_diff(self, rng):
        d, a, b = self._greater_pair(rng, rng.randint(1, 6))
        b["vec"] = bump(b["vec"], rng)
        return Op("isotopic", (d.name, a, b), NOT_ISOTOPIC)

    def _integer_pair(self, rng, n):
        """First twisted-copy identity: S(core) of the t-copy of L equals the
        (t-1)-copy of S(L) with the opposite stabilization on every ruling."""
        d = self.data[rng.choice(self.ATLASES)]
        q = d.tbb - rng.randint(1, 2)
        pool = [c for tb in range(q + 1, d.tbb + 1) for c in d.level(tb)]
        L = rng.choice(pool)
        t = d.tb_of(L) - q
        vec = shallow_vec(rng, n, 3)
        sign = rng.choice((1, -1))
        side, other = (0, 1) if sign > 0 else (1, 0)
        lhs = [list(ab) for ab in vec]
        lhs[0][side] += 1
        rhs = [list(ab) for ab in vec]
        for ab in rhs[1:]:
            ab[other] += 1
        cls = class_doc(L)
        return d, integer_doc(q, cls, t, lhs), integer_doc(q, raw_stab(cls, sign), t - 1, rhs)

    def integer_twin(self, rng):
        d, a, b = self._integer_pair(rng, rng.randint(1, 4))
        return Op("isotopic", (d.name, a, b), ISOTOPIC)

    def integer_diff(self, rng):
        d, a, b = self._integer_pair(rng, rng.randint(1, 4))
        b["vec"] = bump(b["vec"], rng)
        return Op("isotopic", (d.name, a, b), NOT_ISOTOPIC)

    def _lesser_pair(self, rng, vec, pushes=0):
        """Threshold identity: S-^theta0 of the + cable equals S+^theta0 of
        the - cable, theta0 = p ceil(q/p) - q.  ``pushes`` adds p
        stabilizations of one sign per push to every component."""
        d = rng.choice(self.thick)
        p, q = rng.choice(d.lesser_slopes())
        side = rng.randrange(2)
        vec = [list(ab) for ab in vec]
        for ab in vec:
            ab[side] += pushes * p
        w = class_doc(rng.choice(d.level(ceil_div(q, p))))
        th0 = p * ceil_div(q, p) - q
        plus = [[a, b + th0] for a, b in vec]
        minus = [[a + th0, b] for a, b in vec]
        return d, lesser_doc(p, q, w, 1, plus), lesser_doc(p, q, w, -1, minus)

    def lesser_twin(self, rng):
        d, a, b = self._lesser_pair(rng, shallow_vec(rng, rng.randint(1, 4)))
        return Op("isotopic", (d.name, a, b), ISOTOPIC)

    def lesser_diff(self, rng):
        d, a, b = self._lesser_pair(rng, shallow_vec(rng, rng.randint(1, 4)))
        b["vec"] = bump(b["vec"], rng)
        return Op("isotopic", (d.name, a, b), NOT_ISOTOPIC)

    @staticmethod
    def _k5_docs(rng):
        m, n, k, l = (rng.randint(0, 5) for _ in range(4))
        vec = [[m, n], [k, l]]
        docs = tuple(greater_doc(2, 1, {"gen": g}, vec) for g in ("A", "B"))
        return (m, n, k, l), docs

    def k5_isotopic(self, rng):
        # The 2-component (4,2)-cable table of the -5 twist knot.
        (m, n, k, l), (a, b) = self._k5_docs(rng)
        iso = (m >= 2 and k >= 2) or (n >= 2 and l >= 2)
        return Op("isotopic", ("k-minus-5", a, b), ISOTOPIC if iso else NOT_ISOTOPIC)

    def k5_componentwise(self, rng):
        (m, n, k, l), (a, b) = self._k5_docs(rng)
        cw = (m >= 2 or n >= 2) and (k >= 2 or l >= 2)
        return Op("componentwise", ("k-minus-5", a, b), cw)

    def _componentwise(self, rng, n, wide=False):
        # Same base: component classes match iff the vector entries do.
        d, a, _ = self._greater_pair(rng, n, pushes=0)
        b = dict(a)
        match = rng.random() < 0.5
        if match:
            b["vec"] = rng.sample(a["vec"], len(a["vec"]))
        else:
            b["vec"] = bump(a["vec"], rng)
        return Op("componentwise", (d.name, a, b), match, wide=wide)

    def greater_componentwise(self, rng):
        return self._componentwise(rng, rng.randint(2, 6))

    def wide_componentwise(self, rng):
        return self._componentwise(rng, rng.choice(WIDE_NS), wide=True)

    def wide_isotopic(self, rng):
        d, a, b = self._greater_pair(rng, rng.choice(WIDE_NS))
        return Op("isotopic", (d.name, a, b), ISOTOPIC, wide=True)

    def greater_permute(self, rng):
        # Greater cables: a permutation is realizable iff it preserves the
        # component invariants, i.e. maps each vector entry to an equal one.
        n = rng.randint(2, 6)
        values = shallow_vec(rng, rng.randint(1, 3))
        d, a, _ = self._greater_pair(rng, n, vec=[rng.choice(values) for _ in range(n)],
                                     pushes=0)
        vec = a["vec"]
        if rng.random() < 0.5:
            perm = list(range(n))
            rng.shuffle(perm)
        else:
            perm = list(range(n))
            for value in values:
                idx = [i for i in range(n) if vec[i] == list(value)]
                shuffled = rng.sample(idx, len(idx))
                for i, j in zip(idx, shuffled):
                    perm[i] = j
        realizable = all(vec[perm[c]] == vec[c] for c in range(n))
        return Op("permute", (d.name, a, [x + 1 for x in perm]),
                  ISOTOPIC if realizable else NOT_ISOTOPIC)

    def integer_permute(self, rng):
        # The identity is always realizable; swapping two ruling components
        # with different vector entries moves distinct invariants.
        n = rng.randint(2, 5)
        d, a, _ = self._integer_pair(rng, n)
        vec = a["vec"]
        rulings = [i for i in range(1, n) if vec[i] != vec[-1]]
        perm = list(range(n))
        if rulings and rng.random() < 0.5:
            i = rng.choice(rulings)
            perm[i], perm[n - 1] = perm[n - 1], perm[i]
        realizable = all(vec[perm[c]] == vec[c] for c in range(n))
        return Op("permute", (d.name, a, [x + 1 for x in perm]),
                  ISOTOPIC if realizable else NOT_ISOTOPIC)

    def deep_greater(self, rng, pushes):
        d, a, b = self._greater_pair(rng, DEEP_N, pushes=pushes)
        return Op("isotopic", (d.name, a, b), ISOTOPIC, deep=True)

    def deep_lesser(self, rng, pushes):
        vec = shallow_vec(rng, DEEP_N)
        d, a, b = self._lesser_pair(rng, vec, pushes=pushes)
        return Op("isotopic", (d.name, a, b), ISOTOPIC, deep=True)

    # -- running ----------------------------------------------------------

    def execute(self, op: Op):
        lc = self.lc
        atlas = self.data[op.args[0]].atlas
        first = lc.make_link(atlas, op.args[1])
        if op.kind == "permute":
            return lc.permutation_realizable(atlas, first, op.args[2]).kind
        second = lc.make_link(atlas, op.args[2])
        if op.kind == "componentwise":
            return lc.componentwise_isotopic(atlas, first, second)
        return lc.isotopic(atlas, first, second).kind

    def check(self, op: Op, value) -> Outcome:
        if op.kind == "componentwise":
            if value is not op.expect:
                return Outcome(wrong=f"componentwise: {value}, known answer {op.expect} "
                                     f"for {op.args!r}")
            return Outcome()
        return _verdict_outcome(op, value)

    # -- malformed documents ----------------------------------------------

    def malformed(self, seed: int, count: int) -> list:
        """Link documents that must end in an EngineError: a missing ``q``,
        a list instead of a document, n = 0, and a vector of the wrong length."""
        rng = random.Random(seed ^ 0x5EED)
        out = []
        for i in range(count):
            d, good, _ = self._greater_pair(rng, rng.randint(1, 3), pushes=0)
            kind = i % 4
            if kind == 0:
                doc = {k: v for k, v in good.items() if k != "q"}
            elif kind == 1:
                doc = [good]
            elif kind == 2:
                doc = dict(good, n=0, vec=[])
            else:
                doc = dict(good, vec=good["vec"] + [[0, 0]])
            out.append(Op("isotopic", (d.name, doc, doc)))
        return out


# ---------------------------------------------------------------------------
# ranges: mountain and cable-mountain requests through the in-process CLI


def twist_range(n: int, tb_min: int) -> dict:
    """Mountain range of the negative even twist knot with 2n crossings."""
    l, k = ceil_div(n * n, 2), ceil_div(n, 2)
    out = {(0, 1): l}
    for t in range(0, tb_min - 1, -1):
        out[(t - 1, t)] = k
        out[(1 - t, t)] = k
        for r in range(t + 1, -t, 2):
            out[(r, t)] = 1
    return out


def k5_range(tb_min: int) -> dict:
    """Two peaks at (0, -3) merging after one stabilization."""
    out = {}
    for t in range(-3, tb_min - 1, -1):
        d = -3 - t
        for r in range(-d, d + 1, 2):
            out[(r, t)] = 1
    out[(0, -3)] = 2
    return out


def knot_range(atlas: str, tb_min: int) -> dict:
    if atlas == "k-minus-5":
        return k5_range(tb_min)
    n = int(atlas.split("-")[2])
    return twist_range(n, tb_min)


def greater_cable_range(atlas: str, tbb: int, p: int, q: int, tb_min: int) -> dict:
    """Diamonds of distinct underlying classes are disjoint: each class u of
    the knot contributes its p-by-p diamond of stabilizations."""
    floor = ceil_div(tb_min - p * q + q, p)
    out: dict = {}
    for (rot_u, tb_u), mult in knot_range(atlas, min(floor, tbb)).items():
        for i in range(p):
            for j in range(p):
                rot = p * rot_u + i - j
                tb = p * q - (q - p * tb_u) - i - j
                if tb >= tb_min:
                    out[(rot, tb)] = out.get((rot, tb), 0) + mult
    return out


def census_row(n: int, p: int, q: int) -> dict:
    """Peak row of the (p, -q)-cable of a twist knot: 2m + 4k classes."""
    m, k = q // p, ceil_div(n, 2)
    row: dict = {}
    for l in range(m):
        for s in (1, -1):
            r = s * (p - q + 2 * p * l)
            row[r] = row.get(r, 0) + 1
    for r in (p + q, -(p + q), (2 * m + 1) * p - q, -((2 * m + 1) * p - q)):
        row[r] = row.get(r, 0) + k
    return row


def parse_ascii(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        if not line.startswith("tb="):
            continue
        tb = int(line[3:line.index("|")])
        cells = line.split("|", 1)[1].split()
        r_max = (len(cells) - 1) // 2
        for idx, cell in enumerate(cells):
            if cell != ".":
                out[(idx - r_max, tb)] = int(cell)
    return out


def parse_json(text: str) -> dict:
    return {(e["rot"], e["tb"]): e["multiplicity"] for e in json.loads(text)["entries"]}


class Ranges:
    """Mountain and cable-mountain requests through ``legcable.cli.run``,
    each building its atlas fresh, rendered as ascii, svg or json."""

    name = "ranges"
    ATLASES = ()
    TBB = {"k-minus-5": -3}
    SLOTS = {
        "mountain-2": 5, "mountain-4": 4, "mountain-8": 3, "mountain-16": 2,
        "mountain-k5": 3, "mountain-surgery": 2, "mountain-mid": 1, "mountain-largest": 1,
        "greater-k5": 4, "greater-twist": 7, "lesser-twist": 4, "lesser-k5": 2,
        "lesser-overlay": 2,
    }
    GREATER_TWIST = ((2, 3), (3, 4), (2, 5), (3, 5))
    # Lesser request kinds: the atlases and slopes they draw from.
    LESSER = {
        "lesser-twist": (("twist-even-2", "twist-even-4"), ((2, -3), (3, -4), (2, -5))),
        "lesser-k5": (("k-minus-5",), ((2, -7), (3, -10), (2, -9))),
        "lesser-overlay": (("twist-even-2-surgery",), ((2, 1),)),
    }
    # A lesser range goes this far below its peak row at tb = pq.
    LESSER_DEPTHS = (2, 4, 6)
    FORMATS = ("ascii", "svg", "json")

    def __init__(self, lc) -> None:
        self.lc = lc
        import legcable.cli
        import legcable.render

        self.cli = legcable.cli
        self.render = legcable.render
        self.schedule = schedule(self.SLOTS)
        self.period = len(self.schedule)
        self.src = Path(lc.__file__).resolve().parents[1]

    def setup(self) -> None:
        """Nothing is built ahead: every request loads its atlas, like a CLI
        call.  The brute reference of every lesser range the stream can draw
        is computed here, in a process of its own, so that its memory stays
        out of this process's peak RSS."""
        refs = [("lesser", atlas, p, q, p * q - depth)
                for atlases, slopes in self.LESSER.values()
                for atlas in atlases for p, q in slopes for depth in self.LESSER_DEPTHS]
        out = subprocess.run(
            [sys.executable, "-I", str(HERE / "brute_ranges.py"), str(self.src)],
            input=json.dumps([ref[1:] for ref in refs]), capture_output=True, text=True,
            check=True, timeout=120)
        self._brute = {ref: {(rot, tb): mult for rot, tb, mult in entries}
                       for ref, entries in zip(refs, json.loads(out.stdout))}

    def ops(self, seed: int):
        rng = random.Random(seed)
        while True:
            for kind in self.schedule:
                fmt = rng.choice(self.FORMATS)
                yield self._request(kind, rng, fmt)

    def _request(self, kind, rng, fmt) -> Op:
        if kind.startswith("mountain"):
            atlas, depth = {
                "mountain-2": ("twist-even-2", (1, 12)),
                "mountain-4": ("twist-even-4", (1, 12)),
                "mountain-8": ("twist-even-8", (1, 8)),
                "mountain-16": ("twist-even-16", (1, 6)),
                "mountain-k5": ("k-minus-5", (1, 20)),
                "mountain-surgery": ("twist-even-2-surgery", (1, 12)),
                "mountain-mid": ("twist-even-16", (9, 11)),
                "mountain-largest": ("twist-even-8", (41, 41)),
            }[kind]
            tbb = self.TBB.get(atlas, 1)
            tb_min = tbb - rng.randint(*depth)
            argv = ["mountain", "--atlas", atlas, "--tb-min", str(tb_min)]
            ref = ("mountain", atlas, tb_min)
        elif kind.startswith("greater"):
            if kind == "greater-k5":
                atlas, tbb = "k-minus-5", -3
                p = rng.choice((2, 3))
                q = rng.choice([q for q in range(-3 * p + 1, -3 * p + 8) if gcd(p, q) == 1])
            else:
                atlas, tbb = f"twist-even-{rng.choice((2, 4, 8))}", 1
                p, q = rng.choice(self.GREATER_TWIST)
            peak = p * q - (q - p * tbb)
            tb_min = peak - rng.randint(0, 14)
            argv = ["cable-mountain", "--atlas", atlas, "--p", str(p), "--q", str(q),
                    "--tb-min", str(tb_min)]
            ref = ("greater", atlas, tbb, p, q, tb_min)
        else:
            atlases, slopes = self.LESSER[kind]
            atlas = rng.choice(atlases)
            p, q = rng.choice(slopes)
            tb_min = p * q - rng.choice(self.LESSER_DEPTHS)
            argv = ["cable-mountain", "--atlas", atlas, "--p", str(p), "--q", str(q),
                    "--tb-min", str(tb_min)]
            if kind == "lesser-overlay":
                fmt = "svg"
                argv.append("--overlay")
            ref = ("lesser", atlas, p, q, tb_min)
        argv += ["--format", fmt]
        return Op(kind, tuple(argv), ref, fresh_atlas=True)

    def execute(self, op: Op):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.run(list(op.args))
        return code, buf.getvalue()

    def reference(self, ref: tuple) -> dict:
        """Known entries: closed forms, else the oracle's brute range."""
        if ref[0] == "mountain":
            _, atlas, tb_min = ref
            return knot_range(atlas.replace("-surgery", ""), tb_min)
        if ref[0] == "greater":
            _, atlas, tbb, p, q, tb_min = ref
            return greater_cable_range(atlas, tbb, p, q, tb_min)
        return self._brute[ref]

    def check(self, op: Op, value) -> Outcome:
        code, text = value
        if code != 0:
            return Outcome(wrong=f"{' '.join(op.args)}: exit {code}")
        fmt = op.args[-1]
        if fmt == "ascii":
            got = parse_ascii(text)
        elif fmt == "svg":
            got = self.render.svg_entries(text)
        else:
            got = parse_json(text)
        want = self.reference(op.expect)
        if got != want:
            return Outcome(wrong=f"{' '.join(op.args)}: entries differ from the reference")
        ref = op.expect
        if ref[0] == "lesser" and ref[1].startswith("twist-even") and ref[3] < 0:
            n = int(ref[1].split("-")[2])
            _, _, p, q, _ = ref
            row = {r: m for (r, t), m in got.items() if t == p * q}
            if row != census_row(n, p, -q):
                return Outcome(wrong=f"{' '.join(op.args)}: peak row breaks the 2m+4k census")
        return Outcome()


# ---------------------------------------------------------------------------
# oracle: decider against the brute-force rewrite-closure search


class Oracle:
    """Shallow pairs decided by isotopic and by closure_equal, plus the
    depth-8 confluence sweep and brute against exact mountain ranges."""

    name = "oracle"
    GREATER = ("unknot", "k-minus-5", "twist-even-2", "twist-even-3")
    LESSER = ("k-minus-5", "twist-even-2", "twist-even-3", "twist-even-2-surgery")
    ATLASES = GREATER + ("twist-even-2-surgery", "twist-even-4")
    SLOTS = {"greater": 10, "integer": 10, "lesser": 10, "confluence": 1, "brute-range": 1}

    def __init__(self, lc) -> None:
        self.lc = lc
        from legcable.oracle import SearchBudget

        self.budget = SearchBudget(depth=96, node_cap=60000)
        self.confluence_budget = SearchBudget(depth=8)
        self.schedule = schedule(self.SLOTS)
        # The confluence and brute-range slots cycle through 6 and 4 atlases.
        self.period = len(self.schedule) * 12

    def setup(self) -> None:
        self.data = {n: AtlasData(self.lc, n) for n in self.ATLASES}

    def ops(self, seed: int):
        rng = random.Random(seed)
        counts = {"greater": 0, "integer": 0, "lesser": 0, "confluence": 0,
                  "brute-range": 0}
        while True:
            for kind in self.schedule:
                count = counts[kind]
                counts[kind] += 1
                yield getattr(self, kind.replace("-", "_"))(rng, count)

    def greater(self, rng, count):
        d = self.data[rng.choice(self.GREATER)]
        n = rng.randint(1, 3)
        p, q = rng.choice(d.greater_slopes())

        def sample():
            return class_doc(rng.choice(d.pool())), shallow_vec(rng, n)

        u, vec = sample()
        if count % 3 == 0:
            lifted = [[a + p, b] for a, b in vec]
            return Op("pair", (d.name, greater_doc(p, q, u, lifted),
                               greater_doc(p, q, raw_stab(u, 1), vec)), ISOTOPIC)
        u2, vec2 = sample()
        return Op("pair", (d.name, greater_doc(p, q, u, vec), greater_doc(p, q, u2, vec2)))

    def integer(self, rng, count):
        d = self.data[rng.choice(self.GREATER)]
        n = rng.randint(1, 3)
        q = d.tbb - rng.randint(0, 2)
        pool = [c for tb in range(q, d.tbb + 1) for c in d.level(tb)]

        def sample():
            L = rng.choice(pool)
            return class_doc(L), d.tb_of(L) - q, shallow_vec(rng, n, 3)

        cls, t, vec = sample()
        if count % 3 == 0 and t >= 1:
            lhs = [[vec[0][0] + 1, vec[0][1]]] + [list(ab) for ab in vec[1:]]
            rhs = [list(vec[0])] + [[a, b + 1] for a, b in vec[1:]]
            return Op("pair", (d.name, integer_doc(q, cls, t, lhs),
                               integer_doc(q, raw_stab(cls, 1), t - 1, rhs)), ISOTOPIC)
        cls2, t2, vec2 = sample()
        return Op("pair", (d.name, integer_doc(q, cls, t, vec), integer_doc(q, cls2, t2, vec2)),
                  open_ok=True)

    def lesser(self, rng, count):
        d = self.data[rng.choice(self.LESSER)]
        n = rng.randint(1, 3)
        p, q = rng.choice(d.lesser_slopes())
        window = d.level(ceil_div(q, p))

        def sample():
            return class_doc(rng.choice(window)), rng.choice((1, -1)), shallow_vec(rng, n)

        w, sign, vec = sample()
        if count % 3 == 0:
            th0 = p * ceil_div(q, p) - q
            return Op("pair", (d.name, lesser_doc(p, q, w, 1, [[a, b + th0] for a, b in vec]),
                               lesser_doc(p, q, w, -1, [[a + th0, b] for a, b in vec])),
                      ISOTOPIC)
        w2, sign2, vec2 = sample()
        return Op("pair", (d.name, lesser_doc(p, q, w, sign, vec),
                           lesser_doc(p, q, w2, sign2, vec2)), open_ok=True)

    def confluence(self, rng, count):
        return Op("confluence", (self.ATLASES[count % len(self.ATLASES)],))

    def brute_range(self, rng, count):
        # The last brute range of every period is the deep one, the
        # heaviest operation of the workload.
        if count % 12 == 11:
            return Op("brute-range", ("twist-even-4", 1 - rng.randint(19, 20)))
        name = self.GREATER[count % len(self.GREATER)]
        return Op("brute-range", (name, self.data[name].tbb - rng.randint(4, 10)))

    def execute(self, op: Op):
        lc = self.lc
        atlas = self.data[op.args[0]].atlas
        if op.kind == "confluence":
            return lc.check_confluence(atlas, self.confluence_budget).ok
        if op.kind == "brute-range":
            tb_min = op.args[1]
            return (lc.brute_mountain_range(atlas, tb_min).entries,
                    lc.mountain_range(atlas, tb_min).entries)
        first, second = lc.make_link(atlas, op.args[1]), lc.make_link(atlas, op.args[2])
        return (lc.isotopic(atlas, first, second).kind,
                lc.closure_equal(atlas, first, second, self.budget).kind)

    def check(self, op: Op, value) -> Outcome:
        if op.kind == "confluence":
            return Outcome() if value else Outcome(wrong=f"{op.args[0]} is not confluent")
        if op.kind == "brute-range":
            brute, exact = value
            if brute != exact:
                return Outcome(wrong=f"brute range of {op.args} differs from mountain_range")
            return Outcome()
        decided, oracle = value
        out = Outcome(verdicts=2, unknown=(decided == UNKNOWN) + (oracle == UNKNOWN))
        # The engine decides twins and greater pairs; random integer and
        # lesser pairs may stay open, on either side.
        if out.unknown and not op.open_ok:
            out.wrong = f"decider {decided}, oracle {oracle} on {op.args!r}"
        elif oracle != UNKNOWN and decided != oracle:
            out.disagreements = 1
            out.wrong = f"decider {decided} vs oracle {oracle} on {op.args!r}"
        elif op.expect is not None and decided != op.expect:
            out.wrong = f"decider {decided}, known answer {op.expect} for {op.args!r}"
        return out


WORKLOADS = {cls.name: cls for cls in (Decide, Ranges, Oracle)}
