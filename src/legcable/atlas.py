"""Knot atlases: finite rewrite presentations of Legendrian classifications.

An atlas lists named generators with classical invariants (rot, tb) and
rewrite rules that identify stabilizations of one generator with another
class.  A Legendrian isotopy class is either Named(gen, a, b) -- the
generator stabilized a times positively and b times negatively -- or
Generic(rot, tb), a class determined by its invariants alone.  Equality of
classes is equality of rewrite normal forms; every rule strictly decreases
a + b, so normalization terminates.  Normal forms are unique (the rules are
confluent): ``make_atlas`` proves it for every atlas document by the finite
critical-pair check of ``_check_confluent`` and raises NotConfluent
otherwise, and the builtins are confluent by the family lemma of
``twist_even_atlas``, which a test checks.  ``class_rows`` builds each
row from the stabilizations of the row above, canonicalization pushes
stabilizations through normal forms, and the integer decider reads classes
off normal forms; all three are exact because of it.  The oracle's
``check_confluence`` samples it to a fixed depth as an independent check.

``class_rows`` and ``mountain_range`` read one walk, ``_rows``, which walks
each stabilization cone once.  A row's Generic classes are one set of rot
values, and the next row's are those rots moved by +1 and -1, plus the rot
of every Generic that a stabilized Named normal form rewrites to; only the
Named forms go through the rules.  A Generic's stabilization is the Generic
one lattice step down whatever the rules, so this is the walk that
stabilizes every class of a row one at a time, on any rules.  The walk
yields a row as its sorted Named forms and sorted Generic rots:
``class_rows`` builds a Generic per rot, and ``mountain_range`` counts
points and labels straight from the rots.

Every value record is a ``typing.NamedTuple``, none built by
``dataclasses``: Named, Generic, RotTb, Generator and RewriteRule here, and
the ranges, links, verdicts, search budgets, overlays and check results of
the other modules.  A Named never equals a Generic (their lengths differ),
but a Generic equals the plain (rot, tb) tuple or ``RotTb`` with the same
fields, so no set or dict may hold both classes and invariant pairs.
KnotAtlas is the one stateful class: its ``__slots__`` hold its fields and
the indexes its ``__init__`` builds; it compares by its public fields and
does not hash.

Two queries have closed forms that read the rules alone.  Normalization
ends on its start generator or on a rule's target, so the peaks
(non-destabilizable generators) are the generators no rule targets.
A stabilization of sign s moves rot by s, so the s-destabilizations of c
are the classes at the one lattice point (rot(c) - s, tb(c) + 1) whose
s-stabilization is c.

Each atlas keeps a private table from (normal form, sign) to that answer,
filled as questions arrive, so the twisted-copy search of integer-slope
links asks each question once per atlas.  The table is exact because
``normalize`` is deterministic and an atlas is not changed after
construction.  It is absent from equality, ``repr`` and the JSON form, and
``KnotAtlas.replace`` starts a copy with an empty table.
"""

from __future__ import annotations

from itertools import combinations
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, NamedTuple, Optional, Union

from .errors import (
    DOCUMENT_ERRORS,
    DuplicateId,
    InvariantMismatch,
    MetadataInconsistent,
    NotConfluent,
    ParityViolation,
    UnknownGenerator,
    UnsupportedKind,
    checked,
    malformed,
)
from .mountain import MountainRange, check_cutoff, check_rows, tally
from .render import json_array

POS = 1
NEG = -1

SURGERY_VALUES = ("yes", "no", "unknown")


class RotTb(NamedTuple):
    rot: int
    tb: int


class Named(NamedTuple):
    """A generator stabilized ``plus`` times positively, ``minus`` negatively."""

    gen: str
    plus: int = 0
    minus: int = 0


class Generic(NamedTuple):
    """A class determined by its classical invariants."""

    rot: int
    tb: int


LegClass = Union[Named, Generic]


class Generator(NamedTuple):
    id: str
    name: str
    rot: int
    tb: int


class RewriteRule(NamedTuple):
    """Named(src, a, b) with a >= da and b >= db rewrites toward ``dst``.

    ``dst`` is a generator id, or None for the invariant-determined Generic
    class.  Invariant consistency (da + db stabilizations worth of rot/tb
    drop) is enforced at atlas construction.
    """

    src: str
    da: int
    db: int
    dst: Optional[str]


class KnotAtlas:
    """An atlas; treat as immutable after construction.

    Constructing one builds the id, order, rule and surgery indexes and
    checks nothing: ``validate_atlas`` checks the records against those
    indexes, and ``make_atlas`` and every builtin return only what it
    passed.  ``make_atlas`` also proves the rules confluent, so every class
    of a document's atlas has one normal form, as every class of a builtin
    has.  A hand-built atlas is as valid, and as confluent, as its records.

    Two tables start empty: ``_destabs``, the decider's destabilizations per
    (normal form, sign), filled as questions arrive, and ``_oracle``, the
    oracle's table, ``None`` until the oracle's first question and shaped by
    the oracle alone.  They hold answers the public fields determine, so
    equality and ``repr`` ignore them, and ``replace`` starts them afresh.

    ``surgery_distinct`` holds the partial relation "Legendrian surgery on
    these two generators yields distinct contact manifolds"; the relation is
    read family-wise, i.e. it also answers for Named(g, a, b) vs
    Named(h, a, b) with equal stabilization counts.  ``both_signs_determined``
    records that stabilized n-copies whose components have all been
    stabilized both positively and negatively are determined by their
    classical invariants (true for the builtin twist atlases and the
    unknot, unknown in general).
    """

    _FIELDS = (
        "name", "generators", "rules", "tbb", "width_ceiling", "uniformly_thick",
        "surgery_distinct", "sigma_plus", "sigma_minus", "both_signs_determined",
    )
    __slots__ = _FIELDS + (
        "_by_id", "_order", "_rules_by_src", "_surgery", "_destabs", "_oracle",
    )

    def __init__(
        self,
        name: str,
        generators: tuple[Generator, ...],
        rules: tuple[RewriteRule, ...],
        tbb: int,
        width_ceiling: int,
        uniformly_thick: bool,
        surgery_distinct: tuple[tuple[str, str, str], ...] = (),
        sigma_plus: tuple[str, ...] = (),
        sigma_minus: tuple[str, ...] = (),
        both_signs_determined: bool = False,
    ) -> None:
        self.name = name
        self.generators = generators
        self.rules = rules
        self.tbb = tbb
        self.width_ceiling = width_ceiling
        self.uniformly_thick = uniformly_thick
        self.surgery_distinct = surgery_distinct
        self.sigma_plus = sigma_plus
        self.sigma_minus = sigma_minus
        self.both_signs_determined = both_signs_determined
        self._by_id = {g.id: g for g in generators}
        self._order = {g.id: i for i, g in enumerate(generators)}
        self._rules_by_src = {g.id: [] for g in generators}
        for rule in rules:
            self._rules_by_src.setdefault(rule.src, []).append(rule)
        self._surgery = {frozenset((a, b)): value for (a, b, value) in surgery_distinct}
        # (normal form, sign) -> destabilizations, for the decider, filled as
        # questions arrive; the oracle builds its own table at its first question
        self._destabs = {}
        self._oracle = None

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._FIELDS)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._FIELDS)
        return f"KnotAtlas({args})"

    def replace(self, **changes) -> KnotAtlas:
        """A copy with ``changes`` to its public fields, with its indexes
        rebuilt and empty decider and oracle tables; it is not validated."""
        return KnotAtlas(**dict(zip(self._FIELDS, self._values()), **changes))

    def generator(self, gid: str) -> Generator:
        try:
            return self._by_id[gid]
        except KeyError:
            raise UnknownGenerator(f"atlas {self.name!r} has no generator {gid!r}")

    def rules_for(self, gid: str) -> list[RewriteRule]:
        return self._rules_by_src.get(gid, [])

    def surgery_value(self, a: str, b: str) -> str:
        if a == b:
            return "no"  # surgery on one class compared with itself
        return self._surgery.get(frozenset((a, b)), "unknown")


# ---------------------------------------------------------------------------
# Construction and validation


def make_atlas(spec: dict) -> KnotAtlas:
    """Build and validate an atlas from a plain description dict.

    Expected keys: name, generators [{id, name, rot, tb}], rules
    [{src, da, db, dst}] with dst a generator id or "generic", tbb,
    width_ceiling, uniformly_thick, and optionally surgery_distinct
    [{a, b, value}], sigma_plus, sigma_minus, both_signs_determined.
    A missing or mistyped field raises MalformedDocument.  The document is
    read into records first; ``validate_atlas`` then checks them, as it
    checks every builtin, and ``_check_confluent`` proves that its rules give
    every class one normal form.
    """
    try:
        atlas = _atlas_from_spec(spec)
    except DOCUMENT_ERRORS as exc:
        raise malformed("atlas document", exc) from None
    return _check_confluent(validate_atlas(atlas))


def _atlas_from_spec(spec: dict) -> KnotAtlas:
    """The records of an atlas document, each field type-checked, unvalidated."""
    gens = []
    for g in spec.get("generators", []):
        gid = str(g["id"])
        rot, tb = checked(g["rot"], int, "rot"), checked(g["tb"], int, "tb")
        gens.append(Generator(gid, str(g.get("name", gid)), rot, tb))
    rules = []
    for r in spec.get("rules", []):
        src, da, db = str(r["src"]), checked(r["da"], int, "da"), checked(r["db"], int, "db")
        dst = r["dst"]
        rules.append(RewriteRule(src, da, db, None if dst in (None, "generic") else str(dst)))
    tbb = checked(spec["tbb"], int, "tbb")
    return KnotAtlas(
        name=str(spec.get("name", "atlas")),
        generators=tuple(gens),
        rules=tuple(rules),
        tbb=tbb,
        width_ceiling=checked(spec.get("width_ceiling", tbb), int, "width_ceiling"),
        uniformly_thick=checked(spec.get("uniformly_thick", False), bool, "uniformly_thick"),
        surgery_distinct=tuple(
            (str(s["a"]), str(s["b"]), str(s["value"])) for s in spec.get("surgery_distinct", [])
        ),
        sigma_plus=tuple(str(x) for x in spec.get("sigma_plus", [])),
        sigma_minus=tuple(str(x) for x in spec.get("sigma_minus", [])),
        both_signs_determined=checked(
            spec.get("both_signs_determined", False), bool, "both_signs_determined"
        ),
    )


def validate_atlas(atlas: KnotAtlas) -> KnotAtlas:
    """``atlas``, if its records are consistent; else the error of the first fault.

    Generator ids are distinct and every generator has odd rot + tb; every
    rule has a known source, da, db >= 0 with da + db >= 1, and a target
    that is "generic" or a known generator sitting da + db stabilizations
    below its source; there is a generator, tbb is the largest generator
    tb, width_ceiling is at least tbb and equals it on a uniformly thick
    atlas; surgery entries name generators and hold one of SURGERY_VALUES;
    sigma lists name generators.  The checks read the atlas's own id index.
    """
    gens, by_id = atlas.generators, atlas._by_id
    if len(by_id) < len(gens):
        seen = set()
        for g in gens:
            if g.id in seen:
                raise DuplicateId(f"generator id {g.id!r} appears twice")
            seen.add(g.id)
    for g in gens:
        if (g.rot + g.tb) % 2 == 0:
            raise ParityViolation(f"generator {g.id!r} has even rot + tb = {g.rot + g.tb}")

    for rule in atlas.rules:
        src, da, db, dst = rule.src, rule.da, rule.db, rule.dst
        s = by_id.get(src)
        if s is None:
            raise UnknownGenerator(f"rule source {src!r} is not a generator")
        if da < 0 or db < 0 or da + db < 1:
            raise InvariantMismatch(f"rule ({src},{da},{db}) needs da,db >= 0, da+db >= 1")
        if dst is not None:
            d = by_id.get(dst)
            if d is None:
                raise UnknownGenerator(f"rule target {dst!r} is not a generator")
            if d.rot != s.rot + da - db or d.tb != s.tb - da - db:
                raise InvariantMismatch(
                    f"rule ({src},{da},{db})->{dst}: target invariants {(d.rot, d.tb)} "
                    f"differ from {(s.rot + da - db, s.tb - da - db)}"
                )

    if not gens:
        raise InvariantMismatch("an atlas needs at least one generator")
    tbb, width_ceiling = atlas.tbb, atlas.width_ceiling
    top = max(g.tb for g in gens)
    if tbb != top:
        raise MetadataInconsistent(f"tbb={tbb} but the maximal generator tb is {top}")
    if atlas.uniformly_thick and width_ceiling != tbb:
        raise MetadataInconsistent(
            f"uniformly thick atlases must have width_ceiling == tbb, "
            f"got {width_ceiling} != {tbb}"
        )
    if width_ceiling < tbb:
        raise MetadataInconsistent(f"width_ceiling {width_ceiling} below tbb {tbb}")

    for a, b, value in atlas.surgery_distinct:
        if a not in by_id or b not in by_id:
            entry = {"a": a, "b": b, "value": value}
            raise UnknownGenerator(f"surgery_distinct names unknown generator in {entry}")
        if value not in SURGERY_VALUES:
            raise InvariantMismatch(f"surgery_distinct value {value!r} not in {SURGERY_VALUES}")

    for sig in ("sigma_plus", "sigma_minus"):
        for gid in getattr(atlas, sig):
            if gid not in by_id:
                raise UnknownGenerator(f"{sig} names unknown generator {gid!r}")
    return atlas


def _check_confluent(atlas: KnotAtlas) -> KnotAtlas:
    """``atlas``, if every class has one rewrite normal form; else NotConfluent.

    Every rule lowers a + b, so rewriting terminates, and every rewrite is
    at the root and still applies after further stabilizations, which it
    commutes with.  So two one-step reducts of a class differ only where two
    rules of one source both apply, and each such pair is a stabilization of
    the pair at its critical point Named(src, max da, max db).  By Newman's
    lemma the rules are confluent exactly when every critical pair joins
    (Knuth-Bendix; Baader-Nipkow, Term Rewriting and All That, 1998), and as
    ``normalize`` is deterministic a pair joins exactly when its two reducts
    normalize alike.  ``atlas`` must have passed ``validate_atlas``.
    """
    for src, rules in atlas._rules_by_src.items():
        for r1, r2 in combinations(rules, 2):
            point = Named(src, max(r1.da, r2.da), max(r1.db, r2.db))
            forms = [
                normalize(atlas, Generic(*invariants(atlas, point)) if r.dst is None
                          else Named(r.dst, point.plus - r.da, point.minus - r.db))
                for r in (r1, r2)
            ]
            if forms[0] != forms[1]:
                rule1, rule2 = (f"({r.src},{r.da},{r.db})->{r.dst or 'generic'}" for r in (r1, r2))
                raise NotConfluent(
                    f"rules {rule1} and {rule2} of generator {src!r} diverge at "
                    f"{class_label(atlas, point)}: normal forms "
                    f"{class_label(atlas, forms[0])} and {class_label(atlas, forms[1])}"
                )
    return atlas


def ceil_div(q: int, p: int) -> int:
    return -((-q) // p)


def twist_even_atlas(n: int, surgery: bool = False) -> KnotAtlas:
    """Atlas of the negative even twist knot with 2n crossings, n >= 2.

    Peaks P1..Pl at (0, 1) with l = ceil(n^2/2); persistent boundary edge
    families R1..Rk at (1, 0) and L1..Lk at (-1, 0) with k = ceil(n/2).
    A positive stabilization of peak Pi lands on the right-edge base Rj and
    a negative one on the left-edge base Lj, with j = (i - 1) mod k + 1 (the
    maps sigma_plus and sigma_minus); one further stabilization of the wrong
    sign pushes an edge class into the invariant-determined interior.
    ``surgery`` marks peak pairs as surgery-distinct, which is the
    hypothesis needed for cables with slope in (0, 1).

    The rules are confluent for every n, with or without ``surgery``, which
    changes no rule: each peak's only critical pair is at Pi+1-1, where
    Rj+0-1 and Lj+1-0 both rewrite to the Generic (0,-1), and each edge
    generator has one rule.  (The unknot's and k-minus-5's generators meet
    the same way, at +1-1 on one Generic.)  So the builtins skip
    ``_check_confluent``, which a test runs on every builtin.

    Built straight from its records, with no document in between; they go
    through ``validate_atlas`` as a document's records do.
    """
    if n < 2:
        raise UnsupportedKind(f"twist-even atlas needs n >= 2, got {n}")
    l = ceil_div(n * n, 2)
    k = ceil_div(n, 2)
    ps = [f"P{i}" for i in range(1, l + 1)]
    rs = [f"R{j}" for j in range(1, k + 1)]
    ls = [f"L{j}" for j in range(1, k + 1)]
    sigma_plus = tuple(rs[i % k] for i in range(l))
    sigma_minus = tuple(ls[i % k] for i in range(l))
    generators = (
        [Generator(p, p, 0, 1) for p in ps]
        + [Generator(r, r, 1, 0) for r in rs]
        + [Generator(e, e, -1, 0) for e in ls]
    )
    rules = (
        [RewriteRule(p, 1, 0, r) for p, r in zip(ps, sigma_plus)]
        + [RewriteRule(p, 0, 1, e) for p, e in zip(ps, sigma_minus)]
        + [RewriteRule(r, 0, 1, None) for r in rs]
        + [RewriteRule(e, 1, 0, None) for e in ls]
    )
    distinct = [(a, b, "yes") for a, b in combinations(rs + ls, 2)]
    if surgery:
        distinct += [(a, b, "yes") for a, b in combinations(ps, 2)]
    return validate_atlas(KnotAtlas(
        name=f"twist-even-{n}" + ("-surgery" if surgery else ""),
        generators=tuple(generators),
        rules=tuple(rules),
        tbb=1,
        width_ceiling=1,
        uniformly_thick=True,
        surgery_distinct=tuple(distinct),
        sigma_plus=sigma_plus,
        sigma_minus=sigma_minus,
        both_signs_determined=True,
    ))


def unknot_atlas() -> KnotAtlas:
    """The unknot: a single peak at (0, -1), everything below is generic."""
    return validate_atlas(KnotAtlas(
        name="unknot",
        generators=(Generator("U", "U", 0, -1),),
        rules=(RewriteRule("U", 1, 0, None), RewriteRule("U", 0, 1, None)),
        tbb=-1,
        width_ceiling=-1,
        uniformly_thick=False,
        both_signs_determined=True,
    ))


def k_minus_5_atlas() -> KnotAtlas:
    """The -5 twist knot: two peaks A, B at (0, -3) that merge after one stab."""
    return validate_atlas(KnotAtlas(
        name="k-minus-5",
        generators=(Generator("A", "A", 0, -3), Generator("B", "B", 0, -3)),
        rules=(
            RewriteRule("A", 1, 0, None),
            RewriteRule("A", 0, 1, None),
            RewriteRule("B", 1, 0, None),
            RewriteRule("B", 0, 1, None),
        ),
        tbb=-3,
        width_ceiling=-3,
        uniformly_thick=True,
        surgery_distinct=(("A", "B", "unknown"),),
    ))


# The largest N of a builtin twist-even-N atlas.  The build grows as N^2 and
# its surgery relation as N^4 (twist-even-48-surgery: 1.2-3.5 s and 240-450
# MB on a 2-vCPU host); a larger name raises UnsupportedKind instead of
# running for minutes.
MAX_TWIST_EVEN = 48


def builtin_atlas(kind: str) -> KnotAtlas:
    """Builtin atlases by name: unknot, k-minus-5, and twist-even-N[-surgery]
    for 2 <= N <= MAX_TWIST_EVEN."""
    if kind == "unknot":
        return unknot_atlas()
    if kind == "k-minus-5":
        return k_minus_5_atlas()
    if kind.startswith("twist-even-"):
        rest = kind[len("twist-even-"):]
        surgery = rest.endswith("-surgery")
        if surgery:
            rest = rest[: -len("-surgery")]
        if rest.isdecimal():
            # the length first: int() of a long numeral is slow or refused
            if len(rest) > 4 or int(rest) > MAX_TWIST_EVEN:
                raise UnsupportedKind(
                    f"builtin twist-even-N atlases have N <= {MAX_TWIST_EVEN}, got {kind!r}"
                )
            if int(rest) >= 2:
                return twist_even_atlas(int(rest), surgery)
    raise UnsupportedKind(f"no builtin atlas named {kind!r}")


BUILTIN_NAMES = ("unknot", "k-minus-5", "twist-even-2", "twist-even-3", "twist-even-4")


# ---------------------------------------------------------------------------
# Core operations


def invariants(atlas: KnotAtlas, c: LegClass) -> RotTb:
    if isinstance(c, Generic):
        return RotTb(c.rot, c.tb)
    g = atlas.generator(c.gen)
    return RotTb(g.rot + c.plus - c.minus, g.tb - c.plus - c.minus)


def normalize(atlas: KnotAtlas, c: LegClass) -> LegClass:
    """Apply rewrite rules until no rule triggers; Generic is already normal.

    Each step is one lookup: every generator id has a (maybe empty) rule
    list, so a miss means an unknown generator.
    """
    rules_by_src = atlas._rules_by_src
    while isinstance(c, Named):
        gen, plus, minus = c
        rules = rules_by_src.get(gen)
        if rules is None:
            atlas.generator(gen)  # raises UnknownGenerator
        for rule in rules:
            if plus >= rule.da and minus >= rule.db:
                if rule.dst is None:
                    g = atlas._by_id[gen]
                    return Generic(g.rot + plus - minus, g.tb - plus - minus)
                c = Named(rule.dst, plus - rule.da, minus - rule.db)
                break
        else:
            return c
    return c


def check_stabilization(sign: int, count: int) -> None:
    """Raise InvariantMismatch unless sign is +1 or -1 and count >= 0."""
    if sign not in (POS, NEG):
        raise InvariantMismatch(f"sign must be +1 or -1, got {sign!r}")
    if count < 0:
        raise InvariantMismatch(f"count must be >= 0, got {count}")


def stabilize(atlas: KnotAtlas, c: LegClass, sign: int, count: int = 1) -> LegClass:
    """Stabilize ``count`` times with ``sign`` (+1 or -1), then normalize."""
    check_stabilization(sign, count)
    if isinstance(c, Generic):
        return Generic(c.rot + sign * count, c.tb - count)
    if sign == POS:
        return normalize(atlas, Named(c.gen, c.plus + count, c.minus))
    return normalize(atlas, Named(c.gen, c.plus, c.minus + count))


def is_equal(atlas: KnotAtlas, c1: LegClass, c2: LegClass) -> bool:
    """Equality of normal forms."""
    return normalize(atlas, c1) == normalize(atlas, c2)


def class_key(atlas: KnotAtlas, c: LegClass) -> tuple:
    """Deterministic sort/identity key of ``c``, which must be a normal form."""
    if isinstance(c, Named):
        return (0, atlas._order[c.gen], c.plus, c.minus)
    return (1, c.rot, c.tb)


def class_label(atlas: KnotAtlas, c: LegClass) -> str:
    """Display name of ``c``, which must be a normal form."""
    if isinstance(c, Generic):
        return f"({c.rot},{c.tb})"
    return named_label(atlas.generator(c.gen).name, c.plus, c.minus)


def named_label(name: str, plus: int, minus: int) -> str:
    """``name+plus-minus``, the label of a stabilized class; ``name`` when unstabilized."""
    if plus == 0 and minus == 0:
        return name
    return f"{name}+{plus}-{minus}"


def _forms_at(atlas: KnotAtlas, rot: int, tb: int) -> Iterator[LegClass]:
    """The normal form of each generator's stabilization at (rot, tb), in
    generator order: Named(g, a, b) with a + b = tb(g) - tb and a - b =
    rot - rot(g), for each generator where a, b >= 0 solve both."""
    for g in atlas.generators:
        total, diff = g.tb - tb, rot - g.rot
        if total >= abs(diff) and (total + diff) % 2 == 0:
            yield normalize(atlas, Named(g.id, (total + diff) // 2, (total - diff) // 2))


def _distinct(atlas: KnotAtlas, forms: Iterable[LegClass]) -> list[LegClass]:
    """The distinct normal forms among ``forms``, sorted by ``class_key``."""
    return sorted(set(forms), key=lambda c: class_key(atlas, c))


def classes_at_tb(atlas: KnotAtlas, tb: int) -> list[LegClass]:
    """All distinct classes of the atlas at one tb level, sorted.

    Walks the stabilizations of every generator down to ``tb``, so the level
    may lie at most MAX_ROWS - 1 rows below the peak row.
    """
    check_rows(atlas.tbb, tb)
    return _distinct(atlas, (
        normalize(atlas, Named(g.id, a, g.tb - tb - a))
        for g in atlas.generators
        for a in range(g.tb - tb + 1)
    ))


def class_rows(
    atlas: KnotAtlas, tb_min: int, tb_max: Optional[int] = None
) -> list[tuple[int, list[LegClass]]]:
    """The rows (tb, classes_at_tb(atlas, tb)) from tb_max down to tb_min.

    tb_max defaults to the peak row.  Below the top row the rows form a
    stabilization cone: row tb - 1 is the set of stabilize(c, +1) and
    stabilize(c, -1) for the classes c of row tb, plus Named(g) for every
    generator g with g.tb = tb - 1 (a normal form, as every rule needs a
    stabilization).  The rows come from ``_rows``, the one walk, as its
    Named forms followed by a Generic per rot; that walk is the per-class
    one, so the two give the same rows on any rules, and as normal forms are
    unique (``make_atlas`` proves it) both equal ``classes_at_tb``.  Each
    row is sorted by ``class_key``: its Named forms, then its Generic
    classes by rot.  Empty when tb_min lies above the top row; TooManyRows
    when there would be more than MAX_ROWS rows.
    """
    tb_max = atlas.tbb if tb_max is None else tb_max
    if tb_min > tb_max:
        return []
    check_rows(tb_max, tb_min)
    return [
        (tb, named + [Generic(r, tb) for r in rots])
        for tb, named, rots in _rows(atlas, tb_min, tb_max)
    ]


def _rows(
    atlas: KnotAtlas, tb_min: int, tb_max: int
) -> Iterator[tuple[int, list[Named], list[int]]]:
    """(tb, Named forms, Generic rots) of each row from tb_max down to tb_min,
    both sorted as ``class_key`` sorts them: the rot-set walk of the module
    docstring.  The caller checks the number of rows."""
    row = classes_at_tb(atlas, tb_max)
    named = [c for c in row if isinstance(c, Named)]
    rots = [c.rot for c in row if isinstance(c, Generic)]
    yield tb_max, named, rots
    order = atlas._order
    born: dict[int, list[LegClass]] = {}
    for g in atlas.generators:
        if tb_min <= g.tb < tb_max:
            born.setdefault(g.tb, []).append(Named(g.id))
    for tb in range(tb_max - 1, tb_min - 1, -1):
        found = set(born.get(tb, ()))
        reached = {r + 1 for r in rots} | {r - 1 for r in rots}
        for gen, plus, minus in named:
            for c in (normalize(atlas, Named(gen, plus + 1, minus)),
                      normalize(atlas, Named(gen, plus, minus + 1))):
                if isinstance(c, Named):
                    found.add(c)
                else:
                    reached.add(c.rot)
        # sorted, never in set order: the row is the same under every hash seed
        named = sorted(found, key=lambda c: (order[c.gen], c.plus, c.minus))
        rots = sorted(reached)
        yield tb, named, rots


def classes_at(atlas: KnotAtlas, rot: int, tb: int) -> list[LegClass]:
    """All distinct classes of the atlas at one lattice point, sorted: the
    normal forms of the generators' stabilizations there."""
    return _distinct(atlas, _forms_at(atlas, rot, tb))


def holds(atlas: KnotAtlas, c: Generic) -> bool:
    """Whether ``c`` is in ``classes_at`` its lattice point: some generator's
    stabilization there normalizes to it.  Stops at the first that does."""
    return c in _forms_at(atlas, c.rot, c.tb)


def peaks(atlas: KnotAtlas) -> list[Generator]:
    """Generators that are not the image of any stabilization: no rule targets them."""
    targets = {rule.dst for rule in atlas.rules}
    return [g for g in atlas.generators if g.id not in targets]


def mountain_range(atlas: KnotAtlas, tb_min: int) -> MountainRange:
    """Multiplicities of distinct classes per (rot, tb) down to tb_min.

    The rows of ``_rows`` go to ``mountain.tally`` as (point, label) pairs,
    each row's Named forms first and then its Generic rots, with no class
    record built for a Generic.  That is the row order of ``class_rows``, so
    the labels of a point keep generator order (P1, P2, ..., P10, not string
    order), and the range is truncated exactly when its cutoff row is
    occupied.
    """
    check_cutoff(tb_min, atlas.tbb)
    by_id = atlas._by_id

    def labelled():
        for tb, named, rots in _rows(atlas, tb_min, atlas.tbb):
            for gen, plus, minus in named:
                g = by_id[gen]
                yield (g.rot + plus - minus, tb), named_label(g.name, plus, minus)
            for r in rots:
                yield (r, tb), f"({r},{tb})"

    return tally(labelled(), tb_min)


def destabilizations(atlas: KnotAtlas, c: LegClass, sign: int) -> list[LegClass]:
    """Classes at (rot(c) - sign, tb(c) + 1) whose ``sign``-stabilization equals ``c``.

    Answered once per atlas and (normal form, sign); a normal form ``c`` is
    then one lookup.
    """
    table = atlas._destabs
    found = table.get((c, sign))
    if found is None:
        c = normalize(atlas, c)
        found = table.get((c, sign))
        if found is None:
            rot, tb = invariants(atlas, c)
            found = table[(c, sign)] = tuple(
                cand for cand in classes_at(atlas, rot - sign, tb + 1)
                if stabilize(atlas, cand, sign, 1) == c
            )
    return list(found)


# ---------------------------------------------------------------------------
# Breadth-first search: the one loop behind links.integer_closure, the
# meeting searches of links.isotopic's integer clause and of
# oracle.closure_equal, and the oracle's brute_* ranges


class SearchBudget(NamedTuple):
    """Caps for closure searches; exceeding them yields Unknown, never a guess."""

    depth: int = 64
    node_cap: int = 50000


def orbit(atlas: KnotAtlas, state, moves, budget: SearchBudget, stop=()):
    """(parents map, fully-explored flag, first state met in ``stop`` or None).

    The search ends at the first state it discovers that lies in ``stop``
    (at once if ``state`` does), with the flag False; up to that state it
    discovers the same states in the same order, with the same parents, as
    the search without ``stop``.
    """
    parents = {state: None}
    if state in stop:
        return parents, False, state
    frontier = [state]
    complete = True
    for _ in range(budget.depth):
        if not frontier:
            break
        nxt = []
        for s in frontier:
            for m in moves(atlas, s):
                if m in parents:
                    continue
                if len(parents) >= budget.node_cap:
                    complete = False
                    continue
                parents[m] = s
                if m in stop:
                    return parents, False, m
                nxt.append(m)
        frontier = nxt
    return parents, complete and not frontier, None


# ---------------------------------------------------------------------------
# Interchange format


def class_to_json(c: LegClass) -> dict:
    if isinstance(c, Named):
        return {"gen": c.gen, "plus": c.plus, "minus": c.minus}
    return {"rot": c.rot, "tb": c.tb}


def class_from_json(doc: dict) -> LegClass:
    """Parse a class document; a negative stabilization count is malformed."""
    try:
        if "gen" in doc:
            plus, minus = doc.get("plus", 0), doc.get("minus", 0)
            c = Named(str(doc["gen"]), checked(plus, int, "plus"), checked(minus, int, "minus"))
            if c.plus < 0 or c.minus < 0:
                raise ValueError(f"stabilization counts must be >= 0, got {doc}")
            return c
        return Generic(checked(doc["rot"], int, "rot"), checked(doc["tb"], int, "tb"))
    except DOCUMENT_ERRORS as exc:
        raise malformed("class document", exc) from None


def atlas_to_json(atlas: KnotAtlas) -> dict:
    return {
        "name": atlas.name,
        "generators": [
            {"id": g.id, "name": g.name, "rot": g.rot, "tb": g.tb}
            for g in atlas.generators
        ],
        "rules": [
            {"src": r.src, "da": r.da, "db": r.db, "dst": r.dst if r.dst else "generic"}
            for r in atlas.rules
        ],
        "tbb": atlas.tbb,
        "width_ceiling": atlas.width_ceiling,
        "uniformly_thick": atlas.uniformly_thick,
        "surgery_distinct": [
            {"a": a, "b": b, "value": v} for (a, b, v) in atlas.surgery_distinct
        ],
        "sigma_plus": list(atlas.sigma_plus),
        "sigma_minus": list(atlas.sigma_minus),
        "both_signs_determined": atlas.both_signs_determined,
    }


def atlas_to_json_str(atlas: KnotAtlas) -> str:
    """Byte-stable serialization: ``json.dumps(atlas_to_json(atlas),
    sort_keys=True, indent=2)`` and a newline.

    Written from one template per generator, rule and surgery entry, keys in
    sorted order, without the standard library's indenting encoder, which
    runs in pure Python.  Strings go through the string encoder that
    ``json.dumps`` uses, so escaping is unchanged.
    """
    enc = encode_basestring_ascii
    gens = [
        f'{{\n      "id": {enc(g.id)},\n      "name": {enc(g.name)},\n'
        f'      "rot": {g.rot},\n      "tb": {g.tb}\n    }}'
        for g in atlas.generators
    ]
    rules = [
        f'{{\n      "da": {r.da},\n      "db": {r.db},\n'
        f'      "dst": {enc(r.dst if r.dst else "generic")},\n      "src": {enc(r.src)}\n    }}'
        for r in atlas.rules
    ]
    surgery = [
        f'{{\n      "a": {enc(a)},\n      "b": {enc(b)},\n      "value": {enc(v)}\n    }}'
        for (a, b, v) in atlas.surgery_distinct
    ]
    return (
        f'{{\n  "both_signs_determined": {_json_bool(atlas.both_signs_determined)},\n'
        f'  "generators": {json_array(gens, "  ")},\n'
        f'  "name": {enc(atlas.name)},\n'
        f'  "rules": {json_array(rules, "  ")},\n'
        f'  "sigma_minus": {json_array(list(map(enc, atlas.sigma_minus)), "  ")},\n'
        f'  "sigma_plus": {json_array(list(map(enc, atlas.sigma_plus)), "  ")},\n'
        f'  "surgery_distinct": {json_array(surgery, "  ")},\n'
        f'  "tbb": {atlas.tbb},\n'
        f'  "uniformly_thick": {_json_bool(atlas.uniformly_thick)},\n'
        f'  "width_ceiling": {atlas.width_ceiling}\n}}\n'
    )


def _json_bool(value: bool) -> str:
    return "true" if value else "false"
