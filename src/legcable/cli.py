"""Command-line surface: atlases, mountain ranges, cables, isotopy decisions.

Exit codes: 0 on success (including a definite NotIsotopic), 1 when a verdict
comes back Unknown (so scripts can branch on "the classification is silent"),
2 on usage or validation errors, 3 on an internal error (a bug), so that a
crash never reads as Unknown.

``run(argv)`` is the in-process entry point: it returns the exit code instead
of exiting, and builds its argument parser once per process, on the first
call.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import sys
from pathlib import Path

from . import selfcheck
from .atlas import (
    BUILTIN_NAMES,
    MAX_TWIST_EVEN,
    atlas_to_json_str,
    builtin_atlas,
    make_atlas,
    mountain_range,
    peaks,
)
from .cables import Regime, cable_mountain_range, lesser_mountain_range, regime
from .errors import EngineError, MalformedDocument, UnsupportedKind, WrongRegime
from .links import (
    component_invariants,
    componentwise_isotopic,
    enumerate_nondestab_links,
    isotopic,
    link_label,
    make_link,
    permutation_realizable,
)
from .render import ascii_mountain, ifsurg_overlay, json_mountain, svg_mountain

EXIT_OK = 0
EXIT_UNKNOWN = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def load_atlas(spec: str):
    try:
        return builtin_atlas(spec)
    except UnsupportedKind:
        pass
    path = Path(spec)
    try:
        exists = path.exists()
    except OSError as exc:
        # a name longer than the file system allows names no file
        if exc.errno != errno.ENAMETOOLONG:
            raise
        exists = False
    if not exists:
        shown = repr(spec)
        if len(shown) > 80:
            shown = shown[:80] + "..."  # a long value shows only its start
        raise UnsupportedKind(
            f"{shown} is neither a builtin atlas ({', '.join(BUILTIN_NAMES)}, "
            f"twist-even-N[-surgery] for 2 <= N <= {MAX_TWIST_EVEN}) nor an atlas JSON file"
        )
    return make_atlas(_read_json(path.read_text(), "atlas document"))


def _read_json(text: str, what: str):
    """``text`` parsed as JSON; bad syntax or too deep nesting is malformed."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise MalformedDocument(f"malformed {what}: {exc}") from None


def _load_link_doc(atlas, text: str, vec_override: str | None = None):
    if text.startswith("@"):
        text = Path(text[1:]).read_text()
    doc = _read_json(text, "link document")
    if vec_override is not None and isinstance(doc, dict):
        doc["vec"] = _read_json(vec_override, "stabilization vector")
    return make_link(atlas, doc)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _render_range(mr, fmt: str, out: str | None, overlays=None) -> None:
    if fmt == "ascii":
        _emit(ascii_mountain(mr), out)
    elif fmt == "svg":
        _emit(svg_mountain(mr, overlays), out)
    else:
        _emit(json_mountain(mr), out)


def _positive_int(text: str) -> int:
    """argparse type of the count flags ``--budget`` and ``--samples``."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


# Cached because building the tree cost more than most requests it parses;
# sharing it is safe because parsing never mutates it.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="legcable",
        description="Exact classification of Legendrian cable knots and links "
        "over finite knot atlases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, slope=False, tb_min=False, fmt=False, n=False):
        sp.add_argument("--atlas", required=True, help="builtin name or atlas JSON file")
        if slope:
            sp.add_argument("--p", type=int, default=1)
            sp.add_argument("--q", type=int, required=True)
        if n:
            sp.add_argument("--n", type=int, default=2, help="component count")
        if tb_min:
            sp.add_argument("--tb-min", dest="tb_min", type=int, required=True)
        if fmt:
            sp.add_argument("--format", choices=("ascii", "svg", "json"), default="ascii")
            sp.add_argument("--out", default=None, help="write output to a file")
        return sp

    common(sub.add_parser("atlas-show", help="print the atlas interchange document"))
    common(sub.add_parser("peaks", help="list the non-destabilizable classes"))
    common(sub.add_parser("mountain", help="mountain range of the atlas"),
           tb_min=True, fmt=True)
    sp = common(sub.add_parser("cable-mountain", help="mountain range of a cable"),
                slope=True, tb_min=True, fmt=True)
    sp.add_argument("--overlay", action="store_true",
                    help="draw region boundaries for slopes in (0, 1) (SVG only)")
    common(sub.add_parser("enumerate", help="non-destabilizable link bases"),
           slope=True, n=True)

    def link_flags(sp):
        sp.add_argument("--vec", default=None,
                        help="JSON stabilization vector overriding the documents'")
        return sp

    sp = link_flags(common(sub.add_parser("isotopic",
                                          help="decide Legendrian isotopy of two links")))
    sp.add_argument("--budget", type=_positive_int, default=4000,
                    help="node cap for presentation searches")
    sp.add_argument("link1", help="link JSON document or @file")
    sp.add_argument("link2", help="link JSON document or @file")

    sp = link_flags(common(sub.add_parser("componentwise",
                                          help="component-wise isotopy of two links")))
    sp.add_argument("link1")
    sp.add_argument("link2")

    sp = link_flags(common(sub.add_parser("permute",
                                          help="is a component permutation realizable")))
    sp.add_argument("link")
    sp.add_argument("--perm", required=True,
                    help="comma-separated images of components 1..n, e.g. 2,3,1")

    sp = sub.add_parser("selfcheck", help="run the acceptance suite")
    sp.add_argument("--samples", type=_positive_int, default=500,
                    help="randomized instances per regime for the oracle gate")
    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _dispatch(args)
    except (EngineError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        # sys.excepthook prints the traceback as for an uncaught exception,
        # without importing the traceback module on every start-up.
        print("internal error:", file=sys.stderr)
        sys.excepthook(*sys.exc_info())
        return EXIT_INTERNAL


def _dispatch(args) -> int:
    if args.command == "selfcheck":
        failed = 0
        for res in selfcheck.run_all(samples=args.samples):
            status = "PASS" if res.passed else "FAIL"
            failed += 0 if res.passed else 1
            print(f"{status}  {res.name}: {res.detail}")
        print(f"{len(selfcheck.ALL_CHECKS) - failed}/{len(selfcheck.ALL_CHECKS)} criteria passed")
        return EXIT_OK if failed == 0 else EXIT_USAGE

    atlas = load_atlas(args.atlas)

    if args.command == "atlas-show":
        sys.stdout.write(atlas_to_json_str(atlas))
        return EXIT_OK

    if args.command == "peaks":
        for g in peaks(atlas):
            print(f"{g.id}  rot={g.rot} tb={g.tb}")
        return EXIT_OK

    if args.command == "mountain":
        _render_range(mountain_range(atlas, args.tb_min), args.format, args.out)
        return EXIT_OK

    if args.command == "cable-mountain":
        reg = regime(atlas, args.p, args.q)
        if reg is Regime.GREATER:
            mr = cable_mountain_range(atlas, args.p, args.q, args.tb_min)
        elif reg is Regime.NONINTEGER_LESSER:
            mr = lesser_mountain_range(atlas, args.p, args.q, args.tb_min)
        else:
            raise WrongRegime(
                f"slope ({args.p},{args.q}) is {reg.value}; ranges are drawn for greater "
                "and non-integer lesser slopes (use 'enumerate' for integer slopes)"
            )
        overlays = None
        if args.overlay and 0 < args.q < args.p:
            overlays = ifsurg_overlay(args.p, args.q, args.tb_min)
        _render_range(mr, args.format, args.out, overlays)
        return EXIT_OK

    if args.command == "enumerate":
        for link in enumerate_nondestab_links(atlas, args.n, args.p, args.q):
            invs = " ".join(f"({r},{t})" for r, t in component_invariants(atlas, link))
            print(f"{link_label(atlas, link)}  components: {invs}")
        return EXIT_OK

    if args.command == "isotopic":
        l1 = _load_link_doc(atlas, args.link1, args.vec)
        l2 = _load_link_doc(atlas, args.link2, args.vec)
        verdict = isotopic(atlas, l1, l2, node_cap=args.budget)
        print(json.dumps(verdict.to_json(), sort_keys=True, indent=2))
        return EXIT_UNKNOWN if verdict.is_unknown else EXIT_OK

    if args.command == "componentwise":
        l1 = _load_link_doc(atlas, args.link1, args.vec)
        l2 = _load_link_doc(atlas, args.link2, args.vec)
        result = componentwise_isotopic(atlas, l1, l2)
        print(json.dumps({"componentwise_isotopic": result}))
        return EXIT_OK

    if args.command == "permute":
        link = _load_link_doc(atlas, args.link, args.vec)
        perm = [int(x) for x in args.perm.split(",")]
        verdict = permutation_realizable(atlas, link, perm)
        print(json.dumps(verdict.to_json(), sort_keys=True, indent=2))
        return EXIT_UNKNOWN if verdict.is_unknown else EXIT_OK

    raise AssertionError(f"unhandled command {args.command}")


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
