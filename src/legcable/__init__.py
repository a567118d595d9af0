"""legcable: exact classification of Legendrian cable knots and links.

Knot types enter as finite "atlases" (generators with classical invariants
plus stabilization rewrite rules); the package computes invariants, mountain
ranges, and cables in three slope regimes, decides Legendrian isotopy of
cable links with three-valued verdicts, cross-validates the greedy deciders
against a brute-force rewrite-closure oracle, and renders mountain ranges
as ASCII or SVG.
"""

from .atlas import (
    BUILTIN_NAMES,
    Generator,
    Generic,
    KnotAtlas,
    LegClass,
    Named,
    NEG,
    POS,
    RewriteRule,
    RotTb,
    atlas_to_json,
    atlas_to_json_str,
    builtin_atlas,
    class_from_json,
    class_label,
    class_rows,
    class_to_json,
    classes_at,
    classes_at_tb,
    invariants,
    is_equal,
    k_minus_5_atlas,
    make_atlas,
    mountain_range,
    normalize,
    peaks,
    stabilize,
    twist_even_atlas,
    unknot_atlas,
)
from .cables import (
    Regime,
    cable_mountain_range,
    lesser_mountain_range,
    lesser_thresholds,
    regime,
    window_classes,
)
from .errors import EngineError
from .links import (
    DIVIDE,
    GreaterLink,
    IntegerLink,
    LesserLink,
    RULING,
    Verdict,
    canonicalize,
    component_class,
    component_invariants,
    componentwise_isotopic,
    enumerate_nondestab_links,
    isotopic,
    link_label,
    link_to_json,
    make_greater_link,
    make_integer_link,
    make_lesser_link,
    make_link,
    permutation_realizable,
    stabilize_component,
)
from .mountain import MountainRange
from .oracle import (
    SearchBudget,
    brute_cable_mountain_range,
    brute_lesser_mountain_range,
    brute_mountain_range,
    check_confluence,
    closure_equal,
)
from .render import (
    Overlay,
    ascii_mountain,
    ifsurg_overlay,
    json_mountain,
    svg_entries,
    svg_mountain,
)

__version__ = "0.1.0"
