"""Brute lesser mountain ranges, the reference answers of ``ranges``.

    python3 brute_ranges.py <src dir> < refs.json

Reads a JSON list of ``[atlas, p, q, tb_min]`` and prints, for each, the
entries of ``brute_lesser_mountain_range`` as ``[rot, tb, multiplicity]``.
"""

import json
import sys

sys.path.insert(0, sys.argv[1])
import legcable  # noqa: E402

out = []
for atlas, p, q, tb_min in json.load(sys.stdin):
    brute = legcable.brute_lesser_mountain_range(legcable.builtin_atlas(atlas), p, q, tb_min)
    out.append([[rot, tb, mult] for (rot, tb), mult in sorted(brute.entries.items())])
json.dump(out, sys.stdout)
