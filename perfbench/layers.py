"""Per-layer metrics read from a traced pass, and what each should move.

Every metric is named ``<workload>.<module>.<function>.<measure>`` after the
workload whose traced pass measures it, so each workload reports the layers
it exercises.  Times are per operation of the pass unless the phase is
``setup`` or ``selfcheck``, which run once.  Which end-to-end metric each
layer should move is listed in ``README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Layer:
    workload: str
    name: str          # module.function[.tag] span, or a counter
    measure: str       # ms, self_ms, calls, errors, per_op, per_call, ratio
    unit: str
    better: str
    phase: str = "ops"
    counter: str = ""  # for per_op / per_call / ratio: the counter read
    suffix: str = ""   # metric name suffix when it is not the measure

    @property
    def metric(self) -> str:
        suffix = self.suffix or self.measure
        if self.measure == "per_op":
            return f"{self.workload}.{self.name}"
        return f"{self.workload}.{self.name}.{suffix}"


def _ms(wl, name, phase="ops"):
    return Layer(wl, name, "ms", "ms" if phase != "ops" else "ms/op", "lower", phase)


def _calls(wl, name):
    return Layer(wl, name, "calls", "1/op", "lower")


SELFCHECKS = (
    "check_twist_mountain_ranges", "check_k5_cable_range", "check_k5_link_table",
    "check_componentwise_witness", "check_lesser_census", "check_positive_window_structure",
    "check_twist_relations", "check_oracle_agreement", "check_structural_invariants",
    "check_confluence_gate",
)

LAYERS = (
    # decide
    _ms("decide", "atlas.make_atlas", phase="setup"),
    _calls("decide", "atlas.normalize"),
    _ms("decide", "atlas.normalize"),
    _calls("decide", "atlas.stabilize"),
    _calls("decide", "atlas.destabilizations"),
    _ms("decide", "links.make_link"),
    Layer("decide", "links.make_link", "errors", "count", "higher", phase="probes"),
    _calls("decide", "links.canonicalize"),
    _ms("decide", "links.canonicalize"),
    _ms("decide", "links.isotopic.greater"),
    _ms("decide", "links.isotopic.integer"),
    _ms("decide", "links.isotopic.lesser"),
    _ms("decide", "links.integer_closure"),
    Layer("decide", "links.integer_closure", "per_call", "1/call", "lower",
          counter="links.integer_closure.states", suffix="states"),
    Layer("decide", "links.integer_closure", "ratio", "ratio", "higher",
          counter="links.integer_closure.complete", suffix="complete_ratio"),
    _ms("decide", "links.componentwise_isotopic"),
    _ms("decide", "links.permutation_realizable"),
    # ranges
    _ms("ranges", "atlas.make_atlas"),
    _calls("ranges", "atlas.normalize"),
    _ms("ranges", "atlas.normalize"),
    _calls("ranges", "atlas.classes_at_tb"),
    _ms("ranges", "atlas.classes_at_tb"),
    _ms("ranges", "atlas.mountain_range"),
    _ms("ranges", "cables.cable_mountain_range"),
    _ms("ranges", "cables.lesser_mountain_range"),
    _ms("ranges", "render.ascii_mountain"),
    _ms("ranges", "render.svg_mountain"),
    Layer("ranges", "render.bytes_out", "per_op", "B/op", "lower",
          counter="render.bytes_out"),
    _ms("ranges", "cli.load_atlas"),
    Layer("ranges", "cli.run", "self_ms", "ms/op", "lower"),
    # oracle
    _ms("oracle", "atlas.make_atlas", phase="setup"),
    _calls("oracle", "atlas.normalize"),
    _calls("oracle", "atlas.destabilizations"),
    _ms("oracle", "oracle.closure_equal"),
    Layer("oracle", "oracle.closure_equal", "ratio", "ratio", "higher",
          counter="oracle.closure_equal.conclusive", suffix="conclusive_ratio"),
    Layer("oracle", "oracle.states_expanded", "per_op", "1/op", "lower",
          counter="oracle.states_expanded"),
    _ms("oracle", "oracle.check_confluence"),
    _ms("oracle", "oracle.brute_mountain_range"),
) + tuple(
    _ms("oracle", f"selfcheck.{check}", phase="selfcheck")
    for check in SELFCHECKS
) + tuple(
    Layer(wl, "trace", "overhead_pct", "%", "lower")
    for wl in ("decide", "ranges", "oracle")
)


def read(layer: Layer, tracer, ops: int, overhead_pct: float) -> float:
    """The value of one layer metric from a finished traced pass."""
    if layer.measure == "overhead_pct":
        return overhead_pct
    calls, incl, self_s, errors = tracer.row(layer.phase, layer.name)
    per = ops if layer.phase == "ops" else 1
    if layer.measure == "ms":
        return incl * 1e3 / per
    if layer.measure == "self_ms":
        return self_s * 1e3 / per
    if layer.measure == "calls":
        return calls / per
    if layer.measure == "errors":
        return errors
    value = tracer.count(layer.phase, layer.counter)
    if layer.measure == "per_op":
        return value / per
    return value / calls if calls else 0.0
