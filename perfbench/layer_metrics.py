"""Per-layer metrics computed from one traced pass.

Names are ``<module>.<function>.<quantity>``: ``calls`` counts spans,
``rows``/``points``/``bytes`` sum the span sizes recorded by the tracer,
``self_s`` sums span duration minus child spans. A layer the workload does
not reach reports 0.
"""

from __future__ import annotations

import numpy as np

PER_LAYER = (
    ("levi.fields_at.calls", "count"),
    ("levi.fields_at.self_s", "s"),
    ("gradient.gradient_vector.calls", "count"),
    ("gradient.gradient_vector.self_s", "s"),
    ("foliation.field_evals_per_node", "evals/node"),
    ("foliation.flow_point.calls", "count"),
    ("foliation.trace_leaf.self_s", "s"),
    ("levi.classify_stratum.calls", "count"),
    ("gradient.gradient_field.rows", "count"),
    ("gradient.gradient_field.self_s", "s"),
    ("gradient.fallback_share", "share"),
    ("homogeneity.flow_level_map_check.self_s", "s"),
    ("homogeneity.rescale_to_level.calls", "count"),
    ("levi.fields_at_many.points", "count"),
    ("levi.fields_at_many.self_s", "s"),
    ("levi.fields_at_many.points_per_s", "1/s"),
    ("levi.levi_scan.self_s", "s"),
    ("levi.ma_from_fields.self_s", "s"),
    ("levi.rank_identity_residual.calls", "count"),
    ("levi.rank_identity_residual.self_s", "s"),
    ("cli._internal_invariants.self_s", "s"),
    ("homogeneity.analyze_weights.self_s", "s"),
    ("homogeneity.verify_weights.self_s", "s"),
    ("potential.evaluate.calls", "count"),
    ("potential.evaluate.self_s", "s"),
    ("sampling.sample_domain.self_s", "s"),
    ("sampling.sample_domain.accept_share", "share"),
    ("sampling.real_grid.self_s", "s"),
    ("sampling.real_grid.bytes", "bytes_computed"),
    ("potential.evaluate_many.points", "count"),
    ("potential.evaluate_many.self_s", "s"),
    ("burns.burns_check.self_s", "s"),
    ("burns._component_identity_residual.self_s", "s"),
    ("cli._write_csv.rows", "count"),
    ("cli._write_csv.self_s", "s"),
    ("cli.cmd_analyze.self_s", "s"),
    ("cli.cmd_trace.self_s", "s"),
    ("cli.cmd_weights.self_s", "s"),
    ("cli.cmd_burns.self_s", "s"),
    ("cli.cmd_suite.self_s", "s"),
    ("potential.parse_potential_file.self_s", "s"),
    ("trace.overhead_share", "share"),
)

# span quantity behind each metric suffix
_SUFFIX = {"calls": "calls", "self_s": "self", "rows": "size", "points": "size", "bytes": "size"}

# the row solves a gradient function performs, for the least-squares fallback share
_ROW_SOLVES = (
    ("gradient.gradient_field", "size"),
    ("gradient.gradient_vector", "calls"),
    ("gradient.complex_gradient", "calls"),
    ("gradient.extended_gradient", "calls"),
)


def _ratio(num, den):
    return float(num) / float(den) if den else 0.0


def compute(tracer):
    """Every PER_LAYER metric except trace.overhead_share, from one tracer."""
    spans = tracer.arrays()
    ids = {name: i for i, name in enumerate(tracer.names)}
    name_id = spans["name_id"]
    parent = spans["parent"]
    parent_id = np.where(parent >= 0, name_id[np.maximum(parent, 0)], -1)

    def select(name):
        return name_id == ids.get(name, -2)

    def total(name, quantity):
        mask = select(name)
        if quantity == "calls":
            return int(np.count_nonzero(mask))
        if quantity == "size":
            return int(spans["size"][mask].sum())
        return float(spans["self"][mask].sum())

    metrics = {}
    for metric, _unit in PER_LAYER:
        span, _, suffix = metric.rpartition(".")
        if suffix in _SUFFIX:
            metrics[metric] = total(span, _SUFFIX[suffix])

    # evaluations of Z made inside trace_leaf, per leaf node produced
    leaf_id = ids.get("foliation.trace_leaf", -2)
    nid = name_id.tolist()
    inside = [False] * len(nid)
    for i, p in enumerate(parent.tolist()):
        if p >= 0:
            inside[i] = inside[p] or nid[p] == leaf_id
    inside_leaf = np.array(inside, dtype=bool)
    evals = np.count_nonzero(inside_leaf & select("gradient.gradient_vector"))
    evals += int(spans["size"][inside_leaf & select("gradient.gradient_field")].sum())
    metrics["foliation.field_evals_per_node"] = _ratio(evals, total("foliation.trace_leaf", "size"))

    gradient_ids = [i for name, i in ids.items() if name.startswith("gradient.")]
    fallbacks = np.count_nonzero(select("numpy.linalg.lstsq") & np.isin(parent_id, gradient_ids))
    rows = sum(total(name, quantity) for name, quantity in _ROW_SOLVES)
    metrics["gradient.fallback_share"] = _ratio(fallbacks, rows)

    in_sampling = select("potential.evaluate_many") & (parent_id == ids.get("sampling.sample_domain", -2))
    metrics["sampling.sample_domain.accept_share"] = _ratio(
        total("sampling.sample_domain", "size"), int(spans["size"][in_sampling].sum())
    )
    metrics["levi.fields_at_many.points_per_s"] = _ratio(
        total("levi.fields_at_many", "size"), total("levi.fields_at_many", "self")
    )
    return metrics
