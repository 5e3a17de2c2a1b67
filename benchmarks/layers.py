"""Which postcast bindings the traced run wraps, and the per-layer metrics.

Every target is the name a caller bound the function to, so the wrapper
sits exactly where that caller looks it up: the sampler calls
``postcast.sampler.distance``, the conv net calls
``postcast.denoisers.correlate2d_clamped``, the CLI calls
``postcast.cli.read_grid``.

Normalisation.  Spans carry a run id ``<phase>-<n>``: ``setup`` (building
the dataset and priors), ``load`` (one traced operation of the timed loop)
or ``score`` (the ``eval`` call).  A time or count is summed over the first
phase, in the order load, setup, score, in which that layer ran at all, and
divided by the number of traced units of that phase (operations, set-ups or
eval calls).  The ``*_per_step`` style counts divide instead by the "inner
unit" of the loop: a sampler step where steps ran, otherwise a training
sample (one ``denoiser_loss_and_grads`` call).
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from spans import Target, self_times

PHASES = ("load", "setup", "score")


def _grid_bytes(shape) -> int:
    h, w = shape
    return 12 + 4 * h * w


def _bytes_read(args, result):
    return "gridio.bytes_read", _grid_bytes(result.shape)


def _bytes_written(args, result):
    return "gridio.bytes_written", _grid_bytes(args[1].shape)


def _array_bytes(args, result):
    arrays = [a for a in args if isinstance(a, np.ndarray)] + [result]
    return "kernel.bytes_moved_computed", sum(a.nbytes for a in arrays)


_PRIMITIVES = (
    ("correlate2d_clamped", "kernel.correlate"),
    ("correlate2d_clamped_adjoint", "kernel.adjoint"),
    ("correlate2d_clamped_weight_grad", "kernel.weight_grad"),
)

TARGETS = (
    Target("postcast.cli", "load_config", "config.load_config"),
    Target("postcast.cli", "_load_prior", "cli.prior_load"),
    Target("postcast.cli", "read_grid", "gridio.read_grid", amount=_bytes_read),
    Target("postcast.cli", "write_grid", "gridio.write_grid", amount=_bytes_written),
    Target("postcast.cli", "write_trace_csv", "gridio.write_trace_csv"),
    Target("postcast.cli", "write_kernel_csv", "gridio.write_kernel_csv"),
    Target("postcast.cli", "postcast_deblur", "sampler.postcast_deblur"),
    Target("postcast.cli", "generate_fields", "synthetic.generate_fields"),
    Target("postcast.cli", "plant_blur", "synthetic.plant_blur"),
    Target("postcast.cli", "fit_gmm_prior", "synthetic.fit_gmm_prior"),
    Target("postcast.synthetic", "_kmeans", "synthetic.kmeans"),
    Target("postcast.cli", "train_conv_denoiser", "denoisers.train"),
    Target("postcast.denoisers", "denoiser_loss_and_grads", "denoisers.loss_and_grads"),
    Target("postcast.sampler", "guided_reverse_step", "sampler.step"),
    Target("postcast.denoisers", "GaussianMixtureModel.predict_noise",
           "denoisers.gmm_predict_noise"),
    Target("postcast.denoisers", "ConvDenoiser.predict_noise", "denoisers.conv_predict_noise"),
    Target("postcast.sampler", "estimate_x0", "diffusion.estimate_x0"),
    Target("postcast.sampler", "posterior_stats", "diffusion.posterior_stats"),
    Target("postcast.sampler", "distance", "kernel.distance"),
    Target("postcast.sampler", "grad_wrt_field", "kernel.grad_wrt_field"),
    Target("postcast.sampler", "grad_wrt_kernel", "kernel.grad_wrt_kernel"),
    *(
        Target(owner, attr, name, amount=_array_bytes)
        for owner in ("postcast.kernel", "postcast.denoisers")
        for attr, name in _PRIMITIVES
    ),
    Target("postcast.fields", "Field.__post_init__", "fields.construct", kind="event"),
)

REBLUR_SPANS = ("kernel.distance", "kernel.grad_wrt_field", "kernel.grad_wrt_kernel")

#: metric -> (how, span or event names).  "incl" sums span durations, "self"
#: sums self times, "calls" counts spans, "amount" sums event amounts.
_PER_UNIT = {
    "sampler.step_self_s": ("self", ("sampler.step",)),
    "sampler.step_s": ("incl", ("sampler.step",)),
    "sampler.steps": ("calls", ("sampler.step",)),
    "denoisers.gmm_predict_noise_s": ("incl", ("denoisers.gmm_predict_noise",)),
    "denoisers.gmm_predict_noise_calls": ("calls", ("denoisers.gmm_predict_noise",)),
    "denoisers.conv_predict_noise_s": ("incl", ("denoisers.conv_predict_noise",)),
    "denoisers.conv_predict_noise_calls": ("calls", ("denoisers.conv_predict_noise",)),
    "denoisers.loss_and_grads_s": ("incl", ("denoisers.loss_and_grads",)),
    "denoisers.loss_and_grads_calls": ("calls", ("denoisers.loss_and_grads",)),
    "kernel.distance_s": ("incl", ("kernel.distance",)),
    "kernel.distance_calls": ("calls", ("kernel.distance",)),
    "kernel.grad_wrt_field_s": ("incl", ("kernel.grad_wrt_field",)),
    "kernel.grad_wrt_field_calls": ("calls", ("kernel.grad_wrt_field",)),
    "kernel.grad_wrt_kernel_s": ("incl", ("kernel.grad_wrt_kernel",)),
    "kernel.grad_wrt_kernel_calls": ("calls", ("kernel.grad_wrt_kernel",)),
    "kernel.bytes_moved_computed": ("amount", ("kernel.bytes_moved_computed",)),
    "diffusion.estimate_x0_s": ("incl", ("diffusion.estimate_x0",)),
    "diffusion.posterior_stats_s": ("incl", ("diffusion.posterior_stats",)),
    "synthetic.generate_fields_s": ("incl", ("synthetic.generate_fields",)),
    "synthetic.plant_blur_s": ("incl", ("synthetic.plant_blur",)),
    "synthetic.kmeans_s": ("incl", ("synthetic.kmeans",)),
    "gridio.read_grid_s": ("incl", ("gridio.read_grid",)),
    "gridio.write_grid_s": ("incl", ("gridio.write_grid",)),
    "gridio.write_trace_csv_s": ("incl", ("gridio.write_trace_csv",)),
    "gridio.write_kernel_csv_s": ("incl", ("gridio.write_kernel_csv",)),
    "gridio.bytes_read": ("amount", ("gridio.bytes_read",)),
    "gridio.bytes_written": ("amount", ("gridio.bytes_written",)),
    "config.load_config_s": ("incl", ("config.load_config",)),
    "cli.prior_load_s": ("incl", ("cli.prior_load",)),
    "cli.self_s": ("self", ("cli.main.gen", "cli.main.fit-prior", "cli.main.train",
                            "cli.main.deblur", "cli.main.eval")),
    "metrics.eval_s": ("incl", ("cli.main.eval",)),
}

#: metric -> names counted per inner unit (sampler step or training sample).
_PER_INNER = {
    "kernel.correlate_calls": ("calls", ("kernel.correlate",)),
    "kernel.adjoint_calls": ("calls", ("kernel.adjoint",)),
    "kernel.weight_grad_calls": ("calls", ("kernel.weight_grad",)),
    "fields.constructions_per_step": ("amount", ("fields.construct",)),
}

LAYER_METRICS = (
    tuple(_PER_UNIT)
    + tuple(_PER_INNER)
    + (
        "kernel.residuals_per_step",
        "synthetic.em_s",
        "sampler.step_accounted_ratio",
        "trace.overhead_ratio",
    )
)


def layer_unit(metric: str) -> str:
    """Unit of a per-layer metric, as listed in BENCHMARK.json."""
    if metric in _PER_INNER or metric == "kernel.residuals_per_step":
        return "count/step"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_s"):
        return "s/unit"
    if metric.startswith("gridio.bytes") or metric == "kernel.bytes_moved_computed":
        return "B/unit"
    return "count/unit"


def _phase(run_id: str) -> str:
    return run_id.split("-", 1)[0]


def layer_metrics(spans, events, units: dict, overhead_ratio: float) -> dict:
    """Per-layer metrics from one traced run.

    ``units`` maps a phase to how many traced units it ran (operations,
    set-ups, eval calls).
    """
    selfs = self_times(spans)
    by_id = {s.span_id: s for s in spans}
    by_name = defaultdict(list)
    for x in list(spans) + list(events):
        by_name[x.name].append(x)

    def value(how, xs) -> float:
        if how == "incl":
            return sum(s.duration for s in xs)
        if how == "self":
            return sum(selfs[s.span_id] for s in xs)
        if how == "calls":
            return float(len(xs))
        return float(sum(e.amount for e in xs))

    def per_unit(how, names) -> float:
        xs = [x for n in names for x in by_name.get(n, ())]
        for phase in PHASES:
            chosen = [x for x in xs if _phase(x.run_id) == phase]
            if chosen:
                return value(how, chosen) / units[phase]
        return 0.0

    out = {metric: per_unit(how, names) for metric, (how, names) in _PER_UNIT.items()}
    # k-means runs inside the fit, so both land in the same phase.
    out["synthetic.em_s"] = (
        per_unit("incl", ("synthetic.fit_gmm_prior",)) - out["synthetic.kmeans_s"]
    )

    def in_loop(name):
        return [s for s in by_name.get(name, ()) if _phase(s.run_id) == "load"]

    steps = in_loop("sampler.step")
    inner = steps or in_loop("denoisers.loss_and_grads")
    ancestor = _ancestor_finder(by_id, {s.span_id for s in inner})
    for metric, (how, names) in _PER_INNER.items():
        xs = [
            x for n in names for x in by_name.get(n, ())
            if ancestor(x.parent_id if how == "amount" else x.span_id) is not None
        ]
        out[metric] = value(how, xs) / len(inner) if inner else 0.0

    residuals = [
        s for s in in_loop("kernel.correlate")
        if s.parent_id is not None and by_id[s.parent_id].name in REBLUR_SPANS
    ]
    out["kernel.residuals_per_step"] = len(residuals) / len(steps) if steps else 0.0

    # Each step's self time plus the full time of its direct children adds
    # back up to the step time when the spans nest properly.
    step_ids = {s.span_id for s in steps}
    children = sum(s.duration for s in spans if s.parent_id in step_ids)
    step_total = value("incl", steps)
    out["sampler.step_accounted_ratio"] = (
        (value("self", steps) + children) / step_total if step_total > 0 else 0.0
    )
    out["trace.overhead_ratio"] = overhead_ratio
    return out


def _ancestor_finder(by_id: dict, wanted: set):
    """Returns f(span_id) -> nearest ancestor-or-self id in ``wanted``, or None."""
    memo = {}

    def find(span_id):
        path = []
        cur = span_id
        result = None
        while cur is not None:
            if cur in memo:
                result = memo[cur]
                break
            if cur in wanted:
                result = cur
                break
            path.append(cur)
            cur = by_id[cur].parent_id if cur in by_id else None
        for p in path:
            memo[p] = result
        return result

    return find
