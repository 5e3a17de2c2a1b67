"""The three workloads, run through ``postcast.cli.main`` in-process.

Every run has the same shape.  A single client drives the CLI in a closed
loop: each call starts when the previous one has returned.

1. Set-up, ``SETUP_REPEATS`` times (median = ``setup_s``): ``gen`` the
   blurry evaluation grids, ``gen`` a held-out clean set, ``fit-prior --k 16``
   and a one-epoch ``train`` on the held-out set.  Every workload runs both
   prior builds here, so that ``fit_prior_s`` and ``train_s`` exist on every
   workload, as the result format requires.
2. The timed loop, for ``--seconds``:
   * ``deblur-gmm`` / ``deblur-conv``: one ``deblur <grid.pcf>`` call per
     blurry grid with the ``.pcgm`` / ``.pcdn`` prior, cycling over the
     ``N_EVAL`` grids; each call after the first pass must repeat the first
     pass bit for bit.  Every ``REFIT_EVERY`` calls the set-up priors are
     rebuilt (``fit-prior`` + ``train``, which must repeat the set-up's
     blobs bit for bit), so ``fit_prior_s`` and ``train_s`` are sampled
     across the same stretch of time as ``grids_per_s``; ``grids_per_s``
     and the latencies count ``deblur`` calls only.
   * ``prior-build``: ``gen`` -> ``fit-prior --k 16`` -> ``train`` on
     ``N_BUILD`` clean fields; never enters the sampler.
3. Scoring, untimed: ``eval`` of the first pass against the clean grids,
   and the checks on every output.

With tracing on, the set-up runs once, every second loop operation is
traced and the others are not (their ratio is ``trace.overhead_ratio``),
the deblur loop makes no refits, and ``eval`` is traced.
"""

from __future__ import annotations

import configparser
import contextlib
import csv
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import postcast.cli as cli
from postcast.denoisers import load_gmm
from postcast.errors import PostcastError
from postcast.fields import to_model
from postcast.gridio import read_grid
from postcast.synthetic import fit_gmm_prior

from checks import (
    grid_problems,
    loglik_not_below,
    machine_record,
    mixture_loglik,
    tail_percentile,
)
from layers import LAYER_METRICS, TARGETS, layer_metrics, layer_unit
from spans import Tracer, write_spans

N_EVAL = 8          # blurry grids the deblur loop cycles over
N_HELD = 32         # held-out clean fields the set-up priors are built on
N_BUILD = 300       # clean fields per prior-build operation
K = 16              # mixture components
TRAIN_EPOCHS = 1
SETUP_REPEATS = 3
REFIT_EVERY = 4     # deblur calls between refits of the set-up priors
GRID_SHAPE = (64, 64)

#: End-to-end metrics of the result line, with their units.
END_TO_END = {
    "grids_per_s": "1/s",
    "fit_prior_s": "s",
    "train_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: Reported by name but not in the result line.  The quality figures are
#: fixed by the seed's data and vary across seeds by more than any bound a
#: timing may have.  With one client in a closed loop ``grids_per_s`` is
#: the reciprocal mean latency; the median per call moved more from run to
#: run, so it is printed but not gated.
REPORT_ONLY = {
    "latency_p50_s": "s",
    "csi_p1": "ratio",
    "csi_p4": "ratio",
    "csi_p16": "ratio",
    "reblur_loss_final": "mse",
    "fit_loglik_per_field": "nat",
    "train_final_loss": "mse",
    "error_rate": "ratio",
}


class SetupFailed(RuntimeError):
    pass


@dataclass
class Op:
    argv: list
    seconds: float
    ok: bool = True


@dataclass
class Client:
    """The single client: runs CLI calls in-process, one at a time, and counts them."""

    tracer: Tracer | None = None
    ops: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    def cli(self, argv, run_id: str | None = None) -> Op:
        argv = [str(a) for a in argv]
        traced = self.tracer is not None and run_id is not None
        out, err = io.StringIO(), io.StringIO()
        with contextlib.ExitStack() as stack:
            if traced:
                stack.enter_context(self.tracer.installed(run_id))
            stack.enter_context(contextlib.redirect_stdout(out))
            stack.enter_context(contextlib.redirect_stderr(err))
            start = time.perf_counter()
            span = self.tracer.span("cli.main." + argv[0]) if traced else contextlib.nullcontext()
            try:
                with span:
                    rc = cli.main(argv)
            except Exception as exc:  # an uncaught error is a failed operation
                rc = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
        op = Op(argv, seconds)
        self.ops.append(op)
        if rc != 0:
            self.fail(op, f"exit {rc}: {err.getvalue().strip()[-400:]}")
        return op

    def fail(self, op: Op, message: str) -> None:
        op.ok = False
        self.failures.append(f"{op.argv[0]}: {message}")
        print(f"check failed: {op.argv[0]}: {message}", file=sys.stderr)

    @property
    def failed(self) -> int:
        return sum(not op.ok for op in self.ops)


@contextlib.contextmanager
def em_trace_capture():
    """Let the CLI's own fit hand its EM log-likelihood trace back to us.

    ``fit_gmm_prior`` computes the trace either way; this only asks for it
    to be returned, through the name the CLI calls.
    """
    original = cli.fit_gmm_prior
    traces = []

    def fit_with_trace(*args, **kwargs):
        gmm, trace = original(*args, **kwargs, return_trace=True)
        traces.append(trace)
        return gmm

    cli.fit_gmm_prior = fit_with_trace
    try:
        yield traces
    finally:
        cli.fit_gmm_prior = original


def write_config(base: Path, path: Path, count: int) -> Path:
    """``base`` with only ``[data] count`` changed."""
    parser = configparser.ConfigParser(interpolation=None)
    with open(base) as fh:
        parser.read_file(fh)
    if not parser.has_section("data"):
        parser.add_section("data")
    parser.set("data", "count", str(count))
    with open(path, "w") as fh:
        parser.write(fh)
    return path


# ---------------------------------------------------------------------------
# Prior builds and their checks
# ---------------------------------------------------------------------------


@dataclass
class Build:
    """One gen -> fit-prior -> train sequence and what it left behind."""

    directory: Path
    seconds: float
    fit: Op
    train: Op
    loglik_per_field: float
    final_loss: float


def _last_loss(path: Path) -> float:
    """Loss column of the last row of ``loss.csv`` or a ``*_trace.csv``."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    return float(rows[-1][1])


def _check_fit(client: Client, op: Op, dataset: Path, prior: Path, seed: int,
               em_traces: list) -> float:
    """Log-likelihood per field of the saved mixture, checked against EM."""
    fields = [read_grid(p) for p in sorted(dataset.glob("clean_*.pcf"))]
    x = np.stack([to_model(f).values.ravel() for f in fields])
    gmm = load_gmm(prior)
    total = mixture_loglik(gmm.weights, gmm.means.reshape(gmm.n_components, -1),
                           gmm.sigmas, x)
    if em_traces:
        em_last = em_traces[-1][-1]
    else:  # the CLI no longer calls the bound fit; refit to get the trace
        em_last = fit_gmm_prior(fields, K, seed=seed, return_trace=True)[1][-1]
    if not loglik_not_below(total, em_last):
        client.fail(op, f"saved mixture log-likelihood {total!r} < last EM value {em_last!r}")
    return total / len(fields)


def _fit_and_train(client: Client, work: Path, dataset: Path, config: Path, seed: int,
                   run_id: str | None):
    """``fit-prior`` and ``train`` on one dataset; returns both ops and the EM trace."""
    with em_trace_capture() as em_traces:
        fit = client.cli(["fit-prior", dataset, "--k", K, "--out", work / "prior.pcgm",
                           "--config", config, "--seed", seed], run_id)
    train = client.cli(["train", dataset, "--out", work / "net", "--config", config,
                         "--seed", seed, "--epochs", TRAIN_EPOCHS], run_id)
    return fit, train, em_traces


def build_priors(client: Client, work: Path, dataset: Path, config: Path, data_seed: int,
                 seed: int, run_id: str | None, gens=()) -> Build:
    """Run ``gens`` (extra gen argv lists), then gen, fit-prior and train.

    Only the CLI calls are timed; the checks run afterwards.
    """
    start = time.perf_counter()
    for argv in gens:
        _require(client.cli(argv, run_id))
    _require(client.cli(["gen", "--out", dataset, "--config", config, "--seed", data_seed],
                         run_id))
    fit, train, em_traces = _fit_and_train(client, work, dataset, config, seed, run_id)
    seconds = time.perf_counter() - start
    _require(fit)
    _require(train)
    return Build(
        directory=work,
        seconds=seconds,
        fit=fit,
        train=train,
        loglik_per_field=_check_fit(client, fit, dataset, work / "prior.pcgm", seed, em_traces),
        final_loss=_last_loss(work / "net" / "loss.csv"),
    )


def _require(op: Op) -> Op:
    if not op.ok:
        raise SetupFailed(f"{op.argv[0]} failed")
    return op


def _same_priors(client: Client, first: Path, other: Path, fit: Op, train: Op) -> None:
    """Reruns with the same seed must write the same prior blobs."""
    for op, rel in ((fit, "prior.pcgm"), (train, "net/denoiser.pcdn")):
        if op.ok and (first / rel).read_bytes() != (other / rel).read_bytes():
            client.fail(op, f"{rel} differs bitwise from the first build")


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


@dataclass
class Paths:
    work: Path
    eval_ini: Path
    held_ini: Path
    build_ini: Path


def _setups(client: Client, paths: Paths, seed: int, repeats: int, trace: bool):
    builds = []
    for r in range(repeats):
        work = paths.work / f"setup{r}"
        eval_gen = ["gen", "--out", work / "eval", "--config", paths.eval_ini, "--seed", 3 * seed]
        builds.append(build_priors(client, work, work / "held", paths.held_ini, 3 * seed + 1,
                                   seed, f"setup-{r}" if trace else None, gens=[eval_gen]))
        if r:
            _same_priors(client, builds[0].directory, work, builds[r].fit, builds[r].train)
    return builds


def _deblur_loop(client: Client, setup: Build, paths: Paths, prior: Path, seed: int,
                 seconds: float, trace: bool):
    eval_dir = setup.directory / "eval"
    first, again = paths.work / "first", paths.work / "again"
    plain, traced, refits, first_bytes = [], [], [], {}
    repeats = 0

    def deblur(k: int, out_dir: Path, run_id):
        g = k % N_EVAL
        op = client.cli(["deblur", eval_dir / f"blurry_{g:03d}.pcf", "--prior", prior,
                          "--out", out_dir, "--config", paths.eval_ini, "--seed", seed + g,
                          "--jobs", 1], run_id)
        return op, (_check_deblurred(client, op, out_dir, g, first_bytes) if op.ok else 0)

    k = 0
    start = time.perf_counter()
    while k < N_EVAL or time.perf_counter() - start < seconds:
        run_id = f"load-{k}" if trace and k % 2 else None
        op, repeated = deblur(k, first if k < N_EVAL else again, run_id)
        (traced if run_id else plain).append(op)
        repeats += repeated
        k += 1
        if not trace and k % REFIT_EVERY == 0:
            fit, train, _ = _fit_and_train(client, paths.work / "refit",
                                           setup.directory / "held", paths.held_ini, seed, None)
            _same_priors(client, setup.directory, paths.work / "refit", fit, train)
            refits.append((fit, train))
    if repeats == 0:  # too short a run to revisit a grid: repeat one, untimed
        deblur(0, again, None)
    return plain, traced, refits, first


def _check_deblurred(client: Client, op: Op, out_dir: Path, g: int,
                     first_bytes: dict) -> int:
    """Output checks; returns 1 when this call repeated an earlier grid."""
    path = out_dir / f"blurry_{g:03d}_deblurred.pcf"
    try:
        values = read_grid(path).values
    except (OSError, PostcastError) as exc:
        client.fail(op, f"{path.name} does not reload: {exc}")
        return 0
    for problem in grid_problems(values, GRID_SHAPE):
        client.fail(op, f"{path.name}: {problem}")
    blob = path.read_bytes()
    if g not in first_bytes:
        first_bytes[g] = blob
        return 0
    if blob != first_bytes[g]:
        client.fail(op, f"{path.name} differs bitwise from the first deblur of grid {g}")
    return 1


def _quality(client: Client, first: Path, eval_dir: Path, paths: Paths, trace: bool) -> dict:
    """Pooled CSI through ``postcast eval`` plus the median final reblur loss."""
    report = paths.work / "csi.csv"
    op = client.cli(["eval", "--pred", first, "--obs", eval_dir,
                      "--pred-pattern", "*_deblurred.pcf", "--obs-pattern", "clean_*.pcf",
                      "--out", report, "--config", paths.eval_ini],
                     "score-0" if trace else None)
    out = {}
    if op.ok:
        with open(report, newline="") as fh:
            for row in csv.DictReader(fh):
                out[f"csi_p{row['pool']}"] = float(row["csi"])
    losses = [_last_loss(p) for p in sorted(first.glob("*_trace.csv"))]
    if losses:
        out["reblur_loss_final"] = statistics.median(losses)
    return out


def _build_loop(client: Client, paths: Paths, seed: int, seconds: float, trace: bool):
    plain, traced, builds = [], [], []
    k = 0
    start = time.perf_counter()
    while k < (2 if trace else 1) or time.perf_counter() - start < seconds:
        run_id = f"load-{k}" if trace and k % 2 else None
        work = paths.work / f"build{k}"
        build = build_priors(client, work, work / "ds", paths.build_ini, 3 * seed + 2, seed,
                             run_id)
        (traced if run_id else plain).append(build)
        if builds:
            _same_priors(client, builds[0].directory, work, build.fit, build.train)
            shutil.rmtree(work)
        builds.append(build)
        k += 1
    return plain, traced, builds[0]


def run(workload: str, seed: int, seconds: float, trace: bool, *, root: Path,
        base_config: Path, blas_threads: int) -> int:
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    work = root / ".bench_work" / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    paths = Paths(
        work=work,
        eval_ini=write_config(base_config, work / "eval.ini", N_EVAL),
        held_ini=write_config(base_config, work / "held.ini", N_HELD),
        build_ini=write_config(base_config, work / "build.ini", N_BUILD),
    )
    tracer = Tracer(TARGETS) if trace else None
    client = Client(tracer)
    try:
        return _run(workload, seed, seconds, trace, paths, client, root, tag, blas_threads)
    except SetupFailed as exc:
        print(f"benchmark: {exc}; no result", file=sys.stderr)
        for message in client.failures:
            print(f"  {message}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            work.parent.rmdir()


def _run(workload, seed, seconds, trace, paths, client, root, tag, blas_threads) -> int:
    setups = _setups(client, paths, seed, 1 if trace else SETUP_REPEATS, trace)
    setup = setups[-1]
    units = {"setup": len(setups), "score": 0}
    report = {}
    if workload == "prior-build":
        plain, traced, first = _build_loop(client, paths, seed, seconds, trace)
        plain_seconds = [b.seconds for b in plain]
        traced_seconds = [b.seconds for b in traced]
        built = sum(b.fit.ok and b.train.ok for b in plain)
        report["grids_per_s"] = N_BUILD * built / sum(plain_seconds)
        report["latency_p50_s"] = statistics.median(plain_seconds)
        report["fit_prior_s"] = statistics.fmean(b.fit.seconds for b in plain)
        report["train_s"] = statistics.fmean(b.train.seconds for b in plain)
        report["fit_loglik_per_field"] = first.loglik_per_field
        report["train_final_loss"] = first.final_loss
    else:
        prior = "prior.pcgm" if workload == "deblur-gmm" else "net/denoiser.pcdn"
        plain, traced, refits, first = _deblur_loop(
            client, setup, paths, setup.directory / prior, seed, seconds, trace)
        plain_seconds = [op.seconds for op in plain]
        traced_seconds = [op.seconds for op in traced]
        report["grids_per_s"] = sum(op.ok for op in plain) / sum(plain_seconds)
        report["latency_p50_s"] = statistics.median(plain_seconds)
        p = tail_percentile(len(plain_seconds))
        if p is not None:
            report[f"latency_p{p:g}_s"] = float(np.percentile(plain_seconds, p))
        fits = [b.fit for b in setups] + [fit for fit, _ in refits]
        trains = [b.train for b in setups] + [train for _, train in refits]
        report["fit_prior_s"] = statistics.fmean(op.seconds for op in fits)
        report["train_s"] = statistics.fmean(op.seconds for op in trains)
        report["fit_loglik_per_field"] = setup.loglik_per_field
        report["train_final_loss"] = setup.final_loss
        report.update(_quality(client, first, setup.directory / "eval", paths, trace))
        units["score"] = 1
    report["setup_s"] = statistics.median(b.seconds for b in setups)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["error_rate"] = client.failed / len(client.ops)
    report["latency_samples"] = len(plain_seconds)

    machine = machine_record(blas_threads, seed)
    print(f"workload {workload}  seed {seed}  trace {int(trace)}  "
          f"ops {len(client.ops)}  failed {client.failed}")
    print("machine " + json.dumps(machine, sort_keys=True))
    for name, value in report.items():
        unit = END_TO_END.get(name) or REPORT_ONLY.get(name)
        print(f"  {name:24s} {value!r} {unit or ('s' if name.endswith('_s') else 'count')}")

    if trace:
        units["load"] = len(traced_seconds)
        overhead = statistics.median(traced_seconds) / statistics.median(plain_seconds) - 1.0
        metrics = layer_metrics(client.tracer.spans, client.tracer.events, units, overhead)
        for name in LAYER_METRICS:
            print(f"  {name:36s} {metrics[name]!r} {layer_unit(name)}")
        if client.tracer.missing:
            print("  bindings not found: " + ", ".join(sorted(client.tracer.missing)))
        result_metrics = {n: {"value": metrics[n], "unit": layer_unit(n)}
                          for n in LAYER_METRICS}
    else:
        result_metrics = {n: {"value": report[n], "unit": u} for n, u in END_TO_END.items()}

    out_dir = root / ".bench_runs"
    out_dir.mkdir(exist_ok=True)
    if trace:
        write_spans(out_dir / f"{tag}-spans.csv", client.tracer.spans)
    with open(out_dir / f"{tag}.json", "w") as fh:
        json.dump({"machine": machine, "report": report, "metrics": result_metrics,
                   "failures": client.failures, "latencies_s": plain_seconds},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(json.dumps({
        "correct": client.failed == 0,
        "attempted": len(client.ops),
        "failed": client.failed,
        "metrics": result_metrics,
    }))
    return 0
