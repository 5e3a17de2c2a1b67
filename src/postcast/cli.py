"""Command line driver.

Subcommands cover the whole pipeline on synthetic data:

    gen        write (clean, blurry) grid pairs, their kernels and index.json
    fit-prior  fit the Gaussian-mixture prior on the clean fields
    train      train the small convolutional denoiser on the clean fields
    deblur     run guided reverse diffusion on blurry grids
    eval       score predictions against observations (CSI report CSV)
    ablate     compare fixed-kernel / fixed-scale / full guidance variants

Every command takes --config (INI file, defaults when omitted) and writes
its artifacts to --out; every command but eval, which draws nothing, takes
--seed (overrides the config's data.seed).  Each run writes a manifest: a
directory --out gets <out>/manifest.json, and the file outputs of fit-prior
and eval get <out>.manifest.json beside them.  A command exits 2, before it
writes anything, when its directory --out holds a manifest.json that another
command wrote or that is not a manifest.  Exit codes: 0 success, 1
usage, 2 bad data or configuration, 3 numeric failure.

gen writes clean_NNN.pcf and blurry_NNN.pcf per pair, and one
kernel_<family>_s<severity>.csv per distinct blur plan; each index.json
entry names its pair's grids and kernel file.  gen exits 2, before it
writes anything, when --out already holds such files that the new
index.json would not name.

eval pairs grids by name through the observation dataset's index.json, or
by sorted position without one; --pred-pattern and --obs-pattern must be
non-empty relative globs.
eval's csi pools tp/fp/fn over all pairs before dividing.  In ablate's
ablation_summary.csv the tp/fp/fn columns are pooled the same way, but the
csi column is the mean of the per-grid CSI.  deblur and ablate run grid i
on seed ^ i whatever the worker, so --jobs never changes output bits.

deblur and ablate read and check every input grid before they create --out:
a grid that is missing or unreadable, holds non-finite values or differs
from a mixture prior's field shape exits 2 and leaves no --out.  A numeric
failure mid-run (exit 3) still leaves the grids finished before it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, replace
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, load_config
from .denoisers import (
    DENOISER_MAGIC,
    GMM_MAGIC,
    GaussianMixtureModel,
    TrainConfig,
    denoiser_bytes,
    load_denoiser,
    load_gmm,
    save_gmm,
    train_conv_denoiser,
)
from .diffusion import linear_schedule
from .errors import (
    DataError,
    MagicError,
    NumericError,
    PostcastError,
    TrainingError,
)
from .fields import to_model
from .gridio import (
    read_grid,
    write_csi_report_csv,
    write_grid,
    write_kernel_csv,
    write_trace_csv,
)
from .metrics import csi_from_counts, csi_tally, quantile_threshold
from .sampler import postcast_deblur
from .synthetic import BLUR_FAMILIES, fit_gmm_prior, generate_fields, plant_blur


#: With ``[eval] tau = none``, eval and ablate threshold at this quantile of the observations.
TAU_QUANTILE = 0.99


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _log(command: str, message: str) -> None:
    print(f"[{command}] {message}")


def _schedule_from(config: RunConfig):
    return linear_schedule(config.schedule.t, config.schedule.beta_1, config.schedule.beta_t)


def _int_at_least(low: int, name: str):
    """An argparse type: an int that must be >= ``low``."""

    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"{name} must be >= {low}, got {value}")
        return value

    return parse


# numpy's generators accept only non-negative seeds; a pool needs a worker.
_seed = _int_at_least(0, "seed")
_jobs = _int_at_least(1, "jobs")


def _glob_pattern(raw: str) -> str:
    """An argparse type: a pattern that ``Path.glob`` accepts, non-empty,
    relative and with ``**`` only as a whole component."""
    parts = Path(raw).parts
    if not parts or Path(raw).is_absolute() or any("**" in p and p != "**" for p in parts):
        raise argparse.ArgumentTypeError(
            f"invalid pattern {raw!r}: need a non-empty relative glob, with '**' only as a "
            "whole path component"
        )
    return raw


def _load_prior(path):
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == GMM_MAGIC:
        return load_gmm(path)
    if magic == DENOISER_MAGIC:
        return load_denoiser(path)
    raise MagicError(f"{path}: unrecognized prior magic {magic!r}")


def _dataset_entries(dataset_dir: Path) -> list:
    """Entries from index.json, or a bare *.pcf listing as a fallback."""
    index = dataset_dir / "index.json"
    if index.exists():
        try:
            listing = json.loads(index.read_bytes().decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise DataError(f"{index}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
        except json.JSONDecodeError as exc:
            raise DataError(f"{index}: not valid JSON ({exc})") from None
        if not isinstance(listing, dict) or "entries" not in listing:
            raise DataError(f"{index}: has no 'entries' key")
        entries = listing["entries"]
        if not isinstance(entries, list):
            raise DataError(f"{index}: 'entries' must be a list")
        if not entries:
            raise DataError(f"dataset at {dataset_dir} is empty ({index} lists no entries)")
        seen = {}  # blurry stem -> entry; deblur names its outputs after the stem
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict) or not isinstance(entry.get("blurry"), str):
                raise DataError(f"{index}: entry {i} is not an object with a string 'blurry'")
            first = seen.setdefault(Path(entry["blurry"]).stem, i)
            if first != i:
                raise DataError(
                    f"{index}: entries {first} ({entries[first]['blurry']!r}) and {i} "
                    f"({entry['blurry']!r}) share a blurry stem, so their outputs would collide"
                )
        return entries
    grids = sorted(p.name for p in dataset_dir.glob("*.pcf"))
    if not grids:
        raise DataError(f"no grids found under {dataset_dir}")
    return [{"blurry": name, "clean": None, "kernel": None, "severity": None} for name in grids]


def _load_fields(dataset_dir: Path, entries, key: str, prior=None) -> list:
    """The grid each entry names under ``key``, read and checked before any
    output exists; a mixture ``prior`` also fixes the grids' shape."""
    fields = []
    for entry in entries:
        if not isinstance(entry.get(key), str):
            raise DataError(f"{dataset_dir} has no {key} fields (missing index.json?)")
        path = dataset_dir / entry[key]
        field = read_grid(path)
        if isinstance(prior, GaussianMixtureModel) and field.shape != prior.field_shape:
            raise DataError(
                f"{path}: grid shape {field.shape} differs from the mixture prior's "
                f"field shape {prior.field_shape}"
            )
        fields.append(field)
    return fields


def _plant_plan(config: RunConfig, index: int):
    """(family, severity) for the index-th generated pair."""
    family = config.data.blur_family
    if family == "varied":
        fam = BLUR_FAMILIES[index % len(BLUR_FAMILIES)]
        sev = 1 + index % config.data.severity
        return fam, sev
    return family, config.data.severity


# ---------------------------------------------------------------------------
# Deblur worker (top level so process pools can pickle it)
# ---------------------------------------------------------------------------


def _deblur_grid(prior, config: RunConfig, blurry, out_stem: str, seed: int):
    """Deblur one grid and write its three artifacts; returns their paths."""
    trace = postcast_deblur(
        _schedule_from(config),
        prior,
        blurry,
        config.guidance,
        seed=seed,
        kernel_config=config.kernel,
    )
    outputs = [out_stem + "_deblurred.pcf", out_stem + "_kernel.csv", out_stem + "_trace.csv"]
    write_grid(outputs[0], trace.x0)
    write_kernel_csv(outputs[1], trace.kernel)
    write_trace_csv(outputs[2], trace.records)
    return outputs


def _deblur_entries(prior, config: RunConfig, entries, blurry, out_dir: Path,
                    seed: int, jobs: int) -> list:
    """Deblur every entry's blurry grid into out_dir; returns the written paths.

    Grid i always runs on seed ^ i, so --jobs never changes output bits.
    """
    work = partial(_deblur_grid, prior, config)
    stems = [str(out_dir / Path(entry["blurry"]).stem) for entry in entries]
    seeds = [seed ^ i for i in range(len(entries))]
    if jobs == 1:
        written = list(map(work, blurry, stems, seeds))
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            written = list(pool.map(work, blurry, stems, seeds))
    return [path for paths in written for path in paths]


# ---------------------------------------------------------------------------
# Commands: each takes (args, config, seed) and returns its run record, the
# inputs, the outputs (relative to the manifest's directory) and the stage
# names; main writes the manifest from it.
# ---------------------------------------------------------------------------


def _refuse_stale_files(out_dir: Path, entries) -> None:
    """Reject an --out that holds dataset files the new index will not name.

    A smaller rerun would leave them behind, and eval's index pairing would
    then meet grids of no entry.  Nothing is deleted.
    """
    named = {entry[key] for entry in entries for key in ("clean", "blurry", "kernel")}
    for pattern in ("clean_*.pcf", "blurry_*.pcf", "kernel_*.csv"):
        for path in sorted(out_dir.glob(pattern)):
            if path.name not in named:
                raise DataError(
                    f"{path}: left by an earlier gen and not part of the new dataset; "
                    "remove it or choose another --out"
                )


def cmd_gen(args, config: RunConfig, seed: int):
    out_dir = Path(args.out)
    entries = []
    for i in range(config.data.count):
        family, severity = _plant_plan(config, i)
        entries.append({
            "clean": f"clean_{i:03d}.pcf",
            "blurry": f"blurry_{i:03d}.pcf",
            "kernel": f"kernel_{family}_s{severity}.csv",
            "severity": severity,
            "family": family,
        })
    _refuse_stale_files(out_dir, entries)
    cleans = generate_fields(config.data.field_spec(seed), config.data.count)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    kernels = set()
    for entry, clean in zip(entries, cleans, strict=True):
        pair = plant_blur(clean, entry["family"], entry["severity"], size=config.kernel.size)
        write_grid(out_dir / entry["clean"], pair.clean)
        write_grid(out_dir / entry["blurry"], pair.blurry)
        outputs += [entry["clean"], entry["blurry"]]
        # Pairs with one plan share one kernel, so its file is written once.
        if entry["kernel"] not in kernels:
            kernels.add(entry["kernel"])
            write_kernel_csv(out_dir / entry["kernel"], pair.kernel_true)
            outputs.append(entry["kernel"])
    with open(out_dir / "index.json", "w") as fh:
        json.dump({"count": len(entries), "entries": entries}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    outputs.append("index.json")
    _log("gen", f"wrote {len(entries)} planted pairs to {out_dir}")
    return [], outputs, ["load-config", "generate", "plant", "write"]


def cmd_fit_prior(args, config: RunConfig, seed: int):
    dataset_dir = Path(args.dataset)
    out_path = Path(args.out)
    fields = _load_fields(dataset_dir, _dataset_entries(dataset_dir), "clean")
    gmm = fit_gmm_prior(fields, args.k, seed=seed)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    save_gmm(out_path, gmm)
    _log("fit-prior", f"fit k={args.k} mixture on {len(fields)} fields -> {out_path}")
    return [dataset_dir], [out_path.name], ["load-config", "load-fields", "fit", "write"]


def cmd_train(args, config: RunConfig, seed: int):
    dataset_dir = Path(args.dataset)
    out_dir = Path(args.out)
    schedule = _schedule_from(config)
    entries = _dataset_entries(dataset_dir)
    # No name holds the data-unit fields through training: in the deblur
    # benchmarks' set-up that doubled a one-epoch train on 32 fields.
    fields = [to_model(f) for f in _load_fields(dataset_dir, entries, "clean")]
    train_config = TrainConfig(epochs=args.epochs, seed=seed)
    net, losses = train_conv_denoiser(fields, schedule, train_config)
    blob = denoiser_bytes(net)  # a NumericError here leaves no --out behind
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "denoiser.pcdn").write_bytes(blob)
    with open(out_dir / "loss.csv", "w") as fh:
        fh.write("epoch,loss\n")
        for i, loss in enumerate(losses):
            fh.write(f"{i},{'%.17g' % loss}\n")
    _log("train", f"final epoch loss {losses[-1]:.6f} -> {out_dir / 'denoiser.pcdn'}")
    return ([dataset_dir], ["denoiser.pcdn", "loss.csv"],
            ["load-config", "load-fields", "train", "write"])


def cmd_deblur(args, config: RunConfig, seed: int):
    out_dir = Path(args.out)
    input_path = Path(args.input)
    if input_path.is_dir():
        entries = _dataset_entries(input_path)
        dataset_dir = input_path
    else:
        entries = [{"blurry": input_path.name}]
        dataset_dir = input_path.parent
    prior = _load_prior(args.prior)
    blurry = _load_fields(dataset_dir, entries, "blurry", prior)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = _deblur_entries(prior, config, entries, blurry, out_dir, seed, args.jobs)
    _log("deblur", f"deblurred {len(entries)} grid(s) -> {out_dir}")
    return ([input_path, args.prior], [Path(p).name for p in written],
            ["load-config", "load-prior", "sample", "write"])


def _collect_grids(directory: Path, pattern: str):
    paths = sorted(directory.glob(pattern))
    if not paths:
        raise DataError(f"no grids matching {pattern!r} under {directory}")
    return paths


def _pair_by_index(pred_paths, obs_paths, obs_dir: Path) -> list:
    """The predictions in observation order, paired by name through the
    observation dataset's index: an observation is an entry's clean grid, and
    its prediction's stem is the entry's blurry stem, alone or followed by
    ``_``.  The counts are equal, so one match each pairs them all."""
    index = obs_dir / "index.json"
    stems = {obs_dir / e["clean"]: Path(e["blurry"]).stem
             for e in _dataset_entries(obs_dir) if isinstance(e.get("clean"), str)}
    for obs in obs_paths:
        if obs not in stems:
            raise DataError(f"{obs}: not the clean grid of any entry in {index}")
    pairs = {}
    for pred in pred_paths:
        hits = [obs for obs in obs_paths if f"{pred.stem}_".startswith(f"{stems[obs]}_")]
        if len(hits) != 1:
            raise DataError(f"{pred}: matches {len(hits)} blurry stems of {index}, not 1")
        if hits[0] in pairs:
            raise DataError(f"{hits[0]}: paired with both {pairs[hits[0]]} and {pred}")
        pairs[hits[0]] = pred
    return [pairs[obs] for obs in obs_paths]


def cmd_eval(args, config: RunConfig, seed: None):
    pred_dir = Path(args.pred)
    obs_dir = Path(args.obs)
    out_path = Path(args.out)
    pred_paths = _collect_grids(pred_dir, args.pred_pattern)
    obs_paths = _collect_grids(obs_dir, args.obs_pattern)
    if len(pred_paths) != len(obs_paths):
        raise DataError(
            f"prediction/observation counts differ: {len(pred_paths)} vs {len(obs_paths)}"
        )
    if (obs_dir / "index.json").exists():
        pred_paths = _pair_by_index(pred_paths, obs_paths, obs_dir)
    preds = [read_grid(p) for p in pred_paths]
    obs = [read_grid(p) for p in obs_paths]
    tau = config.eval.tau
    if tau is None:
        tau = quantile_threshold(obs, TAU_QUANTILE)
    label = args.label or pred_dir.name
    rows = []
    for pool in config.eval.poolings:
        _, (tp, fp, fn) = csi_tally(preds, obs, tau, pool)
        rows.append((label, tau, pool, tp, fp, fn, csi_from_counts(tp, fp, fn)))
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_csi_report_csv(out_path, rows)
    for row in rows:
        _log("eval", f"{label} pool={row[2]} csi={row[6]:.4f} (tp={row[3]} fp={row[4]} fn={row[5]})")
    return [pred_dir, obs_dir], [out_path.name], ["load-config", "load-grids", "score", "write"]


#: Guidance overrides for the ablation variants, applied on top of the run config.
ABLATION_VARIANTS = (
    ("model_a", {"fixed_kernel": True, "fixed_scale": 3500.0}),
    ("model_c", {"fixed_kernel": False, "fixed_scale": 3500.0}),
    ("postcast", {"fixed_kernel": False, "fixed_scale": None}),
)


def cmd_ablate(args, config: RunConfig, seed: int):
    dataset_dir = Path(args.dataset)
    out_dir = Path(args.out)
    entries = _dataset_entries(dataset_dir)
    cleans = _load_fields(dataset_dir, entries, "clean")
    stems = [Path(entry["blurry"]).stem for entry in entries]
    prior = _load_prior(args.prior)
    blurry = _load_fields(dataset_dir, entries, "blurry", prior)
    tau = config.eval.tau
    if tau is None:
        tau = quantile_threshold(cleans, TAU_QUANTILE)
    per_instance_rows = []
    summary_rows = []
    outputs = []
    for variant, overrides in ABLATION_VARIANTS:
        variant_dir = out_dir / variant
        variant_dir.mkdir(parents=True, exist_ok=True)
        variant_config = replace(config, guidance=replace(config.guidance, **overrides))
        written = _deblur_entries(prior, variant_config, entries, blurry, variant_dir,
                                  seed, args.jobs)
        outputs += [str(Path(p).relative_to(out_dir)) for p in written]
        preds = [read_grid(variant_dir / f"{stem}_deblurred.pcf") for stem in stems]
        for pool in config.eval.poolings:
            counts, (tp, fp, fn) = csi_tally(preds, cleans, tau, pool)
            scores = [csi_from_counts(*c) for c in counts]
            per_instance_rows += [
                (f"{variant}:{stem}", tau, pool, *c, score)
                for stem, c, score in zip(stems, counts, scores)
            ]
            summary_rows.append((variant, tau, pool, tp, fp, fn, float(np.mean(scores))))
        _log("ablate", f"{variant}: done ({len(entries)} grids)")
    write_csi_report_csv(out_dir / "ablation.csv", per_instance_rows)
    write_csi_report_csv(out_dir / "ablation_summary.csv", summary_rows)
    outputs += ["ablation.csv", "ablation_summary.csv"]
    for variant, _, pool, _, _, _, mean_csi in summary_rows:
        _log("ablate", f"{variant} pool={pool} mean_csi={mean_csi:.4f}")
    return [dataset_dir, args.prior], outputs, ["load-config", "deblur-variants", "score", "write"]


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


@cache
def build_parser() -> _Parser:
    """The argument parser, built on first use and shared by every call of
    :func:`main` in the process.  It names each command; :func:`main` looks
    up the command's ``cmd_*`` function when it runs, so it holds none."""
    parser = _Parser(prog="postcast", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, jobs=False, seed=True):
        p.add_argument("--config", default=None, help="INI config file (defaults if omitted)")
        if seed:
            p.add_argument("--seed", type=_seed, default=None, help="override the config seed")
        if jobs:
            p.add_argument("--jobs", type=_jobs, default=1, help="parallel worker processes")

    p = sub.add_parser("gen", help="generate a planted-blur dataset")
    common(p)
    p.add_argument("--out", required=True, help="output dataset directory")

    p = sub.add_parser("fit-prior", help="fit the Gaussian-mixture prior")
    common(p)
    p.add_argument("dataset", help="dataset directory from `gen`")
    p.add_argument("--k", type=int, default=4, help="number of mixture components")
    p.add_argument("--out", required=True, help="output mixture blob (.pcgm)")

    p = sub.add_parser("train", help="train the small convolutional denoiser")
    common(p)
    p.add_argument("dataset", help="dataset directory from `gen`")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)

    p = sub.add_parser("deblur", help="guided deblurring of blurry grids")
    common(p, jobs=True)
    p.add_argument("input", help="a grid file or a dataset directory")
    p.add_argument("--prior", required=True, help="mixture (.pcgm) or denoiser (.pcdn) blob")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("eval", help="CSI report for predictions vs observations")
    common(p, seed=False)
    p.add_argument("--pred", required=True, help="prediction directory")
    p.add_argument("--obs", required=True, help="observation directory")
    p.add_argument("--pred-pattern", type=_glob_pattern, default="*.pcf",
                   help="glob for prediction grids")
    p.add_argument("--obs-pattern", type=_glob_pattern, default="*.pcf",
                   help="glob for observation grids")
    p.add_argument("--label", default=None, help="dataset label in the report")
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("ablate", help="compare guidance variants on one dataset")
    common(p, jobs=True)
    p.add_argument("dataset", help="dataset directory from `gen`")
    p.add_argument("--prior", required=True, help="mixture (.pcgm) or denoiser (.pcdn) blob")
    p.add_argument("--out", required=True, help="output directory")

    return parser


#: Commands whose --out is one file.  Each writes <out>.manifest.json beside
#: it, so runs that share a directory keep their own; the other commands
#: write <out>/manifest.json.
_FILE_OUT = ("fit-prior", "eval")


def _refuse_foreign_manifest(path: Path, command: str) -> None:
    """Reject a directory --out whose manifest.json another command wrote,
    or that is no manifest at all: this run would replace it.  A rerun of
    the same command into its own --out is allowed."""
    if not path.exists():
        return
    try:
        manifest = json.loads(path.read_bytes().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        manifest = None
    if not isinstance(manifest, dict) or not isinstance(manifest.get("command"), str):
        raise DataError(f"{path}: not a postcast manifest; choose another --out")
    if manifest["command"] != command:
        raise DataError(
            f"{path}: written by {manifest['command']}, which {command} would overwrite; "
            "choose another --out"
        )


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        started = time.time()
        config = load_config(args.config)
        seed = None  # eval draws nothing, so it takes no --seed and records none
        if "seed" in args:
            seed = config.data.seed if args.seed is None else args.seed
        if args.command in _FILE_OUT:
            path = Path(args.out + ".manifest.json")
        else:
            path = Path(args.out) / "manifest.json"
            _refuse_foreign_manifest(path, args.command)
        command = globals()["cmd_" + args.command.replace("-", "_")]
        inputs, outputs, stages = command(args, config, seed)
        manifest = {
            "command": args.command,
            "package_version": __version__,
            "config": asdict(config),
            "seed": seed,
            "inputs": [str(p) for p in inputs],
            "outputs": sorted(str(p) for p in outputs),
            "stages": [{"name": name, "status": "ok"} for name in stages],
            "started_unix": started,
            "wall_seconds": time.time() - started,
        }
        with open(path, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return 0
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (NumericError, TrainingError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except PostcastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
