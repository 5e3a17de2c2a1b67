"""Command line pipeline: artifacts, determinism, exit codes.

Runs every subcommand on a deliberately tiny problem (16x16 grids, 30
reverse steps) so the whole module stays in the seconds range.
"""

import configparser
import json
import shutil
import struct
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import postcast as pc
import postcast.cli as cli
import postcast.denoisers as denoisers
import postcast.synthetic as synthetic
from postcast.cli import main
from postcast.config import load_config
from postcast.denoisers import CONV_SHAPES, DENOISER_MAGIC, DENOISER_VERSION

TINY_INI = """\
[schedule]
t = 30
beta_t = 0.05

[kernel]
size = 5
init_mean = 0.02
init_std = 0.01

[guidance]
lr = 0.005
c = -220.0
s_max = 3500.0

[data]
height = 16
width = 16
count = 3
severity = 2

[eval]
poolings = 1,4
"""


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen + fit-prior once; the products feed most of the tests below."""
    root = tmp_path_factory.mktemp("cli")
    ini = root / "tiny.ini"
    ini.write_text(TINY_INI)
    dataset = root / "dataset"
    assert main(["gen", "--out", str(dataset), "--config", str(ini), "--seed", "5"]) == 0
    prior = root / "prior.pcgm"
    assert main(["fit-prior", str(dataset), "--out", str(prior), "--config", str(ini), "--k", "3"]) == 0
    return {"root": root, "ini": str(ini), "dataset": dataset, "prior": str(prior)}


def test_gen_writes_the_documented_dataset(pipeline):
    """One grid file per clean and per blurry field, one kernel file per
    distinct plan, and an index naming each pair's kernel."""
    dataset = pipeline["dataset"]
    index = json.loads((dataset / "index.json").read_text())
    assert index["count"] == 3
    entries = index["entries"]
    assert len(entries) == 3
    # the tiny config's varied blurs give three pairs three plans
    plans = {(entry["family"], entry["severity"]) for entry in entries}
    assert plans == {("gaussian", 1), ("motion", 2), ("mixed", 1)}
    kernels = {f"kernel_{family}_s{severity}.csv" for family, severity in plans}
    expected = ({f"clean_{i:03d}.pcf" for i in range(3)}
                | {f"blurry_{i:03d}.pcf" for i in range(3)}
                | kernels | {"index.json"})
    assert {p.name for p in dataset.iterdir()} == expected | {"manifest.json"}
    manifest = json.loads((dataset / "manifest.json").read_text())
    assert manifest["outputs"] == sorted(expected)
    for entry in entries:
        assert set(entry) == {"clean", "blurry", "kernel", "severity", "family"}
        assert entry["kernel"] == f"kernel_{entry['family']}_s{entry['severity']}.csv"
        # planted pairs really are linked by the stored kernel
        clean = pc.read_grid(dataset / entry["clean"])
        blurry = pc.read_grid(dataset / entry["blurry"])
        kernel = pc.read_kernel_csv(dataset / entry["kernel"])
        reblur = pc.convolve(kernel, clean)
        assert np.allclose(reblur.values, blurry.values, atol=1e-7)


def test_gen_is_deterministic(pipeline, tmp_path):
    """A rerun writes the same files, byte for byte; only the manifest
    (timings) may differ."""
    again = tmp_path / "again"
    assert main(["gen", "--out", str(again), "--config", pipeline["ini"], "--seed", "5"]) == 0
    first = pipeline["dataset"]
    names = sorted(p.name for p in first.iterdir() if p.name != "manifest.json")
    assert sorted(p.name for p in again.iterdir() if p.name != "manifest.json") == names
    for name in names:
        assert (again / name).read_bytes() == (first / name).read_bytes(), name


def test_gen_builds_and_writes_each_planted_kernel_once(tmp_path, monkeypatch):
    """30 pairs of the tiny config plant six plans: each plan's kernel is
    built once and its file written once, and every entry names it."""
    ini = tmp_path / "thirty.ini"
    ini.write_text(TINY_INI.replace("count = 3", "count = 30"))
    built, written = [], []
    build, write = synthetic._planted_params, cli.write_kernel_csv

    def counting_build(*plan):
        built.append(plan)
        return build(*plan)

    def counting_write(path, *args, **kwargs):
        written.append(Path(path).name)
        write(path, *args, **kwargs)

    monkeypatch.setattr(synthetic, "_planted_params", counting_build)
    monkeypatch.setattr(cli, "write_kernel_csv", counting_write)
    synthetic._planted_kernel.cache_clear()
    try:
        assert main(["gen", "--out", str(tmp_path / "ds"), "--config", str(ini)]) == 0
    finally:
        synthetic._planted_kernel.cache_clear()
    entries = json.loads((tmp_path / "ds" / "index.json").read_text())["entries"]
    assert len(entries) == 30
    plans = {(entry["family"], entry["severity"]) for entry in entries}
    assert len(plans) == 6
    assert sorted(built) == sorted((family, severity, 5) for family, severity in plans)
    assert sorted(written) == sorted(f"kernel_{family}_s{severity}.csv"
                                     for family, severity in plans)
    assert {entry["kernel"] for entry in entries} == set(written)


def test_gen_refuses_an_out_with_files_the_new_index_would_not_name(tmp_path, capsys):
    """A 3-pair gen into a 6-pair dataset would leave pairs 3-5 and their
    kernels behind; it exits 2, naming one, and changes no file.  A rerun
    of the same config into the same directory still succeeds."""
    six, three = tmp_path / "six.ini", tmp_path / "three.ini"
    six.write_text(TINY_INI.replace("count = 3", "count = 6"))
    three.write_text(TINY_INI)
    out = tmp_path / "ds"
    assert main(["gen", "--out", str(out), "--config", str(six)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert main(["gen", "--out", str(out), "--config", str(three)]) == 2
    assert "left by an earlier gen" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert main(["gen", "--out", str(out), "--config", str(six)]) == 0


def test_fit_prior_blob_is_loadable(pipeline):
    gmm = pc.load_gmm(pipeline["prior"])
    assert gmm.weights.shape == (3,)
    assert gmm.means.shape == (3, 16, 16)
    manifest = json.loads(Path(pipeline["prior"] + ".manifest.json").read_text())
    assert manifest["command"] == "fit-prior"


def test_train_writes_denoiser_and_loss_curve(pipeline, tmp_path):
    out = tmp_path / "train"
    rc = main(["train", str(pipeline["dataset"]), "--out", str(out),
               "--config", pipeline["ini"], "--epochs", "2"])
    assert rc == 0
    net = pc.load_denoiser(out / "denoiser.pcdn")
    assert tuple(l.weights.shape for l in net.layers) == CONV_SHAPES
    lines = (out / "loss.csv").read_text().splitlines()
    assert lines[0] == "epoch,loss"
    assert len(lines) == 3


def test_deblur_dataset_artifacts_and_manifest(pipeline, tmp_path):
    out = tmp_path / "deblurred"
    rc = main(["deblur", str(pipeline["dataset"]), "--prior", pipeline["prior"],
               "--out", str(out), "--config", pipeline["ini"], "--seed", "5"])
    assert rc == 0
    for i in range(3):
        stem = f"blurry_{i:03d}"
        deblurred = pc.read_grid(out / f"{stem}_deblurred.pcf")
        assert deblurred.shape == (16, 16)
        pc.read_kernel_csv(out / f"{stem}_kernel.csv")
        trace = pc.read_trace_csv(out / f"{stem}_trace.csv")
        assert [r.t for r in trace] == list(range(30, 0, -1))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "deblur"
    assert manifest["seed"] == 5
    assert manifest["config"]["schedule"]["t"] == 30
    assert manifest["outputs"] == sorted(manifest["outputs"])
    assert {s["status"] for s in manifest["stages"]} == {"ok"}
    assert manifest["package_version"] == pc.__version__
    assert manifest["wall_seconds"] >= 0


def test_deblur_single_grid_file(pipeline, tmp_path):
    out = tmp_path / "single"
    target = pipeline["dataset"] / "blurry_001.pcf"
    rc = main(["deblur", str(target), "--prior", pipeline["prior"],
               "--out", str(out), "--config", pipeline["ini"]])
    assert rc == 0
    assert (out / "blurry_001_deblurred.pcf").exists()


def test_deblur_reruns_are_bitwise_identical(pipeline, tmp_path):
    """Same seed, fresh process pool or not: every artifact byte matches."""
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    out3 = tmp_path / "c"
    base = ["deblur", str(pipeline["dataset"]), "--prior", pipeline["prior"],
            "--config", pipeline["ini"], "--seed", "9"]
    assert main(base + ["--out", str(out1)]) == 0
    assert main(base + ["--out", str(out2)]) == 0
    assert main(base + ["--out", str(out3), "--jobs", "2"]) == 0
    compared = 0
    for p1 in sorted(out1.iterdir()):
        if p1.name == "manifest.json":  # carries wall-clock timing
            continue
        for other in (out2, out3):
            assert (other / p1.name).read_bytes() == p1.read_bytes(), p1.name
        compared += 1
    assert compared == 9  # 3 stems x (pcf, kernel.csv, trace.csv)


def test_jobs_start_no_more_workers_than_grids(pipeline, tmp_path, monkeypatch):
    """--jobs is capped at the grid count: one grid runs in-process, and
    three grids under --jobs 8 get a pool of three workers."""
    pools = []

    class InProcessPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
    for target, out, jobs in [(pipeline["dataset"] / "blurry_000.pcf", "one", "4"),
                              (pipeline["dataset"], "three", "8")]:
        assert main(["deblur", str(target), "--prior", pipeline["prior"], "--out",
                     str(tmp_path / out), "--config", pipeline["ini"], "--jobs", jobs]) == 0
    assert pools == [3]


def test_deblur_seed_changes_the_output(pipeline, tmp_path):
    out1 = tmp_path / "s1"
    out2 = tmp_path / "s2"
    base = ["deblur", str(pipeline["dataset"] / "blurry_000.pcf"), "--prior",
            pipeline["prior"], "--config", pipeline["ini"]]
    assert main(base + ["--out", str(out1), "--seed", "1"]) == 0
    assert main(base + ["--out", str(out2), "--seed", "2"]) == 0
    a = (out1 / "blurry_000_deblurred.pcf").read_bytes()
    b = (out2 / "blurry_000_deblurred.pcf").read_bytes()
    assert a != b


def test_eval_scores_predictions_against_observations(pipeline, tmp_path):
    deblurred = tmp_path / "deblurred"
    assert main(["deblur", str(pipeline["dataset"]), "--prior", pipeline["prior"],
                 "--out", str(deblurred), "--config", pipeline["ini"], "--seed", "5"]) == 0
    report = tmp_path / "report.csv"
    rc = main(["eval", "--pred", str(deblurred), "--obs", str(pipeline["dataset"]),
               "--out", str(report), "--config", pipeline["ini"],
               "--pred-pattern", "*_deblurred.pcf", "--obs-pattern", "clean_*.pcf",
               "--label", "tiny"])
    assert rc == 0
    rows = pc.read_csi_report_csv(report)
    assert [r[2] for r in rows] == [1, 4]  # the configured poolings, in order
    for label, tau, pool, tp, fp, fn, score in rows:
        assert label == "tiny"
        assert 0.0 <= score <= 1.0
        assert score == pytest.approx(tp / max(tp + fp + fn, 1) if tp + fp + fn else 1.0)


def test_eval_rejects_mismatched_counts(pipeline, tmp_path):
    rc = main(["eval", "--pred", str(pipeline["dataset"]), "--obs", str(pipeline["dataset"]),
               "--out", str(tmp_path / "r.csv"), "--pred-pattern", "clean_*.pcf",
               "--obs-pattern", "*.pcf"])
    assert rc == 2


def eval_blurry_copies(pipeline, tmp_path, names):
    """eval of the dataset's blurry grids 0, 1, 2, copied under ``names``."""
    pred = tmp_path / "pred"
    pred.mkdir()
    for i, name in enumerate(names):
        (pred / name).write_bytes((pipeline["dataset"] / f"blurry_{i:03d}.pcf").read_bytes())
    report = tmp_path / "r.csv"
    rc = main(["eval", "--pred", str(pred), "--obs", str(pipeline["dataset"]),
               "--out", str(report), "--config", pipeline["ini"],
               "--pred-pattern", "*.pcf", "--obs-pattern", "clean_*.pcf"])
    return rc, report


def test_eval_pairs_through_the_index_not_by_position(pipeline, tmp_path, capsys):
    """Equal counts with names shifted by one: grid 2's prediction has no
    observation, so eval names it and exits 2 before writing a report."""
    names = ["blurry_001_deblurred.pcf", "blurry_002_deblurred.pcf", "blurry_003_deblurred.pcf"]
    rc, report = eval_blurry_copies(pipeline, tmp_path, names)
    assert rc == 2
    assert "blurry_003_deblurred.pcf" in capsys.readouterr().err
    assert not report.exists()


def test_eval_rejects_a_doubly_matched_observation(pipeline, tmp_path, capsys):
    names = ["blurry_000.pcf", "blurry_000_deblurred.pcf", "blurry_001.pcf"]
    rc, report = eval_blurry_copies(pipeline, tmp_path, names)
    assert rc == 2
    assert "clean_000.pcf" in capsys.readouterr().err
    assert not report.exists()


def test_eval_pairs_by_name_when_the_index_reorders(pipeline, tmp_path):
    """An index pairing clean_000 with blurry_002 (and 002 with 000): each
    prediction holds the clean field of its index partner, so pairing by
    name scores perfectly, where sorted position would pair 000 with 002."""
    obs = tmp_path / "obs"
    obs.mkdir()
    pred = tmp_path / "pred"
    pred.mkdir()
    entries = []
    for i in range(3):
        clean = f"clean_{i:03d}.pcf"
        (obs / clean).write_bytes((pipeline["dataset"] / clean).read_bytes())
        partner = f"blurry_{2 - i:03d}"
        (pred / f"{partner}_deblurred.pcf").write_bytes((obs / clean).read_bytes())
        entries.append({"clean": clean, "blurry": partner + ".pcf"})
    (obs / "index.json").write_text(json.dumps({"entries": entries}))
    report = tmp_path / "r.csv"
    assert main(["eval", "--pred", str(pred), "--obs", str(obs), "--out", str(report),
                 "--config", pipeline["ini"], "--obs-pattern", "clean_*.pcf"]) == 0
    for label, tau, pool, tp, fp, fn, score in pc.read_csi_report_csv(report):
        assert (fp, fn, score) == (0, 0, 1.0)


def test_ablate_compares_the_three_variants(pipeline, tmp_path):
    out = tmp_path / "ablation"
    rc = main(["ablate", str(pipeline["dataset"]), "--prior", pipeline["prior"],
               "--out", str(out), "--config", pipeline["ini"], "--seed", "5"])
    assert rc == 0
    for variant in ("model_a", "model_c", "postcast"):
        assert (out / variant / "blurry_000_deblurred.pcf").exists()
    summary = pc.read_csi_report_csv(out / "ablation_summary.csv")
    assert len(summary) == 6  # 3 variants x 2 poolings
    assert {row[0] for row in summary} == {"model_a", "model_c", "postcast"}
    detail = pc.read_csi_report_csv(out / "ablation.csv")
    assert len(detail) == 18  # 3 variants x 2 poolings x 3 instances
    assert detail[0][0].startswith("model_a:")


def test_ablate_jobs_do_not_change_output_bits(pipeline, tmp_path):
    """Grid i runs on seed ^ i in any worker: --jobs 2 matches --jobs 1 byte for byte."""
    base = ["ablate", str(pipeline["dataset"]), "--prior", pipeline["prior"],
            "--config", pipeline["ini"], "--seed", "5"]
    serial, pooled = tmp_path / "serial", tmp_path / "pooled"
    assert main(base + ["--out", str(serial)]) == 0
    assert main(base + ["--out", str(pooled), "--jobs", "2"]) == 0
    written = sorted(p.relative_to(serial) for p in serial.rglob("*") if p.is_file())
    assert written == sorted(p.relative_to(pooled) for p in pooled.rglob("*") if p.is_file())
    compared = [p for p in written if p.name != "manifest.json"]  # carries wall-clock timing
    for path in compared:
        assert (pooled / path).read_bytes() == (serial / path).read_bytes(), path
    assert len(compared) == 3 * 9 + 2  # 3 variants x 3 stems x 3 files, plus the two reports


@pytest.mark.parametrize("command", ["deblur", "ablate"])
def test_prior_is_loaded_once_per_command(pipeline, tmp_path, monkeypatch, command):
    calls = []
    load = cli._load_prior

    def counting_load(path):
        calls.append(path)
        return load(path)

    monkeypatch.setattr(cli, "_load_prior", counting_load)
    assert main([command, str(pipeline["dataset"]), "--prior", pipeline["prior"],
                 "--out", str(tmp_path / "o"), "--config", pipeline["ini"]]) == 0
    assert calls == [pipeline["prior"]]


def test_ablate_reads_each_blurry_grid_once(pipeline, tmp_path, monkeypatch):
    """The three variants deblur the same loaded grids: each blurry file is
    read once, not once per variant."""
    reads = []
    read = cli.read_grid

    def counting_read(path):
        reads.append(Path(path))
        return read(path)

    monkeypatch.setattr(cli, "read_grid", counting_read)
    assert main(["ablate", str(pipeline["dataset"]), "--prior", pipeline["prior"],
                 "--out", str(tmp_path / "o"), "--config", pipeline["ini"]]) == 0
    blurry = sorted(pipeline["dataset"].glob("blurry_*.pcf"))
    assert len(blurry) == 3
    assert sorted(path for path in reads if path in blurry) == blurry


def test_exit_code_usage_errors(tmp_path):
    assert main(["nope"]) == 1
    assert main(["deblur"]) == 1  # missing required arguments
    assert main([]) == 1
    # train's batch size and learning rate are constants, not flags
    for flag, value in (("--batch-size", "8"), ("--learning-rate", "1e-2")):
        out = tmp_path / flag
        assert main(["train", str(tmp_path), "--out", str(out), flag, value]) == 1
        assert not out.exists()
    # eval draws nothing, so it takes no seed
    out = tmp_path / "eval" / "csi.csv"
    assert main(["eval", "--pred", str(tmp_path), "--obs", str(tmp_path), "--out", str(out),
                 "--seed", "3"]) == 1
    assert not out.parent.exists()


@pytest.mark.parametrize("flag", ["--pred-pattern", "--obs-pattern"])
@pytest.mark.parametrize("pattern", ["", "absolute", ".", "a**.pcf"],
                         ids=["empty", "absolute", "dot", "partial-double-star"])
def test_bad_glob_pattern_is_a_usage_error(pipeline, tmp_path, capsys, flag, pattern):
    """A pattern Path.glob rejects is a usage error naming the flag, not a
    traceback, and nothing is written."""
    dataset = str(pipeline["dataset"])
    if pattern == "absolute":
        pattern = str(pipeline["dataset"] / "clean_*.pcf")
    out = tmp_path / "eval" / "csi.csv"
    rc = main(["eval", "--pred", dataset, "--obs", dataset, "--out", str(out), flag, pattern])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and flag in err
    assert not out.parent.exists()


@pytest.mark.parametrize("command", ["gen", "fit-prior", "train", "deblur", "eval", "ablate"])
def test_each_command_writes_its_manifest(pipeline, tmp_path, command):
    """The manifest sits at its documented path with exactly the documented
    keys; its seed is --seed, else [data] seed, and null for eval; every
    output it names exists beside it; and its config is the loaded config."""
    ini = tiny_ini_with(tmp_path / "seeded.ini", "data", "seed", "11")
    dataset, prior, out = str(pipeline["dataset"]), pipeline["prior"], tmp_path / "out"
    argv, manifest_name, seed = {
        "gen": (["--out", str(out), "--seed", "5"], "manifest.json", 5),
        "fit-prior": ([dataset, "--k", "3", "--out", str(out / "prior.pcgm")],
                      "prior.pcgm.manifest.json", 11),
        "train": ([dataset, "--epochs", "1", "--out", str(out)], "manifest.json", 11),
        "deblur": ([dataset, "--prior", prior, "--out", str(out), "--seed", "3"],
                   "manifest.json", 3),
        "eval": (["--pred", dataset, "--obs", dataset, "--pred-pattern", "blurry_*.pcf",
                  "--obs-pattern", "clean_*.pcf", "--out", str(out / "csi.csv")],
                 "csi.csv.manifest.json", None),
        "ablate": ([dataset, "--prior", prior, "--out", str(out)], "manifest.json", 11),
    }[command]
    assert main([command, *argv, "--config", ini]) == 0
    manifest = json.loads((out / manifest_name).read_text())
    assert set(manifest) == {"command", "package_version", "config", "seed", "inputs",
                             "outputs", "stages", "started_unix", "wall_seconds"}
    assert manifest["command"] == command
    assert manifest["seed"] == seed
    assert manifest["outputs"]
    for name in manifest["outputs"]:
        assert (out / name).is_file(), name
    assert manifest["config"] == json.loads(json.dumps(asdict(load_config(ini))))


def test_exit_code_data_and_config_errors(pipeline, tmp_path):
    missing = str(tmp_path / "absent")
    assert main(["deblur", missing, "--prior", pipeline["prior"], "--out", str(tmp_path / "o1")]) == 2
    assert main(["deblur", str(pipeline["dataset"]), "--prior", str(tmp_path / "absent.pcgm"),
                 "--out", str(tmp_path / "o2")]) == 2
    bad_ini = tmp_path / "bad.ini"
    bad_ini.write_text("[schedule]\nt = 1\n")
    assert main(["gen", "--out", str(tmp_path / "o3"), "--config", str(bad_ini)]) == 2
    not_a_prior = tmp_path / "garbage.pcgm"
    not_a_prior.write_bytes(b"GARBAGE!")
    assert main(["deblur", str(pipeline["dataset"]), "--prior", str(not_a_prior),
                 "--out", str(tmp_path / "o4")]) == 2


@pytest.mark.parametrize(
    "case",
    [
        "deblur-bad-prior-magic",
        "ablate-bad-prior-magic",
        "fit-prior-k-above-field-count",
        "train-zero-epochs",
        "eval-count-mismatch",
        "gen-beta-1-above-beta-t",
        "deblur-beta-1-above-beta-t",
        "deblur-beta-t-above-one",
        "gen-config-not-utf-8",
        "gen-varied-blurs-at-severity-0",
        "gen-count-0",
        "deblur-missing-grid-file",
        "deblur-second-grid-missing",
        "deblur-second-grid-garbage",
        "deblur-second-grid-wrong-shape",
        "ablate-second-grid-missing",
    ],
)
def test_rejected_command_creates_no_output(pipeline, tmp_path, capsys, case):
    """Every input is checked before the output directory is made, so a
    rejected command leaves no empty directory behind, and no outputs of the
    grids before a bad one; a bad grid is named."""
    dataset, ini = str(pipeline["dataset"]), pipeline["ini"]
    # entry 1's blurry grid deleted, replaced by garbage, or at 8x8 against
    # the 16x16 mixture
    broken = {}
    for name in ("missing", "garbage", "wrong-shape"):
        broken[name] = tmp_path / name
        shutil.copytree(pipeline["dataset"], broken[name])
    (broken["missing"] / "blurry_001.pcf").unlink()
    (broken["garbage"] / "blurry_001.pcf").write_bytes(b"GARBAGE!")
    small = pc.read_grid(pipeline["dataset"] / "blurry_001.pcf").values[:8, :8]
    pc.write_grid(broken["wrong-shape"] / "blurry_001.pcf", pc.Field(small, pc.DATA_UNITS))
    empty = tiny_ini_with(tmp_path / "empty.ini", "data", "count", "0")
    not_a_prior = tmp_path / "garbage.pcgm"
    not_a_prior.write_bytes(b"GARBAGE!")
    bad_schedule = tiny_ini_with(tmp_path / "schedule.ini", "schedule", "beta_1", "0.06")
    hot_schedule = tiny_ini_with(tmp_path / "hot.ini", "schedule", "beta_t", "1.5")
    latin1_ini = tmp_path / "latin1.ini"
    latin1_ini.write_bytes(b"[schedule]\nt = 10\n; \xff\n")
    unplanned = tiny_ini_with(tmp_path / "unplanned.ini", "data", "severity", "0")
    out = tmp_path / "out"
    argv = {
        "deblur-bad-prior-magic": ["deblur", dataset, "--prior", str(not_a_prior),
                                   "--out", str(out), "--config", ini],
        "ablate-bad-prior-magic": ["ablate", dataset, "--prior", str(not_a_prior),
                                   "--out", str(out), "--config", ini],
        "fit-prior-k-above-field-count": ["fit-prior", dataset, "--k", "5",
                                          "--out", str(out / "prior.pcgm"), "--config", ini],
        "train-zero-epochs": ["train", dataset, "--epochs", "0", "--out", str(out),
                              "--config", ini],
        "eval-count-mismatch": ["eval", "--pred", dataset, "--obs", dataset,
                                "--pred-pattern", "clean_*.pcf", "--obs-pattern", "*.pcf",
                                "--out", str(out / "csi.csv"), "--config", ini],
        "gen-beta-1-above-beta-t": ["gen", "--out", str(out), "--config", bad_schedule],
        "deblur-beta-1-above-beta-t": ["deblur", dataset, "--prior", pipeline["prior"],
                                       "--out", str(out), "--config", bad_schedule],
        "deblur-beta-t-above-one": ["deblur", dataset, "--prior", pipeline["prior"],
                                    "--out", str(out), "--config", hot_schedule],
        "gen-config-not-utf-8": ["gen", "--out", str(out), "--config", str(latin1_ini)],
        "gen-varied-blurs-at-severity-0": ["gen", "--out", str(out), "--config", unplanned],
        "gen-count-0": ["gen", "--out", str(out), "--config", empty],
        "deblur-missing-grid-file": ["deblur", str(tmp_path / "absent.pcf"), "--prior",
                                     pipeline["prior"], "--out", str(out), "--config", ini],
        "deblur-second-grid-missing": ["deblur", str(broken["missing"]), "--prior",
                                       pipeline["prior"], "--out", str(out), "--config", ini],
        "deblur-second-grid-garbage": ["deblur", str(broken["garbage"]), "--prior",
                                       pipeline["prior"], "--out", str(out), "--config", ini],
        "deblur-second-grid-wrong-shape": ["deblur", str(broken["wrong-shape"]), "--prior",
                                           pipeline["prior"], "--out", str(out),
                                           "--config", ini],
        "ablate-second-grid-missing": ["ablate", str(broken["missing"]), "--prior",
                                       pipeline["prior"], "--out", str(out), "--config", ini],
    }[case]
    assert main(argv) == 2
    assert not out.exists()
    if "grid" in case:
        bad = argv[1] if argv[1].endswith(".pcf") else str(Path(argv[1]) / "blurry_001.pcf")
        assert bad in capsys.readouterr().err


@pytest.mark.parametrize("command", ["deblur", "train", "ablate", "deblur-over-a-non-manifest"])
def test_rejected_command_keeps_another_commands_out(pipeline, tmp_path, capsys, command):
    """A directory command whose --out holds a manifest.json that another
    command wrote, or that is no manifest, exits 2 before it writes
    anything: the directory's files and its manifest stay as they were."""
    out = tmp_path / "dataset"
    shutil.copytree(pipeline["dataset"], out)
    if command == "deblur-over-a-non-manifest":
        (out / "manifest.json").write_text("{not json")
        command = "deblur"
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    extra = [] if command == "train" else ["--prior", pipeline["prior"]]
    assert main([command, str(out), *extra, "--out", str(out), "--config", pipeline["ini"]]) == 2
    assert "manifest.json" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_a_command_may_rerun_into_its_own_out(pipeline, tmp_path):
    out = tmp_path / "dataset"
    for _ in range(2):
        assert main(["gen", "--out", str(out), "--config", pipeline["ini"], "--seed", "5"]) == 0
    assert json.loads((out / "manifest.json").read_text())["command"] == "gen"


def test_main_builds_one_parser_and_runs_the_command_bound_at_call_time(tmp_path, monkeypatch):
    """Every main call parses with the same parser, and dispatches to the
    module's cmd_* function as bound when the call runs."""
    parsers, runs = [], []
    parse = cli._Parser.parse_args

    def recording_parse(self, *args, **kwargs):
        parsers.append(self)
        return parse(self, *args, **kwargs)

    def patched_eval(args, config, seed):
        runs.append(args.label)
        return [], ["none.csv"], []

    monkeypatch.setattr(cli._Parser, "parse_args", recording_parse)
    monkeypatch.setattr(cli, "cmd_eval", patched_eval)
    for label in ("first", "second"):
        out = tmp_path / f"{label}.csv"
        assert main(["eval", "--pred", str(tmp_path), "--obs", str(tmp_path), "--out", str(out),
                     "--label", label]) == 0
    assert len(parsers) == 2 and parsers[0] is parsers[1]
    assert runs == ["first", "second"]


def test_negative_seed_is_a_usage_or_config_error(tmp_path, capsys):
    """--seed -1 is a usage error (1); [data] seed = -1 is a config error (2)."""
    assert main(["gen", "--out", str(tmp_path / "o1"), "--seed", "-1"]) == 1
    assert "seed must be >= 0" in capsys.readouterr().err
    ini = tmp_path / "negative.ini"
    ini.write_text(TINY_INI.replace("count = 3", "count = 3\nseed = -1"))
    assert main(["gen", "--out", str(tmp_path / "o2"), "--config", str(ini)]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err


def tiny_ini_with(path, section, key, value):
    """TINY_INI with one setting replaced or added."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(TINY_INI)
    parser[section][key] = value
    with open(path, "w") as fh:
        parser.write(fh)
    return str(path)


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("guidance", "c", "nan"),
        ("guidance", "c", "-inf"),
        ("guidance", "lr", "nan"),
        ("guidance", "lr", "inf"),
        ("kernel", "init_mean", "nan"),
        ("kernel", "init_mean", "inf"),
        ("kernel", "init_mean", "-inf"),
        ("kernel", "init_std", "nan"),
        ("kernel", "init_std", "inf"),
        ("kernel", "init_std", "1e308"),
        ("eval", "tau", "nan"),
        ("eval", "tau", "inf"),
        ("eval", "tau", "-inf"),
        ("data", "cells_mean", "inf"),
    ],
)
def test_non_finite_setting_is_a_config_error(pipeline, tmp_path, capsys, section, key, value):
    """Rejected while the config loads (exit 2, the key named), not after a
    numeric failure at the first step (exit 3), a warning, saturated grids
    or a false perfect CSI."""
    ini = tiny_ini_with(tmp_path / "bad.ini", section, key, value)
    out = tmp_path / "out"
    dataset = str(pipeline["dataset"])
    if section == "eval":
        argv = ["eval", "--pred", dataset, "--obs", dataset, "--pred-pattern", "blurry_*.pcf",
                "--obs-pattern", "clean_*.pcf", "--out", str(out / "csi.csv")]
    elif section == "data":
        argv = ["gen", "--out", str(out)]
    else:
        argv = ["deblur", dataset, "--prior", pipeline["prior"], "--out", str(out)]
    assert main(argv + ["--config", ini]) == 2
    err = capsys.readouterr().err
    assert f"{key} must" in err
    assert "Warning" not in err
    assert not out.exists()


def test_infinite_s_max_is_still_accepted(pipeline, tmp_path):
    ini = tiny_ini_with(tmp_path / "uncapped.ini", "guidance", "s_max", "inf")
    assert load_config(ini).guidance.s_max == float("inf")
    out = tmp_path / "out"
    assert main(["deblur", str(pipeline["dataset"]), "--prior", pipeline["prior"],
                 "--out", str(out), "--config", ini]) == 0
    assert len(list(out.glob("*_deblurred.pcf"))) == 3


@pytest.mark.parametrize("command", ["deblur", "ablate"])
@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_below_one_is_a_usage_error(pipeline, tmp_path, capsys, command, jobs):
    out = tmp_path / "o"
    rc = main([command, str(pipeline["dataset"]), "--prior", pipeline["prior"],
               "--out", str(out), "--config", pipeline["ini"], "--jobs", jobs])
    assert rc == 1
    assert f"jobs must be >= 1, got {jobs}" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_grid_is_bad_data(pipeline, tmp_path, capsys):
    """A NaN stored in an input grid exits 2, names the file and leaves no
    --out."""
    field = pc.read_grid(pipeline["dataset"] / "blurry_000.pcf")
    bad = tmp_path / "nan.pcf"
    pc.write_grid(bad, field)
    blob = bytearray(bad.read_bytes())
    blob[12:16] = np.array([np.nan], dtype="<f4").tobytes()
    bad.write_bytes(bytes(blob))
    with pytest.raises(pc.GridFileError, match="non-finite"):
        pc.read_grid(bad)
    rc = main(["deblur", str(bad), "--prior", pipeline["prior"], "--out", str(tmp_path / "o"),
               "--config", pipeline["ini"]])
    assert rc == 2
    assert str(bad) in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_train_that_overflows_float32_exits_3_and_writes_no_blob(
    pipeline, tmp_path, capsys, monkeypatch
):
    """A learning rate of 1e300 leaves finite float64 weights that float32
    cannot hold: exit 3 and no .pcdn, not a blob that deblur rejects, no
    --out directory, and no raw RuntimeWarning when warnings are errors."""
    monkeypatch.setattr(denoisers, "LEARNING_RATE", 1e300)
    for mode in ("default", "error"):
        out = tmp_path / mode
        with warnings.catch_warnings():
            warnings.simplefilter(mode, RuntimeWarning)
            rc = main(["train", str(pipeline["dataset"]), "--out", str(out),
                       "--config", pipeline["ini"], "--epochs", "1"])
        assert rc == 3
        assert "numeric error: layer 0:" in capsys.readouterr().err
        assert not (out / "denoiser.pcdn").exists()
        assert not out.exists()


def test_deblur_with_a_trained_conv_prior(pipeline, tmp_path):
    """train, then deblur with the .pcdn prior: outputs in [0, 1], and both
    the trained blob and the deblurred grids are bitwise stable on rerun."""
    blobs = []
    for name in ("train_a", "train_b"):
        assert main(["train", str(pipeline["dataset"]), "--out", str(tmp_path / name),
                     "--config", pipeline["ini"], "--epochs", "1", "--seed", "4"]) == 0
        blobs.append((tmp_path / name / "denoiser.pcdn").read_bytes())
    assert blobs[0] == blobs[1]
    prior = str(tmp_path / "train_a" / "denoiser.pcdn")
    for name in ("a", "b"):
        assert main(["deblur", str(pipeline["dataset"]), "--prior", prior,
                     "--out", str(tmp_path / name), "--config", pipeline["ini"],
                     "--seed", "3"]) == 0
    for i in range(3):
        grid = f"blurry_{i:03d}_deblurred.pcf"
        values = pc.read_grid(tmp_path / "a" / grid).values
        assert values.shape == (16, 16)
        assert values.min() >= 0.0 and values.max() <= 1.0
        assert (tmp_path / "a" / grid).read_bytes() == (tmp_path / "b" / grid).read_bytes()


def _denoiser_blob(layers) -> bytes:
    """A .pcdn blob of zero parameters with the given (c_out, c_in, k) layers."""
    parts = [DENOISER_MAGIC, struct.pack("<II", DENOISER_VERSION, len(layers))]
    for c_out, c_in, k in layers:
        parts.append(struct.pack("<III", c_out, c_in, k))
        parts.append(bytes(4 * (c_out * c_in * k * k + 2 * c_out)))
    return b"".join(parts)


@pytest.mark.parametrize(
    "layers",
    [[(8, 1, 3), (1, 3, 3)], [], [(8, 2, 3), (1, 8, 3)], [(8, 1, 2), (1, 8, 2)],
     [(4, 1, 3), (1, 4, 3)]],
    ids=["chain-mismatch", "no-layers", "two-input-channels", "even-kernels", "one-four-one"],
)
def test_malformed_conv_prior_is_bad_data(pipeline, tmp_path, capsys, layers):
    """Well-framed v1 blobs of any net but the shipped one: the error names
    the weight shapes that load."""
    prior = tmp_path / "bad.pcdn"
    prior.write_bytes(_denoiser_blob(layers))
    rc = main(["deblur", str(pipeline["dataset"] / "blurry_000.pcf"), "--prior", str(prior),
               "--out", str(tmp_path / "o"), "--config", pipeline["ini"]])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(CONV_SHAPES) in err


def test_conv_prior_whose_layer_header_overflows_int64_is_bad_data(pipeline, tmp_path, capsys):
    """A layer header of three 0xFFFFFFFF promises more parameter bytes than
    int64 holds; the size check must see the exact count, not a wrapped one.
    Built by hand: _denoiser_blob would allocate the promised payload."""
    prior = tmp_path / "bad.pcdn"
    prior.write_bytes(DENOISER_MAGIC + struct.pack("<II", DENOISER_VERSION, 1)
                      + struct.pack("<III", 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF) + bytes(64))
    out = tmp_path / "o"
    rc = main(["deblur", str(pipeline["dataset"] / "blurry_000.pcf"), "--prior", str(prior),
               "--out", str(out), "--config", pipeline["ini"]])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"wanted {4 * 0xFFFFFFFF ** 4} bytes" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "text",
    [b'{"count": 1}', b"{not json", b'{"entries": 5}', b'{"entries": [{}]}',
     b'{"entries": ["x"]}', b'{"entries": [\xff]}'],
    ids=["no-entries", "bad-json", "entries-not-a-list", "entry-without-blurry",
         "entry-not-an-object", "not-utf-8"],
)
def test_malformed_index_is_bad_data(tmp_path, capsys, text):
    dataset = tmp_path / "dataset"
    dataset.mkdir()
    (dataset / "index.json").write_bytes(text)
    rc = main(["fit-prior", str(dataset), "--out", str(tmp_path / "prior.pcgm")])
    assert rc == 2
    assert str(dataset / "index.json") in capsys.readouterr().err


@pytest.mark.parametrize("command", ["deblur", "ablate"])
def test_index_entries_that_share_a_blurry_stem_are_bad_data(pipeline, tmp_path, capsys, command):
    """Outputs are named after the blurry stem, so blurry_000.pcf and
    sub/blurry_000.pcf would write one set of files: exit 2, naming both
    entries, before any output exists."""
    dataset = tmp_path / "dataset"
    shutil.copytree(pipeline["dataset"], dataset)
    (dataset / "sub").mkdir()
    shutil.copy(dataset / "blurry_000.pcf", dataset / "sub" / "blurry_000.pcf")
    entries = json.loads((dataset / "index.json").read_text())["entries"]
    entries.insert(1, dict(entries[0], blurry="sub/blurry_000.pcf"))
    (dataset / "index.json").write_text(json.dumps({"entries": entries}))
    out = tmp_path / "out"
    assert main([command, str(dataset), "--prior", pipeline["prior"], "--out", str(out),
                 "--config", pipeline["ini"]]) == 2
    err = capsys.readouterr().err
    assert "entries 0 ('blurry_000.pcf') and 1 ('sub/blurry_000.pcf') share a blurry stem" in err
    assert not out.exists()


@pytest.mark.parametrize("suffix", [".pcgm", ".pcdn"])
def test_prior_blob_with_trailing_bytes_is_bad_data(pipeline, tmp_path, capsys, suffix):
    """A prior blob longer than its header implies is rejected, like a grid."""
    prior = tmp_path / ("long" + suffix)
    if suffix == ".pcgm":
        prior.write_bytes(Path(pipeline["prior"]).read_bytes() + b"garbage!")
    else:
        prior.write_bytes(denoisers.denoiser_bytes(pc.init_conv_denoiser(seed=0)) + b"garbage!")
    rc = main(["deblur", str(pipeline["dataset"] / "blurry_000.pcf"), "--prior", str(prior),
               "--out", str(tmp_path / "o"), "--config", pipeline["ini"]])
    assert rc == 2
    assert "expected" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_truncated_grid_is_bad_data_and_named(pipeline, tmp_path, capsys):
    short = tmp_path / "short.pcf"
    short.write_bytes(b"PCF1")
    rc = main(["deblur", str(short), "--prior", pipeline["prior"], "--out", str(tmp_path / "o"),
               "--config", pipeline["ini"]])
    assert rc == 2
    assert str(short) in capsys.readouterr().err


def test_exit_code_numeric_failure(pipeline, tmp_path):
    divergent = tmp_path / "divergent.ini"
    divergent.write_text(TINY_INI.replace("lr = 0.005", "lr = 50.0"))
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["deblur", str(pipeline["dataset"] / "blurry_000.pcf"),
                   "--prior", pipeline["prior"], "--out", str(tmp_path / "o"),
                   "--config", str(divergent), "--seed", "5"])
    assert rc == 3


def test_a_diverging_run_exits_3_when_warnings_are_errors(pipeline, tmp_path, capsys):
    """numpy's overflow warnings from the diverging mixture query are not
    raised as errors: stage 1's own check reports the blow-up and the run
    exits 3, not 1 with a raw traceback."""
    divergent = tmp_path / "divergent.ini"
    divergent.write_text(TINY_INI.replace("lr = 0.005", "lr = 50.0"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["deblur", str(pipeline["dataset"] / "blurry_000.pcf"),
                   "--prior", pipeline["prior"], "--out", str(tmp_path / "o"),
                   "--config", str(divergent), "--seed", "5"])
    assert rc == 3
    assert "stage 1 (clean estimate)" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["deblur", "fit-prior", "ablate"])
def test_empty_dataset_is_bad_data(pipeline, tmp_path, capsys, command):
    """An index.json listing no entries exits 2 with one message, whichever
    command reads it."""
    dataset = tmp_path / "dataset"
    dataset.mkdir()
    (dataset / "index.json").write_text('{"count": 0, "entries": []}')
    args = [command, str(dataset), "--out", str(tmp_path / "out")]
    if command != "fit-prior":
        args += ["--prior", pipeline["prior"], "--config", pipeline["ini"]]
    assert main(args) == 2
    assert f"dataset at {dataset} is empty" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_mixture_prior_shape_mismatch_is_bad_data_and_named(pipeline, tmp_path, capsys, jobs):
    """A 16x16 mixture on 8x8 grids is rejected before --out is made, naming
    the grid file and both shapes."""
    dataset = tmp_path / "small"
    dataset.mkdir()
    field = pc.read_grid(pipeline["dataset"] / "blurry_000.pcf")
    pc.write_grid(dataset / "blurry_000.pcf", pc.Field(field.values[:8, :8], pc.DATA_UNITS))
    out = tmp_path / "out"
    rc = main(["deblur", str(dataset), "--prior", pipeline["prior"], "--out", str(out),
               "--config", pipeline["ini"], "--jobs", jobs])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(dataset / "blurry_000.pcf") in err
    assert "(8, 8)" in err and "(16, 16)" in err
    assert not out.exists()
