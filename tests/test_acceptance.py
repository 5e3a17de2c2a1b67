"""End-to-end acceptance checklist for the deblurring pipeline.

Nine criteria, one test each, and every test prints a single PASS/FAIL
line so a verbose run doubles as a report.  Criteria 4 through 8 share a
module-scoped pipeline run: a 16-component mixture prior fit on 300
synthetic fields, a 30-pair planted-blur suite, and one `ablate`
invocation covering all three guidance variants.  Criteria 4 through 7
run a second time, with the same bounds, on an `ablate` of the same prior
and suite under the shipped profile `configs/synthetic.ini`.  Tolerances
live next to the assertions they bound.
"""

import json
import math
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import spearmanr

import postcast as pc
from postcast.cli import main
from reference import alpha_bars

POOLS = (1, 4, 16)
SHIPPED_INI = Path(__file__).resolve().parent.parent / "configs" / "synthetic.ini"

SUITE_INI = """\
[schedule]
t = 250
beta_1 = 0.0001
beta_t = 0.06

[kernel]
size = 9
init_mean = 0.006
init_std = 0.002

[guidance]
lr = 0.005
c = -220.0
s_max = 3500.0

[eval]
poolings = 1,4,16
"""


def _report(capsys, number: int, ok: bool, detail: str, label: str = "") -> None:
    with capsys.disabled():
        print(f"[criterion {number}{label}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Fit a prior, plant a 30-pair blur suite, run `ablate` once, timed."""
    root = tmp_path_factory.mktemp("acceptance")
    suite = root / "suite"
    suite.mkdir()

    train = pc.generate_fields(
        pc.FieldSpec(height=64, width=64, seed=42, cells_mean=7.0,
                     amplitude_range=(0.5, 0.95), sigma_range=(1.0, 3.0)), 300)
    gmm = pc.fit_gmm_prior(train, 16, seed=9)
    prior = root / "prior.pcgm"
    pc.save_gmm(prior, gmm)

    cleans = pc.generate_fields(
        pc.FieldSpec(height=64, width=64, seed=777, cells_mean=7.0,
                     amplitude_range=(0.5, 0.95), sigma_range=(1.0, 3.0)), 30)
    plan = [("gaussian", 4), ("motion", 3), ("mixed", 4),
            ("gaussian", 5), ("motion", 4), ("mixed", 5)]
    entries = []
    for i, clean in enumerate(cleans):
        family, severity = plan[i % len(plan)]
        pair = pc.plant_blur(clean, family, severity)
        names = {"clean": f"clean_{i:03d}.pcf", "blurry": f"blurry_{i:03d}.pcf",
                 "kernel": f"kernel_{i:03d}.csv", "family": family,
                 "severity": severity}
        pc.write_grid(suite / names["clean"], pair.clean)
        pc.write_grid(suite / names["blurry"], pair.blurry)
        pc.write_kernel_csv(suite / names["kernel"], pair.kernel_true)
        entries.append(names)
    (suite / "index.json").write_text(
        json.dumps({"count": len(entries), "entries": entries},
                   indent=2, sort_keys=True) + "\n")

    ini = root / "suite.ini"
    ini.write_text(SUITE_INI)

    ablation, seconds = _ablate(suite, prior, ini, root / "ablation")
    return SimpleNamespace(root=root, suite=suite, prior=prior, ini=ini,
                           ablation=ablation, entries=entries,
                           ablate_seconds=seconds)


@pytest.fixture(scope="module")
def shipped(pipeline):
    """The same prior and suite, ablated under `configs/synthetic.ini`."""
    ablation, seconds = _ablate(pipeline.suite, pipeline.prior, SHIPPED_INI,
                                pipeline.root / "ablation_shipped")
    return SimpleNamespace(suite=pipeline.suite, entries=pipeline.entries,
                           ablation=ablation, ablate_seconds=seconds)


def _ablate(suite, prior, ini, ablation):
    """One timed `ablate` of all three variants at seed 777."""
    started = time.time()
    rc = main(["ablate", str(suite), "--prior", str(prior),
               "--out", str(ablation), "--config", str(ini), "--seed", "777"])
    seconds = time.time() - started
    assert rc == 0
    return ablation, seconds


def _full_variant_artifacts(run):
    """Per-instance artifacts of the full-guidance variant, lazily read."""
    vdir = run.ablation / "postcast"
    for entry in run.entries:
        stem = Path(entry["blurry"]).stem
        yield SimpleNamespace(
            clean=pc.read_grid(run.suite / entry["clean"]),
            blurry=pc.read_grid(run.suite / entry["blurry"]),
            deblurred=pc.read_grid(vdir / f"{stem}_deblurred.pcf"),
            kernel=pc.read_kernel_csv(vdir / f"{stem}_kernel.csv"),
            trace=pc.read_trace_csv(vdir / f"{stem}_trace.csv"),
        )


def test_criterion_1_diffusion_algebra_and_schedule_invariants(capsys):
    started = time.time()
    sch = pc.linear_schedule(1000)

    # Noising then denoising with the same draw must reproduce the input.
    rng = np.random.default_rng(5)
    worst_rec = 0.0
    for t in (1, 250, 500, 1000):
        x0 = rng.uniform(-1, 1, (8, 8))
        noise = rng.standard_normal((8, 8))
        row = sch.coefficients(t)
        rec = pc.x0_from_noise(row, pc.forward_sample(row, x0, noise), noise)
        worst_rec = max(worst_rec, float(np.abs(rec - x0).max()))

    # Reverse-posterior statistics against brute-force Bayes on a grid.
    quad = pc.linear_schedule(50, 1e-4, 0.05)
    grid = np.linspace(-6, 6, 200001)
    x0v, xtv = 0.3, -0.7
    worst_quad = 0.0
    quad_bars = alpha_bars(quad)
    for t in (2, 10, 25, 50):
        beta = float(quad.betas[t - 1])
        ab_prev = quad_bars[t - 1]
        logp = (
            -0.5 * (xtv - math.sqrt(1.0 - beta) * grid) ** 2 / beta
            - 0.5 * (grid - math.sqrt(ab_prev) * x0v) ** 2 / (1.0 - ab_prev)
        )
        w = np.exp(logp - logp.max())
        w /= w.sum()
        mean_q = float((w * grid).sum())
        var_q = float((w * (grid - mean_q) ** 2).sum())
        row = quad.coefficients(t)
        mu = pc.posterior_mean(row, np.full((1, 1), x0v), np.full((1, 1), xtv))
        worst_quad = max(worst_quad,
                         abs(mu[0, 0] - mean_q), abs(row.var - var_q))

    bars = np.array([1.0] + [sch.coefficients(t).abar for t in range(1, sch.T + 1)])
    invariants = (
        sch.T == 1000
        and sch.betas[0] == 1e-4
        and sch.betas[-1] == 0.02
        and bars[0] == 1.0
        and bool(np.all(np.diff(bars) < 0))
        and bars[-1] < 5e-5
    )
    seconds = time.time() - started
    ok = (worst_rec <= 1e-6 and worst_quad <= 1e-4
          and invariants and seconds < 10.0)
    _report(capsys, 1, ok,
            f"recompose {worst_rec:.2e} <= 1e-6, "
            f"quadrature {worst_quad:.2e} <= 1e-4, "
            f"1000-step invariants {'hold' if invariants else 'violated'}, "
            f"{seconds:.1f}s < 10s")


def test_criterion_2_gradients_match_finite_differences_and_adjoint(capsys):
    started = time.time()
    worst_fd = 0.0
    h = 1e-6
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = 3 if seed % 2 == 0 else 9
        k = pc.BlurKernel(rng.normal(0.1, 0.3, size=(n, n)))
        u = pc.Field(rng.random((12, 14)), pc.DATA_UNITS)
        y = pc.Field(rng.random((12, 14)), pc.DATA_UNITS)
        _, gf, gk = pc.reblur(k, u, y)
        for idx in ((0, 0), (n // 2, n // 2), (n - 1, n - 1)):
            orig = k.params[idx]
            k.params[idx] = orig + h
            up = pc.reblur(k, u, y)[0]
            k.params[idx] = orig - h
            down = pc.reblur(k, u, y)[0]
            k.params[idx] = orig
            worst_fd = max(worst_fd, abs((up - down) / (2 * h) - gk[idx]))
        for pij in ((0, 0), (5, 7), (11, 13)):
            vals = u.values.copy()
            vals[pij] += h
            up = pc.reblur(k, pc.Field(vals, pc.DATA_UNITS), y)[0]
            vals[pij] -= 2 * h
            down = pc.reblur(k, pc.Field(vals, pc.DATA_UNITS), y)[0]
            worst_fd = max(worst_fd,
                           abs((up - down) / (2 * h) - gf.values[pij]))

    worst_adj = 0.0
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        n = 3 if seed % 2 else 9
        k = pc.BlurKernel(rng.normal(0.0, 0.5, size=(n, n)))
        u = pc.Field(rng.standard_normal((10, 17)), pc.DATA_UNITS)
        # On a zero field the pass's scaled residual is v = (2 / P) * (0 - y)
        # exactly, so its field gradient is the adjoint applied to v.
        y = pc.Field(rng.standard_normal((10, 17)), pc.DATA_UNITS)
        v = (2.0 / y.values.size) * (0.0 - y.values)
        lhs = float(np.sum(pc.convolve(k, u).values * v))
        rhs = float(np.sum(u.values * pc.reblur(k, u.like(np.zeros(u.shape)), y)[1].values))
        worst_adj = max(worst_adj, abs(lhs - rhs) / max(abs(lhs), 1.0))

    seconds = time.time() - started
    ok = worst_fd < 1e-5 and worst_adj < 1e-8 and seconds < 30.0
    _report(capsys, 2, ok,
            f"finite differences {worst_fd:.2e} < 1e-5 (20 instances), "
            f"adjoint {worst_adj:.2e} < 1e-8, {seconds:.1f}s < 30s")


def test_criterion_3_guided_mean_shift_equals_scaled_gradient(capsys):
    """Recompute every stage of a 100-step run from public pieces."""
    fields = pc.generate_fields(pc.FieldSpec(height=16, width=16, seed=21), 40)
    gmm = pc.fit_gmm_prior(fields, 4, iters=20, seed=1)
    clean = pc.generate_fields(pc.FieldSpec(height=16, width=16, seed=22), 1)[0]
    pair = pc.plant_blur(clean, "mixed", 3)

    sch = pc.linear_schedule(100, 1e-4, 0.05)
    bars = alpha_bars(sch)
    cfg = pc.GuidanceConfig(lr=0.005, C=-220.0, s_max=3500.0)
    rng = np.random.default_rng(12)
    kernel = pc.init_kernel(5, 0.02, 0.01, rng)
    ym = pc.to_model(pair.blurry)
    x = rng.standard_normal(ym.shape)
    worst = 0.0
    for t in range(sch.T, 0, -1):
        frozen = pc.BlurKernel(kernel.params.copy())
        row = sch.coefficients(t)
        eps_hat = gmm.predict_noise(x, t, sch)
        x0_est = np.clip(pc.x0_from_noise(row, x, eps_hat), -1.0, 1.0)
        loss, grad_x, _ = pc.reblur(frozen, pc.Field(x0_est, pc.MODEL_UNITS), ym)
        mu_u = pc.posterior_mean(row, x0_est, x)
        s = pc.auto_scale(x, mu_u, grad_x.values, loss, cfg)
        shift = s * (1.0 - bars[t]) / (math.sqrt(bars[t - 1]) * float(sch.betas[t - 1]))
        x0_g = x0_est - shift * grad_x.values
        mu_g = pc.posterior_mean(row, x0_g, x)
        dev = np.abs((mu_g - mu_u) + s * grad_x.values).max()
        worst = max(worst, float(dev))
        x, record = pc.guided_reverse_step(sch, gmm, kernel, ym.values, x, t, cfg, rng)
        assert record.loss == loss and record.scale == s
    _report(capsys, 3, worst <= 1e-9,
            f"max |mu_guided - mu_unguided + s*grad| = {worst:.2e} <= 1e-9 "
            f"over 100 steps")


def _check_criterion_4(run):
    rels = []
    for art in _full_variant_artifacts(run):
        xm = pc.to_model(art.deblurred)
        ym = pc.to_model(art.blurry)
        reblur = pc.convolve(art.kernel, xm)
        rels.append(float(np.sum((reblur.values - ym.values) ** 2)
                          / np.sum(ym.values ** 2)))
    hits = sum(r < 0.01 for r in rels)
    seconds = run.ablate_seconds
    ok = hits >= 27 and seconds < 600.0
    return ok, (f"relative reblur residual < 0.01 in {hits}/30 (need >= 27, "
                f"max {max(rels):.4f}), pipeline {seconds:.0f}s < 600s")


def _check_criterion_5(run):
    wins = {p: 0 for p in POOLS}
    deltas = {p: [] for p in POOLS}
    for art in _full_variant_artifacts(run):
        tau = pc.quantile_threshold(art.clean, 0.99)
        for p in POOLS:
            gain = (pc.csi(art.deblurred, art.clean, tau, p).csi
                    - pc.csi(art.blurry, art.clean, tau, p).csi)
            deltas[p].append(gain)
            wins[p] += gain > 0
    means = {p: float(np.mean(deltas[p])) for p in POOLS}
    ok = all(wins[p] >= 24 for p in POOLS) and all(means[p] > 0 for p in POOLS)
    return ok, ("strict wins " + " ".join(f"P{p}={wins[p]}/30" for p in POOLS)
                + " (need >= 24 each); mean deltas "
                + " ".join(f"P{p}={means[p]:+.3f}" for p in POOLS) + " all > 0")


def _check_criterion_6(run):
    rows = pc.read_csi_report_csv(run.ablation / "ablation_summary.csv")
    by = {(r[0], r[2]): r[6] for r in rows}
    parts, ok = [], True
    for p in (1, 16):
        full = by[("postcast", p)]
        kernel_only = by[("model_c", p)]
        frozen = by[("model_a", p)]
        ok &= full >= kernel_only >= frozen
        parts.append(f"P{p}: {full:.4f} >= {kernel_only:.4f} >= {frozen:.4f}")
    return ok, ("full >= kernel-update-only >= fixed-kernel on suite-mean CSI "
                + "; ".join(parts))


def _check_criterion_7(run):
    rhos = []
    for art in _full_variant_artifacts(run):
        means = [rec.kernel_mean for rec in art.trace]
        rho = spearmanr(np.arange(len(means)), means).statistic
        rhos.append(float(rho))
    median = float(np.median(rhos))
    return median > 0.8, (f"Spearman(kernel mean, reverse progress) median "
                          f"{median:.4f} > 0.8 (min {min(rhos):.4f})")


CHECKS_4_TO_7 = {4: _check_criterion_4, 5: _check_criterion_5,
                 6: _check_criterion_6, 7: _check_criterion_7}


def test_criterion_4_estimated_kernel_reblurs_to_the_input(capsys, pipeline):
    _report(capsys, 4, *_check_criterion_4(pipeline))


def test_criterion_5_deblurring_beats_the_blurry_baseline_on_csi(capsys, pipeline):
    _report(capsys, 5, *_check_criterion_5(pipeline))


def test_criterion_6_ablation_ranking_of_guidance_variants(capsys, pipeline):
    _report(capsys, 6, *_check_criterion_6(pipeline))


def test_criterion_7_kernel_mean_drifts_upward_through_sampling(capsys, pipeline):
    _report(capsys, 7, *_check_criterion_7(pipeline))


@pytest.mark.parametrize("number", sorted(CHECKS_4_TO_7))
def test_shipped_profile_keeps_criteria_4_to_7(capsys, shipped, number):
    _report(capsys, number, *CHECKS_4_TO_7[number](shipped),
            label=", configs/synthetic.ini")


def test_criterion_8_metrics_suite(capsys, pipeline):
    # Hand-counted CSI fixtures.
    pred = pc.Field(np.array([[1.0, 0.0], [1.0, 1.0]]), pc.DATA_UNITS)
    obs = pc.Field(np.array([[1.0, 1.0], [0.0, 1.0]]), pc.DATA_UNITS)
    score = pc.csi(pred, obs, 0.5)
    fixtures = (score.tp, score.fp, score.fn) == (2, 1, 1) and score.csi == 0.5

    # Pooling rescues a near-miss by construction, and the suite means
    # are ordered the same way (per instance it is a tendency, not a law).
    near_pred = pc.Field(np.zeros((4, 4)), pc.DATA_UNITS)
    near_obs = pc.Field(np.zeros((4, 4)), pc.DATA_UNITS)
    near_pred.values[0, 0] = 1.0
    near_obs.values[3, 3] = 1.0
    designed = (pc.csi(near_pred, near_obs, 0.5, pool=1).csi == 0.0
                and pc.csi(near_pred, near_obs, 0.5, pool=4).csi == 1.0)
    suite_means = {p: [] for p in POOLS}
    for art in _full_variant_artifacts(pipeline):
        tau = pc.quantile_threshold(art.clean, 0.99)
        for p in POOLS:
            suite_means[p].append(pc.csi(art.deblurred, art.clean, tau, p).csi)
    m1, m4, m16 = (float(np.mean(suite_means[p])) for p in POOLS)
    monotone = designed and m16 >= m4 >= m1

    rates = np.array([0.1, 1.0, 5.0, 30.0, 100.0])
    back = pc.dbz_to_rain(pc.zr_rain_to_dbz(rates))
    zr = (bool(np.allclose(back, rates, rtol=1e-10))
          and abs(pc.zr_rain_to_dbz(1.0) - 17.6737852411) < 1e-9)

    vil = (pc.vil_pixel_to_kgm2(5) == 0.0
           and pc.vil_pixel_to_kgm2(0) == 0.0
           and abs(pc.vil_pixel_to_kgm2(254) - 79.2614) < 1e-3)

    from postcast.metrics import DATASET_THRESHOLDS
    table = DATASET_THRESHOLDS == {
        "sevir": 32.24,
        "hko7": 30.0,
        "taasrad19": 30.0,
        "srad2018": 30.0,
        "scwds_cap30": 40.0,
        "scwds_cr": 40.0,
        "meteonet": 47.0,
    }

    ok = fixtures and monotone and zr and vil and table
    _report(capsys, 8, ok,
            f"hand counts {'ok' if fixtures else 'BAD'}; pooling order "
            f"P16 {m16:.3f} >= P4 {m4:.3f} >= P1 {m1:.3f} "
            f"{'ok' if monotone else 'BAD'}; Z-R round trip "
            f"{'<= 1e-10' if zr else 'BAD'}; VIL(5) = 0 "
            f"{'ok' if vil else 'BAD'}; threshold table "
            f"{'verbatim' if table else 'BAD'}")


def test_criterion_9_reruns_are_bitwise_identical(capsys, pipeline):
    def run_twice(argv_for):
        dirs = []
        for tag in ("a", "b"):
            out = pipeline.root / f"rerun_{argv_for.__name__}_{tag}"
            assert main(argv_for(out)) == 0
            dirs.append(out)
        return dirs

    def gen(out):
        return ["gen", "--out", str(out), "--config", str(pipeline.ini),
                "--seed", "31"]

    def deblur(out):
        return ["deblur", str(pipeline.suite / "blurry_000.pcf"),
                "--prior", str(pipeline.prior), "--out", str(out),
                "--config", str(pipeline.ini), "--seed", "123"]

    def tree(out_dir):
        return {p.name: p.read_bytes()
                for p in sorted(out_dir.iterdir()) if p.name != "manifest.json"}

    def manifest(out_dir):
        doc = json.loads((out_dir / "manifest.json").read_text())
        doc.pop("started_unix")
        doc.pop("wall_seconds")
        return doc

    ok, parts = True, []
    for argv_for in (gen, deblur):
        first, second = run_twice(argv_for)
        files_equal = tree(first) == tree(second)
        manifests_equal = manifest(first) == manifest(second)
        ok &= files_equal and manifests_equal
        parts.append(f"{argv_for.__name__}: outputs "
                     f"{'bitwise equal' if files_equal else 'DIFFER'}, "
                     f"manifests {'match' if manifests_equal else 'DIFFER'}")
    _report(capsys, 9, ok, "; ".join(parts))
