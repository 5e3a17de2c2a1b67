"""
Forward noising and the reverse posterior, step by step
=======================================================

Walks the diffusion algebra with nothing but print statements: how fast
the stock 1000-step schedule destroys a field, why keeping the forward
noise around lets us undo the damage exactly, and what the reverse
posterior does at the final step.
"""

import numpy as np

import postcast as pc

RAMP = " .:-=+*#%@"


def sketch(field, title):
    """Tiny ASCII heatmap, data units assumed in [0, 1]."""
    vals = np.clip(field.values, 0.0, 1.0)
    print(title)
    for row in vals[::4, ::2]:
        print("   " + "".join(RAMP[int(v * (len(RAMP) - 1))] for v in row))
    print()


# ---- the stock schedule -------------------------------------------------

sch = pc.linear_schedule(1000)
print(f"schedule: T={sch.T}, beta_1={sch.beta(1)}, beta_T={sch.beta(1000)}")
print("how much of the signal survives at step t (sqrt of alpha_bar):")
for t in (1, 50, 250, 500, 1000):
    print(f"  t={t:5d}  signal {np.sqrt(sch.alpha_bar(t)):.4f}"
          f"  noise {np.sqrt(1 - sch.alpha_bar(t)):.4f}")
print()

# ---- noising a field forward --------------------------------------------

clean = pc.generate_fields(pc.FieldSpec(height=32, width=48, seed=3), 1)[0]
sketch(clean, "a synthetic precipitation field (data units):")

x0 = pc.to_model(clean)
rng = np.random.default_rng(0)
noise = pc.Field(rng.standard_normal(x0.shape), pc.MODEL_UNITS)

for t in (100, 500, 1000):
    x_t = pc.forward_sample(sch, x0, t, noise)
    frac = np.sqrt(sch.alpha_bar(t))
    sketch(pc.clamp01(pc.to_data(x_t)),
           f"after {t} forward steps (signal fraction {frac:.3f}):")

# ---- undoing it with the true noise -------------------------------------

# x0_from_noise is the algebraic inverse of forward_sample, so handing it
# the very noise we injected recovers the clean field to round-off.  Like
# the reverse step, it works on plain model-unit arrays and reads its
# scalars from the step's coefficient row.
x_1000 = pc.forward_sample(sch, x0, 1000, noise)
recovered = pc.x0_from_noise(sch.coefficients(1000), x_1000.values, noise.values)
err = np.abs(recovered - x0.values).max()
print(f"x0_from_noise with the true noise: max abs error {err:.2e}")
print("(a real sampler only has a noise *prediction*, hence the whole")
print(" reverse process instead of one inversion)")
print()

# ---- the reverse posterior ----------------------------------------------

# Given a clean estimate and the current noisy state, posterior_mean
# returns the mean of the previous state, and the coefficient row holds its
# variance.  At t=1 the variance collapses: the last step is deterministic.
x_small = rng.standard_normal((4, 4))
x0_est = np.zeros((4, 4))
for t in (1000, 500, 2, 1):
    row = sch.coefficients(t)
    mu = pc.posterior_mean(row, x0_est, x_small)
    print(f"  posterior at t={t:4d}: variance {row.var:.3e}")
print()
print("variance hits exactly 0.0 at t=1, which is why the final reverse")
print("step consumes no randomness.")
