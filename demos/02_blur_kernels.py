"""
Planting blurs and estimating them back
=======================================

The deblurring problem needs two things from a kernel: a forward map
(convolve) and gradients of the mismatch with respect to the kernel.
This script plants known blurs of growing severity, then recovers one of
them from scratch by plain gradient descent on the distance, whose value
and gradients ``reblur`` gives in one pass.
"""

import numpy as np

import postcast as pc

clean = pc.generate_fields(pc.FieldSpec(height=48, width=48, seed=11), 1)[0]

# ---- severity controls how destructive the blur is ----------------------

print("peak value and occupancy above 0.5 as blur severity grows:")
for severity in range(5):
    pair = pc.plant_blur(clean, "gaussian", severity)
    vals = pair.blurry.values
    print(f"  severity {severity}: peak {vals.max():.3f}, "
          f"pixels > 0.5: {(vals > 0.5).sum():3d}, "
          f"kernel sum {pair.kernel_true.params.sum():.3f}")
print("severity 0 is the identity kernel; the field passes through untouched.")
print()

# ---- the kernel family --------------------------------------------------

for family in ("gaussian", "motion", "mixed"):
    pair = pc.plant_blur(clean, family, 3, size=7)
    k = pair.kernel_true.params
    print(f"{family} kernel at severity 3 (7x7, entries x1000):")
    for row in k:
        print("   " + " ".join(f"{1000 * v:5.1f}" for v in row))
    print()

# ---- blind recovery by gradient descent ---------------------------------

# Start from a small random kernel and walk the mismatch downhill.  The
# planted pair gives us the ground truth to compare against afterwards.
target = pc.plant_blur(clean, "mixed", 3)
y = target.blurry

rng = np.random.default_rng(4)
k = pc.init_kernel(9, 0.012, 0.004, rng)
print("descending the reblur mismatch (learning rate 0.1, data units):")
for step in range(3001):
    k.params -= 0.1 * pc.reblur(k, clean, y)[2]
    if step % 500 == 0:
        print(f"  step {step:4d}: distance {pc.reblur(k, clean, y)[0]:.3e}")

kerr = np.abs(k.params - target.kernel_true.params).max()
print(f"\nrecovered kernel sum {k.params.sum():.4f} (planted sum "
      f"{target.kernel_true.params.sum():.4f})")
print(f"max abs entry error vs the planted kernel: {kerr:.2e}")
print("\nthe mismatch collapses and the kernel mass lands in the right")
print("place, yet individual entries stay loose: many kernels reblur this")
print("one field equally well.  That ill-posedness is why the guided")
print("sampler never tries to identify *the* kernel; it only keeps the")
print("reblurred clean estimate faithful to the input, one gradient step")
print("per reverse-diffusion step.")
