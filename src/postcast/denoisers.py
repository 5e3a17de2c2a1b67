"""Noise predictors that drive the reverse diffusion.

Two interchangeable denoisers implement ``predict_noise(x_t, t, schedule)``,
which takes x_t as a model-unit (H, W) array and returns the noise estimate
as one (unit regimes are checked where a run starts and ends):

* :class:`GaussianMixtureModel` -- an analytic oracle.  For a mixture prior
  over flattened fields with isotropic components (w_i, m_i, sigma_i), the
  posterior mean of x_0 given x_t is closed form.  With v_i = abar * sigma_i^2
  + (1 - abar) and responsibilities r_i ~ w_i N(x_t; sqrt(abar) m_i, v_i I):

      E[x0 | x_t] = sum_i r_i [ m_i + (sqrt(abar) sigma_i^2 / v_i)(x_t - sqrt(abar) m_i) ]
      eps_hat     = (x_t - sqrt(abar) E[x0 | x_t]) / sqrt(1 - abar)

  The mixture builds its step-independent constants (flattened means, their
  squared norms, log weights, sigma_i^2) once, at construction.
  ``expected_x0`` evaluates the first line with the step's
  ``NoiseSchedule.coefficients`` row, and ``predict_noise`` the second.

* :class:`ConvDenoiser` -- one tiny convolutional net, 1 -> 8 -> 1 channels
  (edge-clamped 3x3 convs, a tanh hidden layer, a per-channel bias scaled by
  t / T as the time input), trained on the usual noise-matching objective
  E ||eps - eps_hat||^2 with manual backpropagation.  It exists to show
  the sampler is oracle-agnostic, not to compete with real score networks.
  The code is written for its two fixed layers, each one matrix product:
  the 1 -> 8 layer multiplies its weights into the 3x3 patch matrix
  (im2col) of the input; the 8 -> 1 layer multiplies its weights into the
  edge-padded hidden canvas, giving one tap image per kernel offset, and
  sums their shifted windows.  ``ConvDenoiser.forward`` is the one forward
  pass, for sampling and for training, and ``denoiser_loss_and_grads``
  backpropagates through it on the patch matrix and canvas it built.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Protocol

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .diffusion import NoiseSchedule, StepCoefficients
from .errors import (
    DataError,
    GridFileError,
    MagicError,
    NumericError,
    ParameterError,
    ShapeError,
    TrainingError,
    TruncationError,
)
from .fields import MODEL_UNITS, require_units
from .kernel import _edge_pad, _fold_margins


class Denoiser(Protocol):
    def predict_noise(self, x_t: np.ndarray, t: int, schedule: NoiseSchedule) -> np.ndarray: ...


# ---------------------------------------------------------------------------
# Analytic Gaussian-mixture oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GaussianMixtureModel:
    """Isotropic Gaussian mixture over flattened model-unit fields."""

    weights: np.ndarray  # (k,)
    means: np.ndarray    # (k, H, W)
    sigmas: np.ndarray   # (k,)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        m = np.asarray(self.means, dtype=np.float64)
        s = np.asarray(self.sigmas, dtype=np.float64)
        if m.ndim != 3 or w.ndim != 1 or s.ndim != 1:
            raise ShapeError(
                f"expected weights (k,), means (k, H, W), sigmas (k,); got "
                f"{w.shape}, {m.shape}, {s.shape}"
            )
        k = m.shape[0]
        if not (len(w) == len(s) == k and k >= 1):
            raise ShapeError("component counts disagree")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(m)) and np.all(np.isfinite(s))):
            raise ParameterError("mixture parameters must be finite")
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ParameterError(f"weights must be >= 0 and sum to 1, got sum {w.sum()!r}")
        if np.any(s <= 0):
            raise ParameterError("sigmas must be positive")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "sigmas", s)
        # Step-independent constants of the posterior mean, built once.
        flat = m.reshape(k, -1)
        with np.errstate(divide="ignore"):  # a zero weight is a -inf log weight
            log_weights = np.log(w)
        object.__setattr__(self, "_flat_means", flat)
        object.__setattr__(self, "_mean_sq_norms", np.einsum("ij,ij->i", flat, flat))
        object.__setattr__(self, "_log_weights", log_weights)
        object.__setattr__(self, "_sigma_sq", s**2)

    @property
    def n_components(self) -> int:
        return self.means.shape[0]

    @property
    def field_shape(self) -> tuple[int, int]:
        return self.means.shape[1:]

    def predict_noise(self, x_t: np.ndarray, t: int, schedule: NoiseSchedule) -> np.ndarray:
        """Noise estimate implied by the posterior mean of x0 (t >= 1 only)."""
        row = schedule.coefficients(t)
        return (x_t - row.root_abar * self.expected_x0(x_t, row)) / row.root_one_minus_abar

    def expected_x0(self, x_t: np.ndarray, row: StepCoefficients) -> np.ndarray:
        """Exact E[x0 | x_t] under the mixture prior and the forward kernel.

        ``x_t`` is a model-unit array of the mixture's field shape and ``row``
        the step's ``NoiseSchedule.coefficients(t)``.  The squared distances
        ||x - sqrt(abar) m_i||^2 are expanded as
        ||x||^2 - 2 sqrt(abar) (M x)_i + abar ||m_i||^2 (clamped at 0 against
        round-off), so the component means are read by one matrix-vector
        product, and the mean regroups into one more:
        sum_i r_i (1 - shrink_i sqrt(abar)) m_i + (sum_i r_i shrink_i) x.
        """
        if x_t.shape != self.field_shape:
            raise ShapeError(f"x_t shape {x_t.shape} != mixture field shape {self.field_shape}")
        abar, root_abar = row.abar, row.root_abar
        x = x_t.ravel()
        means = self._flat_means
        variances = abar * self._sigma_sq + row.one_minus_abar
        sq = np.maximum(x @ x - 2.0 * root_abar * (means @ x) + abar * self._mean_sq_norms, 0.0)
        log_r = (
            self._log_weights - 0.5 * x.size * np.log(2.0 * np.pi * variances)
            - sq / (2.0 * variances)
        )
        resp = np.exp(log_r - _logsumexp(log_r))
        shrink = root_abar * self._sigma_sq / variances
        mean = (resp * (1.0 - shrink * root_abar)) @ means + (resp @ shrink) * x
        return mean.reshape(x_t.shape)


def _logsumexp(a: np.ndarray) -> float:
    """``scipy.special.logsumexp(a)`` of a 1-D float64 array, bit for bit.

    scipy's own algorithm without its array-API dispatch: the m tied maxima
    are taken out of the sum, which leaves log1p(s / m) + log(m) + max with
    s the sum of the other exp(a - max) (kept in place as zeros, so the sum
    adds in scipy's order).  An infinite or NaN max takes scipy's fallback,
    log(sum(exp(a))).
    """
    top = a.max()
    if not math.isfinite(top):
        with np.errstate(divide="ignore"):
            return np.log(np.exp(a).sum())
    tied = a == top
    terms = np.exp(a - top)
    terms[tied] = 0.0
    m = np.count_nonzero(tied)
    return np.log1p(terms.sum() / m) + np.log(m) + top


# ---------------------------------------------------------------------------
# Small convolutional denoiser with manual backprop
# ---------------------------------------------------------------------------


@dataclass
class ConvLayer:
    weights: np.ndarray    # (c_out, c_in, k, k)
    bias: np.ndarray       # (c_out,)
    time_bias: np.ndarray  # (c_out,)


#: Weight shapes (c_out, c_in, k, k) of the one conv net: 1 -> 8 -> 1
#: channels through 3x3 kernels.
CONV_SHAPES = ((8, 1, 3, 3), (1, 8, 3, 3))


@dataclass
class ConvDenoiser:
    """The 1 -> 8 -> 1 stack of edge-clamped 3x3 convolutions (``CONV_SHAPES``).

    The hidden activation is tanh; the last layer is linear.  Each layer adds
    ``bias + (t / T) * time_bias`` per channel, which is all the time
    conditioning a net this small can use.  Construction checks the weight
    shapes, the per-channel biases and that every value is finite, so a
    malformed blob fails when loaded.
    """

    layers: list

    def __post_init__(self):
        shapes = tuple(np.shape(layer.weights) for layer in self.layers)
        if shapes != CONV_SHAPES:
            raise ShapeError(f"conv denoiser weights must have shapes {CONV_SHAPES}, got {shapes}")
        for li, layer in enumerate(self.layers):
            c_out = CONV_SHAPES[li][0]
            for name in ("bias", "time_bias"):
                if np.shape(getattr(layer, name)) != (c_out,):
                    raise ShapeError(
                        f"layer {li}: {name} must have shape ({c_out},), got "
                        f"{np.shape(getattr(layer, name))}"
                    )
            params = (layer.weights, layer.bias, layer.time_bias)
            if not all(np.all(np.isfinite(p)) for p in params):
                raise ParameterError(f"layer {li}: parameters must be finite")

    def predict_noise(self, x_t: np.ndarray, t: int, schedule: NoiseSchedule) -> np.ndarray:
        schedule._check_step(t)
        return self.forward(x_t, t / schedule.T)[0]

    def forward(self, x: np.ndarray, t_frac: float):
        """Run the net on one (H, W) array.

        Returns ``(output, patches, hidden, padded)``: the (H, W) output,
        and for the backward pass the (9, H * W) patch matrix of ``x``, the
        (8, H, W) tanh layer and its edge-padded canvas, (8, canvas pixels).
        """
        first, last = self.layers
        h, w = x.shape
        patches = _patch_matrix(x)
        hidden = (first.weights.reshape(8, 9) @ patches).reshape(8, h, w)
        hidden += (first.bias + t_frac * first.time_bias)[:, None, None]
        np.tanh(hidden, out=hidden)
        padded = _edge_pad(hidden, 3).reshape(8, -1)
        taps = last.weights.transpose(0, 2, 3, 1).reshape(9, 8) @ padded
        out = _tap_sum(taps, h, w) + (last.bias + t_frac * last.time_bias)
        return out, patches, hidden, padded


def init_conv_denoiser(seed=None) -> ConvDenoiser:
    """The net of ``CONV_SHAPES`` with random weights and time biases."""
    rng = np.random.default_rng(seed)
    layers = []
    for shape in CONV_SHAPES:
        c_out, c_in, k, _ = shape
        layers.append(
            ConvLayer(
                weights=rng.normal(0.0, 1.0 / np.sqrt(c_in * k * k), size=shape),
                bias=np.zeros(c_out),
                time_bias=rng.normal(0.0, 0.1, size=c_out),
            )
        )
    return ConvDenoiser(layers)


def denoiser_loss_and_grads(net: ConvDenoiser, x_t: np.ndarray, t_frac: float, target: np.ndarray):
    """Mean-squared noise-matching loss and its parameter gradients.

    The gradients are ConvLayer-shaped, in the order of ``net.layers``.  The
    backward pass reuses the forward's patch matrix and padded canvas, and
    builds the tap stack of the output gradient once, for both the last
    layer's weight gradient and its adjoint.  No gradient flows on to x_t.
    """
    out, patches, hidden, padded = net.forward(x_t, t_frac)
    h, w = out.shape
    r = out - target
    loss = float(np.mean(r * r))
    d_out = (2.0 / r.size) * r
    taps = _tap_stack(d_out)
    d_last = np.array([d_out.sum()])
    last_grads = ConvLayer(
        weights=(taps @ padded.T).reshape(1, 3, 3, 8).transpose(0, 3, 1, 2),
        bias=d_last,
        time_bias=t_frac * d_last,
    )
    spread = net.layers[1].weights[0].reshape(8, 9) @ taps
    d_hidden = _fold_margins(spread.reshape(8, h + 2, w + 2), 1, h, w)
    d_hidden *= 1.0 - hidden**2
    d_first = d_hidden.sum(axis=(1, 2))
    first_grads = ConvLayer(
        weights=(d_hidden.reshape(8, -1) @ patches.T).reshape(8, 1, 3, 3),
        bias=d_first,
        time_bias=t_frac * d_first,
    )
    return loss, [first_grads, last_grads]


def _patch_matrix(x: np.ndarray) -> np.ndarray:
    """Edge-padded im2col: (H, W) -> (9, H * W).  Row (a, b) is the
    replicate-padded canvas read through the H x W window at offset (a, b)."""
    h, w = x.shape
    return sliding_window_view(_edge_pad(x, 3), (h, w)).reshape(9, h * w)


def _tap_stack(x: np.ndarray) -> np.ndarray:
    """(H, W) -> (9, canvas pixels): row (a, b) is ``x`` placed at offset
    (a, b) on a zero (H + 2, W + 2) canvas."""
    h, w = x.shape
    stack = np.zeros((3, 3, h + 2, w + 2))
    for a in range(3):
        for b in range(3):
            stack[a, b, a : a + h, b : b + w] = x
    return stack.reshape(9, -1)


def _tap_sum(taps: np.ndarray, h: int, w: int) -> np.ndarray:
    """Adjoint of ``_tap_stack``: sums row (a, b)'s window at offset (a, b)."""
    taps = taps.reshape(3, 3, h + 2, w + 2)
    out = np.zeros((h, w))
    for a in range(3):
        for b in range(3):
            out += taps[a, b, a : a + h, b : b + w]
    return out


#: SGD settings of ``train_conv_denoiser``: fields per batch and step size.
BATCH_SIZE = 8
LEARNING_RATE = 1e-2


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ParameterError(f"epochs must be >= 1, got {self.epochs}")


def train_conv_denoiser(dataset, schedule: NoiseSchedule, config: TrainConfig = TrainConfig()):
    """SGD on E ||eps - eps_hat(x_t, t)||^2 over the clean model-unit fields.

    Trains the net of :func:`init_conv_denoiser` in batches of
    ``BATCH_SIZE`` fields at step size ``LEARNING_RATE``.  Returns
    (trained net, per-epoch mean loss trace).  Raises TrainingError
    (carrying the last finite loss) if the loss goes non-finite.  numpy's
    floating-point warnings are off over the loop, because every batch loss
    is checked: a blow-up is one TrainingError even when warnings are errors.
    """
    dataset = list(dataset)
    if not dataset:
        raise DataError("training dataset is empty")
    for f in dataset:
        require_units(f, MODEL_UNITS, "training field")
    rng = np.random.default_rng(config.seed)
    net = init_conv_denoiser(seed=rng)
    trace = []
    last_finite = None
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(config.epochs):
            order = rng.permutation(len(dataset))
            epoch_losses = []
            for start in range(0, len(order), BATCH_SIZE):
                batch = order[start : start + BATCH_SIZE]
                batch_grads = None
                batch_loss = 0.0
                for idx in batch:
                    x0 = dataset[idx].values
                    t = int(rng.integers(1, schedule.T + 1))
                    noise = rng.standard_normal(x0.shape)
                    row = schedule.coefficients(t)
                    x_t = row.root_abar * x0 + row.root_one_minus_abar * noise
                    loss, grads = denoiser_loss_and_grads(net, x_t, t / schedule.T, noise)
                    batch_loss += loss
                    if batch_grads is None:
                        batch_grads = grads
                    else:
                        for acc, g in zip(batch_grads, grads):
                            acc.weights += g.weights
                            acc.bias += g.bias
                            acc.time_bias += g.time_bias
                batch_loss /= len(batch)
                if not np.isfinite(batch_loss):
                    raise TrainingError(
                        f"training loss went non-finite (last finite loss {last_finite})",
                        last_loss=last_finite,
                    )
                last_finite = batch_loss
                epoch_losses.append(batch_loss)
                lr = LEARNING_RATE / len(batch)
                for layer, g in zip(net.layers, batch_grads):
                    layer.weights -= lr * g.weights
                    layer.bias -= lr * g.bias
                    layer.time_bias -= lr * g.time_bias
            trace.append(float(np.mean(epoch_losses)))
    return net, trace


# ---------------------------------------------------------------------------
# Serialization: versioned little-endian binary blobs
# ---------------------------------------------------------------------------

DENOISER_MAGIC = b"PCDN"
DENOISER_VERSION = 1
GMM_MAGIC = b"PCGM"
GMM_VERSION = 1


def denoiser_bytes(net: ConvDenoiser) -> bytes:
    """A ConvDenoiser blob: magic, version, layer shapes, f32 params.

    Raises NumericError if a parameter is not finite or does not fit
    float32: its cast would load as a non-finite net.
    """
    f32_max = np.finfo(np.float32).max
    for li, layer in enumerate(net.layers):
        for name in ("weights", "bias", "time_bias"):
            # abs() and <= raise no warning on inf or NaN, and NaN fails <=.
            if not np.all(np.abs(getattr(layer, name)) <= f32_max):
                raise NumericError(
                    f"layer {li}: {name} are not all finite and within float32 range"
                )
    parts = [DENOISER_MAGIC, struct.pack("<II", DENOISER_VERSION, len(net.layers))]
    for layer in net.layers:
        c_out, c_in, k, _ = layer.weights.shape
        parts.append(struct.pack("<III", c_out, c_in, k))
        for arr in (layer.weights, layer.bias, layer.time_bias):
            parts.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    return b"".join(parts)


def save_denoiser(path, net: ConvDenoiser) -> None:
    """Write :func:`denoiser_bytes`; when it raises, the file is not opened."""
    blob = denoiser_bytes(net)
    with open(path, "wb") as fh:
        fh.write(blob)


def load_denoiser(path) -> ConvDenoiser:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != DENOISER_MAGIC:
        raise MagicError(f"bad denoiser magic {blob[:4]!r}, expected {DENOISER_MAGIC!r}")
    if len(blob) < 12:
        raise TruncationError(f"denoiser blob has {len(blob)} bytes, header needs 12")
    version, n_layers = struct.unpack_from("<II", blob, 4)
    if version != DENOISER_VERSION:
        raise GridFileError(f"unsupported denoiser format version {version}")
    off = 12
    layers = []
    for _ in range(n_layers):
        if off + 12 > len(blob):
            raise TruncationError("denoiser blob ends inside a layer header")
        c_out, c_in, k, = struct.unpack_from("<III", blob, off)
        off += 12
        arrays = []
        for shape in ((c_out, c_in, k, k), (c_out,), (c_out,)):
            count = math.prod(shape)
            nbytes = 4 * count
            if off + nbytes > len(blob):
                raise TruncationError(
                    f"denoiser blob truncated: wanted {nbytes} bytes at offset {off}, "
                    f"file has {len(blob)}"
                )
            arrays.append(
                np.frombuffer(blob, dtype="<f4", count=count, offset=off)
                .astype(np.float64)
                .reshape(shape)
            )
            off += nbytes
        layers.append(ConvLayer(*arrays))
    if off != len(blob):
        raise TruncationError(f"denoiser blob has {len(blob)} bytes, expected {off}")
    return ConvDenoiser(layers)


def save_gmm(path, gmm: GaussianMixtureModel) -> None:
    """Write a mixture blob: magic, version, (k, H, W), f64 params."""
    k, h, w = gmm.means.shape
    parts = [
        GMM_MAGIC,
        struct.pack("<IIII", GMM_VERSION, k, h, w),
        np.ascontiguousarray(gmm.weights, dtype="<f8").tobytes(),
        np.ascontiguousarray(gmm.sigmas, dtype="<f8").tobytes(),
        np.ascontiguousarray(gmm.means, dtype="<f8").tobytes(),
    ]
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def load_gmm(path) -> GaussianMixtureModel:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != GMM_MAGIC:
        raise MagicError(f"bad mixture magic {blob[:4]!r}, expected {GMM_MAGIC!r}")
    if len(blob) < 20:
        raise TruncationError(f"mixture blob has {len(blob)} bytes, header needs 20")
    version, k, h, w = struct.unpack_from("<IIII", blob, 4)
    if version != GMM_VERSION:
        raise GridFileError(f"unsupported mixture format version {version}")
    expected = 20 + 8 * (k + k + k * h * w)
    if len(blob) != expected:
        raise TruncationError(f"mixture blob has {len(blob)} bytes, expected {expected}")
    off = 20
    weights = np.frombuffer(blob, dtype="<f8", count=k, offset=off).copy()
    off += 8 * k
    sigmas = np.frombuffer(blob, dtype="<f8", count=k, offset=off).copy()
    off += 8 * k
    means = np.frombuffer(blob, dtype="<f8", count=k * h * w, offset=off).reshape(k, h, w).copy()
    return GaussianMixtureModel(weights=weights, means=means, sigmas=sigmas)
