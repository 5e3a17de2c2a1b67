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
  The net is one float64 vector of ``N_PARAMS`` values in the ``.pcdn``
  blob's order (per layer of ``CONV_SHAPES``: weights, bias, time bias);
  the forward pass, its backward and training read named views of it, and
  a gradient is one vector in the same order.  The 1 -> 8 layer multiplies
  its weights into the 3x3 patch matrix (im2col) of the input; the 8 -> 1
  layer multiplies its weights into the edge-padded hidden canvas, giving
  one tap image per kernel offset, and sums their shifted windows.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Protocol

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .diffusion import NoiseSchedule, StepCoefficients, forward_sample
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


#: Weight shapes (c_out, c_in, k, k) of the one conv net: 1 -> 8 -> 1
#: channels through 3x3 kernels.
CONV_SHAPES = ((8, 1, 3, 3), (1, 8, 3, 3))
DENOISER_MAGIC = b"PCDN"
DENOISER_VERSION = 1


def _layout():
    """The named views of the parameter vector, as (label, shape, slice), and
    the 4-byte words of a ``.pcdn`` after its magic, parameters zeroed, with
    their mask: version, layer count, then per layer of ``CONV_SHAPES`` its
    (c_out, c_in, k) header and its weights, bias and time bias."""
    views, words = [], [DENOISER_VERSION, len(CONV_SHAPES)]
    for li, shape in enumerate(CONV_SHAPES):
        words += shape[:3]
        for name, view in (("weights", shape), ("bias", shape[:1]), ("time_bias", shape[:1])):
            start = words.count(-1)  # parameter words so far
            views.append((f"layer {li}: {name}", view, slice(start, start + math.prod(view))))
            words += [-1] * math.prod(view)
    words = np.array(words)
    return views, words.clip(0).astype("<u4"), words < 0


_VIEWS, _BLOB_WORDS, _PARAM_WORDS = _layout()
N_PARAMS = int(_PARAM_WORDS.sum())  # 162
DENOISER_BLOB_BYTES = len(DENOISER_MAGIC) + _BLOB_WORDS.nbytes  # 684


def _views(vector: np.ndarray) -> list:
    """The named views of a parameter or gradient vector, in blob order."""
    return [vector[span].reshape(view) for _, view, span in _VIEWS]


@dataclass
class ConvDenoiser:
    """The 1 -> 8 -> 1 stack of edge-clamped 3x3 convolutions (``CONV_SHAPES``).

    The hidden activation is tanh; the last layer is linear.  Each layer adds
    ``bias + (t / T) * time_bias`` per channel, which is all the time
    conditioning a net this small can use.  Construction checks that
    ``params`` is one finite (N_PARAMS,) vector.
    """

    params: np.ndarray

    def __post_init__(self):
        if np.shape(self.params) != (N_PARAMS,):
            raise ShapeError(f"conv denoiser params must have shape ({N_PARAMS},) for "
                             f"CONV_SHAPES {CONV_SHAPES}, got {np.shape(self.params)}")
        if not np.all(np.isfinite(self.params)):
            raise ParameterError("conv denoiser parameters must be finite")

    def predict_noise(self, x_t: np.ndarray, t: int, schedule: NoiseSchedule) -> np.ndarray:
        schedule._check_step(t)
        return self.forward(x_t, t / schedule.T)[0]

    def forward(self, x: np.ndarray, t_frac: float):
        """Run the net on one (H, W) array.

        Returns ``(output, patches, hidden, padded)``: the (H, W) output,
        and for the backward pass the (9, H * W) patch matrix of ``x``, the
        (8, H, W) tanh layer and its edge-padded canvas, (8, canvas pixels).
        """
        w0, b0, tb0, w1, b1, tb1 = _views(self.params)
        h, w = x.shape
        patches = _patch_matrix(x)
        hidden = (w0.reshape(8, 9) @ patches).reshape(8, h, w)
        hidden += (b0 + t_frac * tb0)[:, None, None]
        np.tanh(hidden, out=hidden)
        padded = _edge_pad(hidden, 3).reshape(8, -1)
        taps = w1.transpose(0, 2, 3, 1).reshape(9, 8) @ padded
        out = _tap_sum(taps, h, w) + (b1 + t_frac * tb1)
        return out, patches, hidden, padded


def init_conv_denoiser(seed=None) -> ConvDenoiser:
    """The net of ``CONV_SHAPES`` with random weights and time biases."""
    rng = np.random.default_rng(seed)
    params = np.zeros(N_PARAMS)
    w0, _, tb0, w1, _, tb1 = _views(params)
    for weights, time_bias in ((w0, tb0), (w1, tb1)):
        weights[...] = rng.normal(0.0, 1.0 / np.sqrt(weights[0].size), size=weights.shape)
        time_bias[...] = rng.normal(0.0, 0.1, size=time_bias.shape)
    return ConvDenoiser(params)


def denoiser_loss_and_grads(net: ConvDenoiser, x_t: np.ndarray, t_frac: float, target: np.ndarray):
    """Mean-squared noise-matching loss and its parameter gradient.

    ``grad`` is one vector in the order of ``net.params``.  The backward
    pass reuses the forward's patch matrix and padded canvas, and builds the
    tap stack of the output gradient once, for both the last layer's weight
    gradient and its adjoint.  No gradient flows on to x_t.
    """
    out, patches, hidden, padded = net.forward(x_t, t_frac)
    h, w = out.shape
    r = out - target
    loss = float(np.mean(r * r))
    d_out = (2.0 / r.size) * r
    taps = _tap_stack(d_out)
    grad = np.empty(N_PARAMS)
    g_w0, g_b0, g_tb0, g_w1, g_b1, g_tb1 = _views(grad)
    g_w1[...] = (taps @ padded.T).reshape(1, 3, 3, 8).transpose(0, 3, 1, 2)
    g_b1[...] = d_out.sum()
    g_tb1[...] = t_frac * g_b1
    spread = _views(net.params)[3][0].reshape(8, 9) @ taps
    d_hidden = _fold_margins(spread.reshape(8, h + 2, w + 2), 1, h, w)
    d_hidden *= 1.0 - hidden**2
    g_w0[...] = (d_hidden.reshape(8, -1) @ patches.T).reshape(8, 1, 3, 3)
    g_b0[...] = d_hidden.sum(axis=(1, 2))
    g_tb0[...] = t_frac * g_b0
    return loss, grad


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
                batch_grad = None
                batch_loss = 0.0
                for idx in batch:
                    x0 = dataset[idx].values
                    t = int(rng.integers(1, schedule.T + 1))
                    noise = rng.standard_normal(x0.shape)
                    x_t = forward_sample(schedule.coefficients(t), x0, noise)
                    loss, grad = denoiser_loss_and_grads(net, x_t, t / schedule.T, noise)
                    batch_loss += loss
                    # The first gradient starts the sum: 0.0 + g would turn a -0.0 to 0.0.
                    if batch_grad is None:
                        batch_grad = grad
                    else:
                        batch_grad += grad
                batch_loss /= len(batch)
                if not np.isfinite(batch_loss):
                    raise TrainingError(
                        f"training loss went non-finite (last finite loss {last_finite})",
                        last_loss=last_finite,
                    )
                last_finite = batch_loss
                epoch_losses.append(batch_loss)
                net.params -= (LEARNING_RATE / len(batch)) * batch_grad
            trace.append(float(np.mean(epoch_losses)))
    return net, trace


# ---------------------------------------------------------------------------
# Serialization: versioned little-endian binary blobs
# ---------------------------------------------------------------------------

GMM_MAGIC = b"PCGM"
GMM_VERSION = 1


def denoiser_bytes(net: ConvDenoiser) -> bytes:
    """A ConvDenoiser blob: the magic, then the words of :func:`_layout`.

    Raises NumericError if a parameter is not finite or does not fit
    float32: its cast would load as a non-finite net.
    """
    f32_max = np.finfo(np.float32).max
    for label, _, span in _VIEWS:
        # abs() and <= raise no warning on inf or NaN, and NaN fails <=.
        if not np.all(np.abs(net.params[span]) <= f32_max):
            raise NumericError(f"{label} are not all finite and within float32 range")
    words = _BLOB_WORDS.copy()
    words.view("<f4")[_PARAM_WORDS] = net.params
    return DENOISER_MAGIC + words.tobytes()


def save_denoiser(path, net: ConvDenoiser) -> None:
    """Write :func:`denoiser_bytes`; when it raises, the file is not opened."""
    blob = denoiser_bytes(net)
    with open(path, "wb") as fh:
        fh.write(blob)


def load_denoiser(path) -> ConvDenoiser:
    """Read a ``.pcdn``: only the fixed layout of ``CONV_SHAPES`` loads."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != DENOISER_MAGIC:
        raise MagicError(f"{path}: bad denoiser magic {blob[:4]!r}, expected {DENOISER_MAGIC!r}")
    if len(blob) >= 8 and (version := struct.unpack_from("<I", blob, 4)[0]) != DENOISER_VERSION:
        raise GridFileError(f"{path}: unsupported denoiser format version {version}")
    if len(blob) != DENOISER_BLOB_BYTES:
        raise TruncationError(f"{path}: denoiser blob has {len(blob)} bytes, expected "
                              f"{DENOISER_BLOB_BYTES} for CONV_SHAPES {CONV_SHAPES}")
    words = np.frombuffer(blob, dtype="<u4", offset=4)
    if not np.array_equal(words[~_PARAM_WORDS], _BLOB_WORDS[~_PARAM_WORDS]):
        raise ShapeError(f"{path}: denoiser layer headers do not match CONV_SHAPES {CONV_SHAPES}")
    try:
        return ConvDenoiser(words.view("<f4")[_PARAM_WORDS].astype(np.float64))
    except ParameterError as exc:  # non-finite stored values
        raise ParameterError(f"{path}: {exc}") from None


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
        raise MagicError(f"{path}: bad mixture magic {blob[:4]!r}, expected {GMM_MAGIC!r}")
    if len(blob) < 20:
        raise TruncationError(f"{path}: mixture blob has {len(blob)} bytes, header needs 20")
    version, k, h, w = struct.unpack_from("<IIII", blob, 4)
    if version != GMM_VERSION:
        raise GridFileError(f"{path}: unsupported mixture format version {version}")
    expected = 20 + 8 * (k + k + k * h * w)
    if len(blob) != expected:
        raise TruncationError(f"{path}: mixture blob has {len(blob)} bytes, expected {expected}")
    payload = np.frombuffer(blob, dtype="<f8", offset=20)
    weights, sigmas = payload[:k].copy(), payload[k : 2 * k].copy()
    means = payload[2 * k :].reshape(k, h, w).copy()
    try:
        return GaussianMixtureModel(weights=weights, means=means, sigmas=sigmas)
    except (ShapeError, ParameterError) as exc:
        raise type(exc)(f"{path}: {exc}") from None
