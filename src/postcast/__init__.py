"""Unsupervised diffusion-guided deblurring for precipitation-like fields.

The package turns blurry 2-D predictions back into sharp fields without any
paired training data: an unconditional diffusion prior proposes clean fields
while an optimizable blur kernel, refined during the reverse process itself,
ties them to the blurry input.  Skill is scored with pooled CSI plus the
usual radar unit conversions.
"""

__version__ = "0.1.0"

from .config import (
    DataConfig,
    EvalConfig,
    RunConfig,
    load_config,
)
from .denoisers import (
    ConvDenoiser,
    GaussianMixtureModel,
    TrainConfig,
    init_conv_denoiser,
    load_denoiser,
    load_gmm,
    save_denoiser,
    save_gmm,
    train_conv_denoiser,
)
from .diffusion import (
    NoiseSchedule,
    ScheduleConfig,
    forward_sample,
    linear_schedule,
    posterior_mean,
    x0_from_noise,
)
from .errors import (
    ConfigError,
    DataError,
    DimensionError,
    GridFileError,
    MagicError,
    NumericError,
    ParameterError,
    PostcastError,
    ShapeError,
    StepRangeError,
    TrainingError,
    TruncationError,
    UnitsError,
)
from .fields import (
    DATA_UNITS,
    MODEL_UNITS,
    Field,
    clamp01,
    to_data,
    to_model,
)
from .gridio import (
    read_csi_report_csv,
    read_grid,
    read_kernel_csv,
    read_trace_csv,
    write_csi_report_csv,
    write_grid,
    write_kernel_csv,
    write_trace_csv,
)
from .kernel import (
    BlurKernel,
    KernelConfig,
    convolve,
    init_kernel,
    reblur,
)
from .metrics import (
    CsiScore,
    csi,
    dbz_to_rain,
    max_pool,
    quantile_threshold,
    threshold_table,
    vil_pixel_to_kgm2,
    zr_rain_to_dbz,
)
from .sampler import (
    GuidanceConfig,
    SamplerTrace,
    StepRecord,
    auto_scale,
    guided_reverse_step,
    postcast_deblur,
    unguided_sample,
)
from .synthetic import (
    FieldSpec,
    PlantedPair,
    fit_gmm_prior,
    generate_fields,
    plant_blur,
)
