"""Wavelet codec for grayscale medical images, with transfer-layer
fragmentation and 802.11 MAC timing models for link budgeting."""

from .bitstream import BitstreamError, CompressedBitstream
from .codec import (
    CodecError,
    DecodeError,
    RateControlError,
    compress,
    decompress,
)
from .dwt import SubbandPyramid, dwt_forward, dwt_inverse
from .huffman import (
    HuffmanCode,
    HuffmanDecodeError,
    HuffmanError,
    huffman_build,
    huffman_decode,
    huffman_encode,
)
from .image_io import GrayImage, PgmError, load_pgm, save_pgm
from .macsim import (
    MacParameters,
    PROFILE_11B,
    PROFILE_11G,
    PROFILES,
    ScenarioResult,
    SuperframeBudget,
    budget_superframe,
    frame_airtime,
    load_mac_config,
    simulate,
)
from .metrics import (
    MetricsError,
    QualityReport,
    RatePoint,
    compression_ratio,
    entropy_h0,
    mse,
    psnr,
    quality_report,
    rate_distortion_sweep,
)
from .quantize import QuantizerConfig
from .synth import synth_image
from .transport import (
    FragmentationPlan,
    fragment,
    nominal_compressed_bytes,
)

__version__ = "0.1.0"
