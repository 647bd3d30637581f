"""Fixed-length latent compression built on grouped residual vector
quantization, with entropy-coded baselines and rate-distortion tooling.

The package splits along the pipeline: `grids` holds the latent/group
geometry and the synthetic source, `quantizers` the codebook machinery,
`schemes` the three coding schemes (context-standardized RVQ; independent
RVQ, which is the same loop without a predictor; and scalar quantization
with range coding), `rans` the range coder, `bitstream` the fixed-length
wire format, and `analysis` the measurement suite behind the verification
battery.
"""

__version__ = "0.1.0"

from .analysis import (
    EntropyReport,
    IndexHistogram,
    RDCurve,
    RDPoint,
    bd_rate,
    conditional_entropy_gap,
    entropy_gap,
    entropy_streams,
    high_rate_predicted_pmf,
    pchip_interpolate,
    rd_sweep,
    total_variation,
)
from .bitstream import (
    PackedBitstream,
    StreamHeader,
    fixed_length_bits,
    pack,
    read_bitstream_file,
    unpack,
    write_bitstream_file,
)
from .grids import (
    LatentGrid,
    SourceConfig,
    block_means,
    extract_hyper_context,
    gauss_markov_sample,
    merge_groups,
    partition_quadtree,
    read_latent_file,
    rng_for,
    write_latent_file,
)
from .quantizers import (
    Codebook,
    IndexStack,
    QuantizerSet,
    ResidualVQ,
    nn_quantize,
    rvq_quantize,
    train_codebook,
    train_rvq,
)
from .rans import RansStream, gaussian_cdf, gaussian_table_batch
from .schemes import (
    CodedLatent,
    ContextPredictor,
    SchemeConfig,
    cm_decode,
    cm_encode,
    iq_decode,
    iq_encode,
    rd_decode,
    rd_encode,
    read_model_file,
    train_cm_model,
    train_iq_model,
    train_rd_model,
    write_model_file,
)
from .timing import PhaseTimer

__all__ = [name for name in dir() if not name.startswith("_")]
