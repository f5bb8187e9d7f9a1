"""Recurrent feature aggregation for multi-shot person re-identification.

Frame-level LBP + color descriptors are fed through a single-layer peephole
LSTM trained as an identity classifier; hidden states are concatenated and
averaged into sequence-level embeddings, matched by cosine similarity or a
linear RankSVM, and evaluated with CMC curves.
"""

from .aggregate import (
    AggregationConfig,
    SequenceEmbedding,
    embed_projected,
    embed_sequence,
    read_embeddings,
    write_embeddings,
)
from .config import (
    PathsConfig,
    RunConfig,
    SyntheticSpec,
    config_from_dict,
    desk_scale,
    load_config,
    full_scale,
    save_config,
)
from .errors import (
    ConfigurationError,
    DataError,
    DegenerateProblemError,
    FormatError,
    RfaError,
)
from .evaluation import (
    CmcCurve,
    Dataset,
    ExperimentReport,
    ExperimentSpec,
    PersonSequences,
    SplitSpec,
    compute_cmc,
    generate_synthetic,
    inject_noise,
    load_dataset,
    make_splits,
    run_experiment,
    save_dataset,
    write_report,
)
from .features import (
    DescriptorRows,
    DescriptorStore,
    PatchGridSpec,
    RawImage,
    decode_image,
    describe_frames,
    lbp_codes,
    read_image,
    resize_bilinear,
    sequence_features,
    to_frame_tensor,
)
from .matching import (
    RankSvmModel,
    RankSvmScorer,
    ranking_accuracy,
    train_ranksvm,
)
from .rnn import (
    ForwardTrace,
    LabeledSequence,
    LstmState,
    RfaModel,
    TrainConfig,
    backward,
    forward,
    grad_check,
    init_model,
    load_model,
    lstm_step,
    project,
    save_model,
    sgd_update,
    train,
)

__version__ = "0.1.0"
