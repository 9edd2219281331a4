"""Delay-loop reservoir computing for RF burst classification.

A single physical-style nonlinear node plus a delay line emulates a
recurrent network by time multiplexing; splitting the delay line into
parallel shorter loops buys back latency at equal readout size.  This
package provides the loop simulator, loop topologies, input-domain
transforms, a closed-form ridge readout, hyperparameter search, a
synthetic RF dataset generator, and a config-driven experiment CLI.
"""

from .classifier import (
    DesignMatrix,
    Metrics,
    RidgeModel,
    evaluate,
    predict_indices,
    train_ridge,
    trainable_params,
    training_macs,
)
from .errors import (
    ArtifactError,
    ConfigError,
    DataFormatError,
    LoopRCError,
    NumericOverflowError,
    SingularMatrixError,
    StageError,
)
from .hyperopt import (
    Categorical,
    IntegerSet,
    Real,
    SearchSpace,
    TrialRecord,
    bayes_opt,
    grid_search,
    write_trial_log,
)
from .ioformats import load_iq_file, read_container, read_iq_sidecar, write_container, write_iq_file
from .pipeline import (
    LAMBDA_SWEEP,
    SWEEP_COLUMNS,
    ModelArtifact,
    TrainResult,
    build_topology,
    dataset_from_iq_file,
    dataset_to_iq_file,
    load_dataset,
    report_fom,
    run_hyperopt,
    run_inference,
    run_sweep,
    run_training,
    validate_config,
)
from .reservoir import (
    Mask,
    LoopSpec,
    generate_mask,
    mask_for,
    run_loop,
)
from .synthrf import (
    BURST_LEN,
    NORMALIZED_BW,
    PROTOCOL_FAMILIES,
    SAMPLE_RATE,
    CaptureStream,
    Fingerprint,
    LabeledDataset,
    add_awgn,
    apply_fingerprint,
    center_crop,
    detect_bursts,
    device_fingerprint,
    extract_burst,
    fingerprint_pool,
    gen_protocol_burst,
    make_sei_dataset,
    make_wiprec_dataset,
    measure_occupied_bandwidth,
    normalize_bandwidth,
    stratified_split,
    synthesize_capture,
)
from .topology import (
    LoopBank,
    TopologySpec,
    combine,
    even_bank,
    run_topology,
    single_loop_topology,
    split_datapoint,
)
from .transforms import (
    IQBurst,
    MeanAmplitudeProfile,
    TransformKind,
    TransformSpec,
    amplitude_subburst,
    compute_mean_amplitude,
    decimated_dft,
    differential_fft,
    fft_magnitude,
    kay_freq_estimate,
)

__version__ = "0.1.0"
