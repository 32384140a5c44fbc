"""Simulator and analysis toolkit for witnessing the quantumness of
correlations in two-qubit room-temperature NMR states."""

__version__ = "0.1.0"

from .circuit import (
    WitnessDirection,
    WitnessReport,
    protocol_state,
    readout_sigma_x_a,
    rotation,
    sample_direction,
    witness,
)
from .correlations import (
    CorrelationReport,
    MeasurementBasis,
    discord_epsilon,
    entropy,
    measure_map,
    measure_map_deviation,
    mutual_information,
    symmetric_discord,
)
from .errors import (
    BadConfig,
    BadDistribution,
    BadDocument,
    BadIndex,
    EpsilonMismatch,
    NotAState,
    OptimizerFailure,
    SequenceMismatch,
    UnknownKind,
)
from .harness import (
    CrossCheckFailure,
    ExperimentConfig,
    RunReport,
    perturb_deviation,
    run_custom,
    run_experiment,
    run_fig2,
    run_fig3,
    run_fig4,
    validate_state_doc,
)
from .nmr import (
    DynamicsSeries,
    PulseEvent,
    SpinSystemParams,
    dynamics_sweep,
    ideal_deviation,
    prepare_deviation,
    prepare_state,
    relax,
)
from .states import (
    BlochSpec,
    ClassicalSpec,
    DensityMatrix,
    DeviationState,
    classical_state,
    compose_deviation,
    extract_deviation,
    from_bloch,
    from_pauli_table,
    normalized_trace_distance,
    partial_trace,
    pauli_table,
    state_from_json,
)
