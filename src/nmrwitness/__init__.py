"""Simulator and analysis toolkit for witnessing the quantumness of
correlations in two-qubit room-temperature NMR states."""

__version__ = "0.1.0"

from .circuit import (
    ProtocolReadout,
    WitnessDirection,
    WitnessReport,
    protocol_state,
    readout_sigma_x_a,
    rotation,
    run_protocol,
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
    mutual_information_epsilon,
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
    load_pulse_sequence,
    prepare_deviation,
    prepare_state,
    pulse_sequence_to_json,
    relax,
    thermal_equilibrium_state,
)
from .states import (
    BlochSpec,
    ClassicalSpec,
    DensityMatrix,
    DeviationState,
    bloch_decompose,
    classical_state,
    compose_deviation,
    extract_deviation,
    from_bloch,
    from_pauli_table,
    normalized_trace_distance,
    partial_trace,
    pauli_table,
    state_from_json,
    state_to_json,
)
