"""Task capacities of multi-qubit resource states.

Dense statevector tools for deciding how many qubits a shared state can
teleport across a cut, how many messages Pauli encodings on a sender subset
can carry, and whether a state is maximal for both tasks at once.
"""

from .capacity import (
    CutReport,
    SdcCodebook,
    TeleportOutcome,
    TeleportProtocol,
    TeleportResult,
    TmesVerdict,
    build_sdc_codebook,
    build_teleport_protocol,
    cut_reports,
    default_partition,
    haar_random_state,
    haar_random_unitary,
    is_tmes,
    sdc_max_messages,
    sdc_orthogonal_labels,
    simulate_sdc,
    simulate_teleportation,
    teleport_capacity,
    tmes_verdict,
)
from .claims import ClaimConfig, ClaimReport, run_claim_suite, suite_report_doc
from .invariants import (
    ObstructionReport,
    OrthogonalFamily,
    all_bipartition_spectra,
    all_bipartitions,
    conversion_obstruction,
    genuine_multipartite,
    orthogonal_family,
    spectra_match,
)
from .operators import (
    OperatorSet,
    PlacementReport,
    cnot,
    find_realizing_application,
    gamma,
    gamma_set,
    independence_rank,
    named_operator,
    operator_family,
    pauli_set,
    pauli_string,
    sigma,
    sigma_construct,
    u_chi,
    u_w2,
    u_y,
    u_z,
)
from .pauli import pauli_digits, pauli_label
from .serialize import (
    load_operator,
    load_operator_set,
    load_state,
    save_operator,
    save_operator_set,
    save_state,
    state_from_dict,
    state_to_dict,
)
from .states import (
    StateSpec,
    basis_state,
    bell,
    bell_product,
    chi,
    cluster4,
    cluster5,
    ghz,
    hs,
    make_state,
    odd_resource,
    omega,
    parse_spec,
    w_state,
)
from .statevec import (
    ATOL,
    CLUSTER_RTOL,
    EXACT_ATOL,
    DensityMatrix,
    LocalOperator,
    Partition,
    PureState,
    SchmidtSpectrum,
    apply_local,
    cut_spectra,
    entropy,
    negativity,
    overlap,
    partial_trace,
    schmidt_decomposition,
    schmidt_spectrum,
    states_close,
    tensor,
)

__version__ = "0.1.0"
