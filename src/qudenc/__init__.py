"""qudenc: qudit-to-qubit encodings, Pauli mappings, and circuit resources.

The package maps d-level operators onto qubit registers under four binary
codes (standard binary, Gray, unary, block unary), synthesizes and
optimizes Trotter circuits for the encoded operators, builds conversion
circuits between the codes, and compares composite encoding schemes for a
small suite of model Hamiltonians.
"""

from .encoding import (BLOCK_UNARY, GRAY, SB, UNARY, EncodingSpec,
                       InvalidCodeword, bitmask_subset, decode, encode,
                       format_bits, hamming_distance, num_qubits, parse_bits)
from .paulis import PauliSum, string, string_to_text, text_to_string, weight
from .qudit_ops import (QuditMatrix, as_matrix, bosonic,
                        dense_hermitian_test_matrix, first_quantized_x, spin,
                        tridiag_test_matrix)
from .encoder import (DBDFit, EncodedOperator, augment_truncation, detect_dbd,
                      encode_element, encode_hermitian_pair, encode_matrix)
from .circuits import (Circuit, Gate, ResourceReport, count_resources,
                       export_circuit, import_circuit, trotter_step,
                       trotter_term)
from .optimizer import commutes, optimize
from .converters import (conversion_circuit, conversion_cost,
                         gray_to_sb_circuit, sb_to_bu_circuit,
                         sb_to_gray_circuit, sb_to_unary_circuit,
                         synthesize_permutation, unary_to_sb_circuit)
from .bounds import (BoundQuery, asymptotic_class, closed_form_cnot_upper_bound,
                     cnot_upper_bound, dense_cnot_upper_bound,
                     operator_upper_bound, pauli_length_distribution)
from .models import (LocalTerm, ModelSpec, SchemeReport, boson_sampling_circuit,
                     build_model, classify_scenario, compute_scheme_report,
                     encode_term, term_entangling_cost, term_matrix)
from .simulator import (apply_circuit, circuit_to_unitary, pauli_to_matrix,
                        verify_circuit_equivalence, verify_encoding)

__version__ = "0.1.0"
