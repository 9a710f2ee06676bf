"""leafsep: compile leaf-separable quantum states into verified gate sequences."""

from .analysis import (LeafAmplitudeTable, SeparabilityReport, distribution_norm,
                       distribution_table, encoder_angles, factored_amplitudes,
                       is_leaf_separable, leaf_amplitude_table, mixed_weight_profile,
                       reconstruct_amplitudes, rotation_ladder_angles,
                       tensor_factorization_check, weight_split_amplitudes)
from .circuit import (Circuit, CostReport, Gate, ParseError, cost, crbs,
                      export_text, mcphase, mcrz, mcry, parse_text, x)
from .combinatorics import RotationSlot, controls_and_targets, ehrlich_sequence
from .core import (PartitionTree, StateVector, TreeNode, build_partition_tree,
                   dicke_state, enumerate_weight_distributions, hamming_weight,
                   index_to_string, restrict, string_to_index,
                   weight_distribution_of)
from .experiments import (ExperimentConfig, random_fixed_weight_state,
                          random_leaf_separable, random_mixed_leaf_separable,
                          run_cost_sweep, run_fidelity_sweep)
from .simulator import SimulationResult, fidelity, simulate, system_purity
from .synthesis import (SynthesisConfig, synthesize_full,
                        synthesize_general_baseline, synthesize_gwdb,
                        synthesize_gwdb_tree, synthesize_hwk_encoder,
                        synthesize_initial, synthesize_leaf_encoders,
                        synthesize_mixed_weight_input)

__version__ = "0.1.0"
