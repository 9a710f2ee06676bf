"""leafsep: compile leaf-separable quantum states into verified gate sequences."""

from .analysis import (DistributionTable, FactoredTarget, SeparabilityReport, analyze,
                       distribution_table, encoder_angles, is_leaf_separable,
                       leaf_amplitude_table, reconstruct_amplitudes, rotation_ladder_angles,
                       tree_coefficients, weight_split_amplitudes)
from .circuit import (Circuit, CostReport, Gate, ParseError, cost, crbs,
                      export_text, hwk, lower, mcphase, mcrz, mcry, parse_text, x)
from .combinatorics import ehrlich_patterns, ehrlich_sequence
from .core import (PartitionTree, StateVector, TreeNode, build_partition_tree,
                   enumerate_weight_distributions, index_to_string, string_to_index)
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
