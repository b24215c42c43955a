"""Physical-layer secret-key generation under a wait-then-attack MitM.

Simulates RSS-based key extraction between two parties while an
injecting adversary watches for correlated observations, implements
the channel-randomization defense (per-round antenna mode switching),
and provides the matching closed-form security analysis.
"""

from .adversary import AttackTrace, OpportunityKind, opportunity_masks
from .analysis import (
    AnalysisResult,
    closed_form_p0_p1,
    expected_rates,
    guess_count_pmf,
    key_guess_probability,
    marcum_q1,
)
from .antenna import AntennaProfile, calibrate_tx_power, omni_profile, synthesize_rotated_beam
from .config import ExperimentConfig, parse_config
from .errors import PhykeyError
from .fading import FadingParams
from .fuzzy import Commitments, ReconcileFailure, commit_stream, derive_key, open_stream, verify_keys
from .geometry import Topology, path_angles
from .metrics import approximate_entropy, attack_metrics, bit_mismatch_rate, randomness_tests, secret_bit_rate
from .pipeline import analyze_config, replay_trace, run_experiment, run_protocol, run_trials
from .quantize import Bitstream, confirm_excursions, find_excursions, quantize, thresholds
from .reed_solomon import ReedSolomon, RsParams
from .rician import rician_params
from .session import Link, MeasurementTrace, Scenario, build_links, build_scenario, simulate_session
from .traceio import load_antenna_profile, save_antenna_profile

__version__ = "0.1.0"
