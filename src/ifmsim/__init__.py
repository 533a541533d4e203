"""Exact simulator and Monte Carlo harness for interaction-free imaging.

A single photon probes a multi-pixel, possibly semi-transparent object
without being absorbed by it: pixel information is encoded in the photon's
orbital angular momentum, interrogated either in one interferometer pass or
through many weak cycles, and read out from which detector clicks.
"""

from ifmsim.core import (
    POL_H,
    POL_V,
    DetectionDistribution,
    DetectorMap,
    ElementOp,
    PhotonState,
    PixelPattern,
    basis_index,
    basis_state,
    beam_splitter,
    compose,
    detection_distribution,
    mirror_reflect,
    oam_converter,
    oam_sorter,
    object_attenuator,
    pockels_flip,
    polarisation_rotator,
    polarising_beam_splitter,
    space_dim,
)
from ifmsim.schemes import (
    BuiltScheme,
    SchemeConfig,
    SchemeResult,
    SchemeTrace,
    build_scheme,
    final_state_ideal,
    run_scheme,
)
from ifmsim.analytics import (
    AnalyticReport,
    asymptotic_distribution,
    block_probabilities,
    exact_distribution,
    transmission_block,
)
from ifmsim.experiment import (
    ClickCounts,
    ReconstructedImage,
    StatCheck,
    estimate_transmissions,
    reconstruct_pattern,
    sample_distribution,
    sample_shots,
    shot_csv,
    statistical_check,
)

__version__ = "0.1.0"
