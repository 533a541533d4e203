"""Exact simulator and Monte Carlo harness for interaction-free imaging.

A single photon probes a multi-pixel, possibly semi-transparent object
without being absorbed by it: pixel information is encoded in the photon's
orbital angular momentum, interrogated either in one interferometer pass or
through many weak cycles, and read out from which detector clicks.
"""

from ifmsim.core import (
    POL_H,
    POL_V,
    SCHEME_KINDS,
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
    make_initial_state,
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
    block_probabilities,
    exact_distribution,
    multipixel_single_pass_table,
    multipixel_zeno_survival,
    per_cycle_absorption,
    semitransparent_asymptotic,
    semitransparent_exact,
)
from ifmsim.experiment import (
    ClickCounts,
    ReconstructedImage,
    ShotRecord,
    ShotRecords,
    StatCheck,
    estimate_transmissions,
    reconstruct_pattern,
    sample_distribution,
    sample_shots,
    statistical_check,
)

__version__ = "0.1.0"
