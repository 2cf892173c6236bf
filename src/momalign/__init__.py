"""Multi-scale second-order moment descriptors with exact Earth Mover's
Distance temporal alignment and few-shot episodic evaluation."""

from .alignment import (
    Masses,
    TransportPlan,
    alignment_score,
    emd_score,
    fixed_alignment_cross,
    fixed_alignment_pp,
    marginal_masses,
    similarity_matrix,
    solve_emd,
)
from .descriptor import (
    DescriptorSequence,
    FeatureClip,
    ScaleConfig,
    cov_mn_descriptors,
    default_scales,
    gap_descriptor,
    multi_scale_descriptors,
)
from .episode import Episode, Report, classify_query, evaluate, sample_episode
from .linalg import newton_schulz_sqrt, second_moment, vectorize_spd
from .seqio import Manifest, read_container, read_manifest, write_container
from .synthgen import SynthConfig, generate_class_library, generate_dataset, render_instance

__all__ = [
    "Masses",
    "TransportPlan",
    "alignment_score",
    "emd_score",
    "fixed_alignment_cross",
    "fixed_alignment_pp",
    "marginal_masses",
    "similarity_matrix",
    "solve_emd",
    "DescriptorSequence",
    "FeatureClip",
    "ScaleConfig",
    "cov_mn_descriptors",
    "default_scales",
    "gap_descriptor",
    "multi_scale_descriptors",
    "Episode",
    "Report",
    "classify_query",
    "evaluate",
    "sample_episode",
    "newton_schulz_sqrt",
    "second_moment",
    "vectorize_spd",
    "Manifest",
    "read_container",
    "read_manifest",
    "write_container",
    "SynthConfig",
    "generate_class_library",
    "generate_dataset",
    "render_instance",
]

__version__ = "0.1.0"
