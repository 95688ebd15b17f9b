"""Selective-scan detector kernels and a desk-scale detection harness."""

from . import ops
from .blocks import (
    EcaConv,
    EcaCsp,
    Ffn,
    Module,
    SimVss,
    Stem,
    Vss,
    adaptive_kernel,
    channel_map_phi,
    strip_ratio,
)
from .config import RunConfig, load_config
from .gradcheck import grad_check
from .metrics import eval_map
from .model import Detection, Detector, FeaturePyramid, ScaleSpec, decode, get_scale
from .ssm import (
    SSMParams,
    ScanResult,
    cross_merge,
    cross_scan,
    discretize_taylor,
    discretize_zoh,
    selective_scan_blocked,
    selective_scan_seq,
    ssm_scan,
)
from .tensor import ShapeError, Tape, Tensor, backward

__all__ = [
    "Detection",
    "Detector",
    "EcaConv",
    "EcaCsp",
    "FeaturePyramid",
    "Ffn",
    "Module",
    "RunConfig",
    "SSMParams",
    "ScaleSpec",
    "ScanResult",
    "ShapeError",
    "SimVss",
    "Stem",
    "Tape",
    "Tensor",
    "Vss",
    "adaptive_kernel",
    "backward",
    "channel_map_phi",
    "cross_merge",
    "cross_scan",
    "decode",
    "discretize_taylor",
    "discretize_zoh",
    "eval_map",
    "get_scale",
    "grad_check",
    "load_config",
    "ops",
    "selective_scan_blocked",
    "selective_scan_seq",
    "ssm_scan",
    "strip_ratio",
]

__version__ = "0.1.0"
