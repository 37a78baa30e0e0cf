"""Block sparse BLAS: the 17 kernel variants of Table 1 (GETRF×3,
GESSM×5, TSTRF×5, SSSSM×4) plus the low-rank extension family
(SSSSM LR×2, COMPRESS×3), structural FLOP counters, the kernel
registry, the decision-tree selector of Fig. 8, and fixed-pattern
execution plans (precomputed scatter addressing) for the sparse
variants."""

from .base import SingularBlockError, Workspace, split_lu
from .compress import (
    COMPRESS_VARIANTS,
    LR_SSSSM_VARIANTS,
    CompressPolicy,
    compress_rsvd_v1,
    compress_svd_v1,
    decompress_v1,
    lr_ssssm_flops,
    ssssm_lr_v1,
    ssssm_lr_v2,
    try_compress,
)
from .flops import (
    gessm_flops,
    getrf_flops,
    ssssm_flops_structural,
    tstrf_flops,
)
from .getrf import GETRF_VARIANTS, getrf_c_v1, getrf_g_v1, getrf_g_v2
from .gessm import (
    GESSM_VARIANTS,
    gessm_c_v1,
    gessm_c_v2,
    gessm_g_v1,
    gessm_g_v2,
    gessm_g_v3,
)
from .plans import (
    PLANNABLE_VERSIONS,
    GETRFPlan,
    PlanCache,
    SolvePlan,
    SSSSMPlan,
    build_getrf_plan,
    build_gessm_plan,
    build_ssssm_plan,
    build_tstrf_plan,
    run_getrf_plan,
    run_gessm_plan,
    run_ssssm_plan,
    run_tstrf_plan,
)
from .registry import (
    KERNEL_REGISTRY,
    KernelType,
    get_kernel,
    is_gpu_version,
    kernel_names,
    plan_capable,
)
from .selector import (
    DecisionTree,
    SelectorPolicy,
    Split,
    TaskFeatures,
    calibrate,
    default_trees,
)
from .ssssm import (
    SSSSM_VARIANTS,
    ssssm_c_v1,
    ssssm_c_v2,
    ssssm_g_v1,
    ssssm_g_v2,
)
from .tstrf import (
    TSTRF_VARIANTS,
    tstrf_c_v1,
    tstrf_c_v2,
    tstrf_g_v1,
    tstrf_g_v2,
    tstrf_g_v3,
)
from .tsolve_kernels import (
    SpMVPlan,
    build_spmv_plan,
    diagb_seg,
    diagf_seg,
    updb_seg,
    updf_seg,
)

__all__ = [
    "KernelType",
    "KERNEL_REGISTRY",
    "kernel_names",
    "get_kernel",
    "is_gpu_version",
    "Workspace",
    "SingularBlockError",
    "split_lu",
    "getrf_flops",
    "gessm_flops",
    "tstrf_flops",
    "ssssm_flops_structural",
    "GETRF_VARIANTS",
    "GESSM_VARIANTS",
    "TSTRF_VARIANTS",
    "SSSSM_VARIANTS",
    "COMPRESS_VARIANTS",
    "LR_SSSSM_VARIANTS",
    "CompressPolicy",
    "compress_svd_v1",
    "compress_rsvd_v1",
    "decompress_v1",
    "ssssm_lr_v1",
    "ssssm_lr_v2",
    "lr_ssssm_flops",
    "try_compress",
    "DecisionTree",
    "Split",
    "TaskFeatures",
    "SelectorPolicy",
    "default_trees",
    "calibrate",
    "PlanCache",
    "PLANNABLE_VERSIONS",
    "plan_capable",
    "SSSSMPlan",
    "SolvePlan",
    "GETRFPlan",
    "build_ssssm_plan",
    "run_ssssm_plan",
    "build_gessm_plan",
    "run_gessm_plan",
    "build_tstrf_plan",
    "run_tstrf_plan",
    "build_getrf_plan",
    "run_getrf_plan",
    "SpMVPlan",
    "build_spmv_plan",
    "diagf_seg",
    "diagb_seg",
    "updf_seg",
    "updb_seg",
]
