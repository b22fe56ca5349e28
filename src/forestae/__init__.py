"""Random-forest autoencoder: exact forest kernel, diffusion-map embeddings
with out-of-sample extension, and decoders back to the input space."""

from .data import (
    Column,
    Schema,
    SplitIndices,
    Table,
    bootstrap_split,
    load_csv,
    marginal_synthesize,
    save_csv,
)
from .decode import (
    IlpResult,
    SyntheticTrainingSet,
    build_synthetic_training,
    exclusive_lasso,
    ilp_decode,
    knn_decode,
    lasso_decode,
    reference_leaf_assign,
    relabel_decode,
    relabel_forest,
)
from .forest import (
    Forest,
    ForestParams,
    Region,
    Tree,
    assigned_region,
    fit_completely_random,
    fit_supervised,
    fit_unsupervised,
    leaf_region,
    predict,
)
from .kernel import (
    SparseKernelMatrix,
    mmd_squared,
    rf_kernel_cross,
    rf_kernel_train,
)
from .metrics import DistortionReport, distortion, separation_ratio
from .spectral import (
    SpectralModel,
    diffusion_map,
    eigendecompose,
    nystrom_embed,
    reconstruct_kernel,
    with_time,
)

__version__ = "0.1.0"
