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
    NeighborSet,
    SyntheticTrainingSet,
    build_synthetic_training,
    exclusive_lasso,
    ilp_decode,
    ilp_decode_exact,
    knn_decode,
    knn_neighbors,
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
    region_intersect,
    route,
)
from .kernel import (
    FeatureMapVector,
    SparseKernelMatrix,
    feature_map,
    leaf_size_vector,
    mmd_squared,
    rf_kernel_cross,
    rf_kernel_train,
    scornet_kernel,
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
