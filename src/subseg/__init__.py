"""Two-stage sparse subspace clustering for multi-body motion segmentation.

Pipeline: trajectory matrix -> global subspace (PCA or block sparse PCA)
-> NSI-constrained sparse neighbors -> local subspace residuals ->
affinity -> normalized spectral clustering.
"""

from .synthcam import (
    FrameMismatch,
    Labeling,
    MotionTrack,
    PointCloud3D,
    SceneConfig,
    TrajectoryMatrix,
    corrupt,
    make_motion_track,
    make_scene,
    project_scene,
    read_trajectory,
    write_trajectory,
)
from .projection import (
    GlobalSubspace,
    SparseLoadings,
    SpcaParams,
    assemble_global,
    extract_pattern,
    gpower_block,
    pca_project,
)
from .neighbors import (
    RowSparse,
    SparseNeighborSolution,
    WeightMatrix,
    nsi_distances,
    search_area,
    solve_all_neighbors,
    solve_sparse_neighbors,
    weight_matrix,
)
from .subspace_error import (
    ErrorMatrix,
    LocalSubspace,
    build_error_matrix,
)
from .clustering import (
    Affinity,
    SegmentConfig,
    SpectralEmbedding,
    build_affinity,
    kmeans,
    normalized_laplacian,
    segment,
    spectral_embed,
)
from .metrics import ScoreReport, misclassification

__version__ = "0.1.0"
