"""Federated graph collaborative filtering with user-governed data contribution.

The package simulates a federation of user devices and a central server.
Each user decides how much of their interaction data to contribute; the
server builds a bipartite graph from the contributed data, mends likely
missing links, and co-trains a global model with the devices through
light graph convolution, BPR ranking loss, and a contrastive term that
aligns device-side and server-side embedding views.
"""

__version__ = "0.1.0"

from .seeds import child_rng
from .data import (
    InteractionDataset,
    SharePolicy,
    ShareTier,
    assign_share_policy,
    attach_contributions,
    filter_k_core,
    load_interactions,
    split_dataset,
    synth_dataset,
)
from .graph import (
    BipartiteGraph,
    EgoGraph,
    EmbeddingState,
    default_alpha,
    xavier_init,
)
from .learn import (
    AdamMoments,
    CLTerm,
    GradientBundle,
    HyperParams,
    LossParts,
    LossSpec,
    RowBlock,
    adam_step,
    compute_gradients,
)
from .mending import MendingArtifacts, impair_graph, mend_graph, predict_links, train_mender
from .client import DeviceTable, DeviceUpload, ReceivedViews, client_local_train
from .server import (
    AuditLog,
    ServerState,
    apply_ldp,
    embedding_exchange,
    fedavg_aggregate,
    server_infer,
    server_train,
)
from .loop import RoundReport, RunContext, prepare_run, run_round, run_training, select_clients
from .evaluate import EvalResult, evaluate
