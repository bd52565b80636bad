"""Knowledge graph embedding toolkit.

Data pipeline, negative sampling, conventional / GNN / rule-injected
embedding models, filtered link-prediction evaluation, and hyperparameter
search, all on numpy.
"""

__version__ = "0.1.0"

from .data import (  # noqa: F401
    Groundings,
    IndexedKG,
    Rule,
    Vocab,
    add_inverse_relations,
    build_vocab,
    ground_rules,
    index_kg,
    load_kg,
    load_rules,
    load_triples,
    read_groundings,
    write_groundings,
    write_vocab,
)
from .losses import (  # noqa: F401
    LossSpec,
    bce_loss,
    margin_loss,
    self_adversarial_loss,
)
from .models import (  # noqa: F401
    MODEL_KINDS,
    ModelParams,
    grad,
    init_params,
    score,
    score_candidates,
)
from .sampling import (  # noqa: F401
    BernoulliTable,
    GraphBatch,
    LabeledBatch,
    NegBatch,
    all_negatives,
    bern_negatives,
    bernoulli_table,
    filter_known,
    sample_graph,
    uniform_negatives,
)

from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint  # noqa: F401
from .config import ConfigError, TrainConfig, parse_config_file  # noqa: F401
from .evaluate import RankingReport, build_filter_sets, evaluate  # noqa: F401
from .gnn import RGCNModel, init_rgcn, rgcn_forward, rgcn_score  # noqa: F401
from .optim import init_optimizer, optimizer_step  # noqa: F401
from .rules import SoftLabelSet, predict_soft_labels, ruge_loss, triple_truth  # noqa: F401
from .search import grid_search, random_search  # noqa: F401
from .train import TrainResult, early_stop, final_report, train  # noqa: F401
