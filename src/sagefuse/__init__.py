"""Two-phase structure-aware fine-tuning for text-attributed graphs:
GraphSAGE structural embeddings injected into a frozen transformer encoder
through gated low-rank fusion adapters and LoRA pairs."""

from .autodiff import Parameter, backward, cross_entropy, no_grad
from .config import ExperimentConfig
from .fusion import (FusionAdapter, LoraPair, ParamAudit, build_adapter_set,
                     fusion_apply, lora_apply)
from .metrics import accuracy, roc_auc
from .optim import AdamW
from .sage import SageModel, forward_embeddings, sage_pass
from .tag import (GeneratorParams, SplitSpec, TextAttributedGraph,
                  generate_synthetic_tag, load_graph, stratified_split)
from .textenc import EncoderBackbone, Vocabulary, build_vocab
from .trainer import Phase2Assembly, RunConfig, train_phase2

__version__ = "0.1.0"
