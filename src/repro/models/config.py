"""Model configurations (the paper's Table I) and checkpoint size model.

Table I of the paper:

=======  ===========  ====  =======  ==========
Model    Hidden size  #AH   #Layers  Model size
=======  ===========  ====  =======  ==========
GPT-2    1600         32    48       1.6B
GPT-2    2560         40    64       5.3B
GPT-2    5120         40    64       20B
BERT     1600         32    48       1.6B
BERT     2560         40    64       5.3B
BERT     5120         40    64       20B
T5       1600         32    48       1.6B
T5       2560         40    64       5.3B
T5       5120         40    64       20B
=======  ===========  ====  =======  ==========

All experiments keep the vocabulary at 50,257 tokens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.errors import ReproError

VOCAB_SIZE = 50257
MAX_POSITION_EMBEDDINGS = 1024


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyper-parameters of one Table-I entry.

    Attributes:
        family: "gpt2", "bert" or "t5".
        hidden_size: transformer hidden dimension.
        num_attention_heads: attention heads per layer.
        num_layers: transformer layers (for T5 this is the total across
            encoder and decoder, split evenly).
        label: the paper's size label, e.g. "5.3B".
    """

    family: str
    hidden_size: int
    num_attention_heads: int
    num_layers: int
    label: str
    vocab_size: int = VOCAB_SIZE
    max_position_embeddings: int = MAX_POSITION_EMBEDDINGS

    def __post_init__(self) -> None:
        if self.hidden_size % self.num_attention_heads:
            raise ReproError(
                f"hidden size {self.hidden_size} not divisible by "
                f"{self.num_attention_heads} heads"
            )

    @property
    def name(self) -> str:
        return f"{self.family}-{self.label}"

    @property
    def ffn_hidden_size(self) -> int:
        """Feed-forward inner dimension (4x hidden, the GPT-2/BERT default)."""
        return 4 * self.hidden_size

    @property
    def padded_vocab_size(self) -> int:
        """Vocabulary padded to a multiple of 512, Megatron-style.

        Megatron pads the embedding table so it divides evenly across any
        practical tensor-parallel degree; 50,257 becomes 50,688.
        """
        return ((self.vocab_size + 511) // 512) * 512

    def parameter_count(self) -> int:
        """Exact parameter count, summed from the per-tensor shapes."""
        from repro.models.transformer import parameter_shapes

        return sum(
            int_prod(shape) for _, shape in parameter_shapes(self)
        )


def int_prod(shape: tuple[int, ...]) -> int:
    out = 1
    for s in shape:
        out *= s
    return out


def _zoo() -> dict[str, ModelConfig]:
    table = [
        (1600, 32, 48, "1.6B"),
        (2560, 40, 64, "5.3B"),
        (5120, 40, 64, "20B"),
    ]
    zoo: dict[str, ModelConfig] = {}
    for family in ("gpt2", "bert", "t5"):
        for hidden, heads, layers, label in table:
            cfg = ModelConfig(
                family=family,
                hidden_size=hidden,
                num_attention_heads=heads,
                num_layers=layers,
                label=label,
            )
            zoo[cfg.name] = cfg
    # The scalability experiment (Fig. 14) uses small GPT-2 variants with
    # hidden size 1024 and 16..128 layers.
    for layers in (16, 32, 64, 128):
        cfg = ModelConfig(
            family="gpt2",
            hidden_size=1024,
            num_attention_heads=16,
            num_layers=layers,
            label=f"h1024-L{layers}",
        )
        zoo[cfg.name] = cfg
    return zoo


MODEL_ZOO: dict[str, ModelConfig] = _zoo()


def get_model_config(name: str) -> ModelConfig:
    """Look up a model by name, e.g. ``"gpt2-5.3B"``.

    Raises:
        ReproError: if the name is unknown.
    """
    try:
        return MODEL_ZOO[name]
    except KeyError:
        raise ReproError(
            f"unknown model {name!r}; available: {sorted(MODEL_ZOO)}"
        ) from None


def table1_configs() -> list[ModelConfig]:
    """The nine Table-I entries, in the paper's row order."""
    out = []
    for family in ("gpt2", "bert", "t5"):
        for label in ("1.6B", "5.3B", "20B"):
            out.append(MODEL_ZOO[f"{family}-{label}"])
    return out


@dataclass(frozen=True)
class CheckpointSizeModel:
    """Bytes of checkpoint per parameter, Megatron mixed-precision style.

    The paper reports a 6.5 GB checkpoint for GPT2-345M, i.e. ~18.8 bytes
    per parameter, consistent with Megatron's fp16 training state: fp16
    parameters (2) + fp32 master copy (4) + fp32 Adam exp_avg (4) + fp32
    Adam exp_avg_sq (4) + fp16 gradients (2) and per-tensor bookkeeping.
    18 bytes/parameter reproduces that within a few percent.
    """

    bytes_per_parameter: ClassVar[float] = 18.0

    def checkpoint_bytes(self, config: ModelConfig) -> int:
        """Full-model checkpoint size in bytes."""
        return int(config.parameter_count() * self.bytes_per_parameter)
