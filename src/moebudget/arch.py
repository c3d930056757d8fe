"""Closed-form parameter and FLOP accounting for dense and MoE transformers.

All counts follow the non-vocabulary convention: embeddings, norm scales and
router weights are excluded. Per-token forward cost uses the linear-plus-
attention approximation ``2 * active_params + 4 * model_dim * seq_len * layers``
and training cost is three forward passes. Parameter counts and FLOP totals
are computed in exact (arbitrary-width) integer arithmetic; ratios are floats.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass
from typing import Any, Sequence

from .errors import ShapeError

ARRANGEMENTS = ("full", "one_dense", "interleave")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ShapeError(message)


@dataclass(frozen=True)
class DenseShape:
    """Dense transformer shape; every layer is attention plus one FFN."""

    layers: int
    model_dim: int
    ffn_dim: int
    heads: int
    head_dim: int
    seq_len: int = 2048

    def __post_init__(self) -> None:
        _require(self.layers >= 1, f"layers must be >= 1, got {self.layers}")
        _require(self.model_dim >= 1, f"model_dim must be >= 1, got {self.model_dim}")
        _require(self.ffn_dim >= 1, f"ffn_dim must be >= 1, got {self.ffn_dim}")
        _require(self.seq_len >= 1, f"seq_len must be >= 1, got {self.seq_len}")
        _require(self.heads >= 1 and self.head_dim >= 1,
                 f"heads and head_dim must be >= 1, got {self.heads}, {self.head_dim}")
        _require(self.heads * self.head_dim == self.model_dim,
                 f"heads * head_dim must equal model_dim: "
                 f"{self.heads} * {self.head_dim} != {self.model_dim}")

    @property
    def ffn_ratio(self) -> float:
        """FFN width over model width (alpha)."""
        return self.ffn_dim / self.model_dim

    @property
    def seq_ratio(self) -> float:
        """Sequence length over model width (gamma)."""
        return self.seq_len / self.model_dim

    @property
    def aspect_ratio(self) -> float:
        """Model width over depth (zeta)."""
        return self.model_dim / self.layers


@dataclass(frozen=True)
class MoEShape:
    """MoE transformer shape.

    ``base`` carries the common dimensions; ``base.ffn_dim`` applies to the
    dense layers only; ``layer_split`` fixes ``moe_layers`` and ``dense_layers``.
    A ``shared_expert_dim`` of 0 means no shared expert.
    """

    base: DenseShape
    moe_layers: int
    dense_layers: int
    experts: int
    top_k: int
    expert_dim: int
    shared_expert_dim: int = 0
    arrangement: str = "one_dense"
    gate_normalized: bool = False

    def __post_init__(self) -> None:
        _require(self.moe_layers >= 1, f"moe_layers must be >= 1, got {self.moe_layers}")
        split = layer_split(self.base.layers, self.arrangement)
        _require((self.moe_layers, self.dense_layers) == split,
                 f"moe_layers + dense_layers must equal layers as {self.arrangement} splits "
                 f"them: {self.moe_layers} + {self.dense_layers} != {split[0]} + {split[1]}")
        _require(self.experts >= 1, f"experts must be >= 1, got {self.experts}")
        _require(1 <= self.top_k <= self.experts,
                 f"top_k must be in [1, experts]: got {self.top_k} of {self.experts}")
        _require(self.expert_dim >= 1, f"expert_dim must be >= 1, got {self.expert_dim}")
        _require(self.shared_expert_dim >= 0,
                 f"shared_expert_dim must be >= 0, got {self.shared_expert_dim}")
        # Renormalizing a single selected score is the constant 1 and carries
        # no gradient, so top_k == 1 with normalization is rejected here.
        _require(not (self.gate_normalized and self.top_k < 2),
                 "gate_normalized requires top_k >= 2")

    @property
    def model_dim(self) -> int:
        return self.base.model_dim

    @property
    def seq_len(self) -> int:
        return self.base.seq_len

    @property
    def total_expert_ratio(self) -> float:
        """All-expert width over model width (mu)."""
        return (self.shared_expert_dim + self.experts * self.expert_dim) / self.model_dim

    @property
    def active_expert_ratio(self) -> float:
        """Active-expert width over model width (beta)."""
        return (self.shared_expert_dim + self.top_k * self.expert_dim) / self.model_dim


def dense_params(shape: DenseShape) -> int:
    """Non-vocabulary parameter count: (4 + 3*alpha) * model_dim^2 * layers."""
    d, l = shape.model_dim, shape.layers
    return (4 * d * d + 3 * shape.ffn_dim * d) * l


def dense_fwd_flops(shape: DenseShape) -> int:
    """Per-token forward FLOPs: 2N plus the 4 * model_dim * seq_len * layers attention term."""
    return 2 * dense_params(shape) + 4 * shape.model_dim * shape.seq_len * shape.layers


def moe_params(shape: MoEShape) -> tuple[int, int]:
    """Total and active non-vocabulary parameter counts.

    MoE layers contribute (4 + 3*mu) * model_dim^2 each to the total and
    (4 + 3*beta) * model_dim^2 to the active count; dense layers contribute
    the dense formula to both. Router weights are not counted.
    """
    d = shape.model_dim
    attn = 4 * d * d
    dense_layer = attn + 3 * shape.base.ffn_dim * d
    total_expert_width = shape.shared_expert_dim + shape.experts * shape.expert_dim
    active_expert_width = shape.shared_expert_dim + shape.top_k * shape.expert_dim
    total = (attn + 3 * total_expert_width * d) * shape.moe_layers \
        + dense_layer * shape.dense_layers
    active = (attn + 3 * active_expert_width * d) * shape.moe_layers \
        + dense_layer * shape.dense_layers
    return total, active


def activation_rate(shape: MoEShape) -> float:
    """Active over total parameters; equals (4+3*beta)/(4+3*mu) when fully MoE."""
    total, active = moe_params(shape)
    return active / total


def moe_fwd_flops(shape: MoEShape) -> int:
    """Per-token forward FLOPs: 2 * active_params + 4 * model_dim * seq_len * layers."""
    _, active = moe_params(shape)
    return 2 * active + 4 * shape.model_dim * shape.seq_len * shape.base.layers


def training_compute(fwd_flops_per_token: int | float, tokens: int) -> int:
    """Training FLOPs for a token budget: 3 forward passes per token."""
    if tokens < 0:
        raise ShapeError(f"tokens must be >= 0, got {tokens}")
    return 3 * int(fwd_flops_per_token) * int(tokens)


@dataclass(frozen=True)
class ComputeRatio:
    """Per-token cost of an MoE model relative to a dense baseline of equal size.

    ``formula`` is the closed-form ratio of the two per-token cost expressions
    at equal total parameters, r_a * (1 + 2*gamma_m/(4+3*beta)) /
    (1 + 2*gamma_d/(4+3*alpha)); ``direct`` is the actual FLOP ratio of the two
    concrete shapes, for cross-checking.
    """

    formula: float
    direct: float
    activation_rate: float


def compute_ratio(moe: MoEShape, dense: DenseShape, seq_len: int | None = None) -> ComputeRatio:
    """Evaluate the MoE/dense per-token compute ratio at a shared sequence length."""
    s = seq_len if seq_len is not None else moe.seq_len
    _require(s >= 1, f"seq_len must be >= 1, got {s}")
    r_a = activation_rate(moe)
    alpha = dense.ffn_ratio
    beta = moe.active_expert_ratio
    gamma_d = s / dense.model_dim
    gamma_m = s / moe.model_dim
    formula = r_a * (1 + 2 * gamma_m / (4 + 3 * beta)) / (1 + 2 * gamma_d / (4 + 3 * alpha))
    moe_at_s = dataclasses.replace(moe, base=dataclasses.replace(moe.base, seq_len=s))
    dense_at_s = dataclasses.replace(dense, seq_len=s)
    direct = moe_fwd_flops(moe_at_s) / dense_fwd_flops(dense_at_s)
    return ComputeRatio(formula=formula, direct=direct, activation_rate=r_a)


@dataclass(frozen=True)
class DerivedBudget:
    """Parameter, FLOP and data budget derived from a shape.

    ``train_flops_per_token`` is exactly three times ``fwd_flops_per_token``
    and ``train_compute`` is exactly ``train_flops_per_token * tokens``.
    """

    total_params: int
    active_params: int
    activation_rate: float
    fwd_flops_per_token: int
    train_flops_per_token: int
    train_compute: int
    tokens: int
    tokens_per_param: float

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "N": self.total_params,
            "N_a": self.active_params,
            "r_a": self.activation_rate,
            "M_fwd": self.fwd_flops_per_token,
            "M_train": self.train_flops_per_token,
            "C": self.train_compute,
            "D": self.tokens,
            "D_over_N": self.tokens_per_param,
        }


def derive_budget(shape: DenseShape | MoEShape, tokens: int = 0) -> DerivedBudget:
    """Full budget record for a shape at an optional token count."""
    if isinstance(shape, MoEShape):
        total, active = moe_params(shape)
        fwd = moe_fwd_flops(shape)
    elif isinstance(shape, DenseShape):
        total = active = dense_params(shape)
        fwd = dense_fwd_flops(shape)
    else:
        raise ShapeError(f"unsupported shape type {type(shape).__name__}")
    tokens = int(tokens)
    return DerivedBudget(
        total_params=total,
        active_params=active,
        activation_rate=active / total,
        fwd_flops_per_token=fwd,
        train_flops_per_token=3 * fwd,
        train_compute=training_compute(fwd, tokens),
        tokens=tokens,
        tokens_per_param=tokens / total,
    )


# (JSON key, dataclass field) tables shared by shape_to_json and shape_from_json
DENSE_KEYS = (("L", "layers"), ("D_m", "model_dim"), ("D_ffn", "ffn_dim"),
              ("H", "heads"), ("D_h", "head_dim"), ("S", "seq_len"))
MOE_KEYS = (("L_e", "moe_layers"), ("L_d", "dense_layers"), ("E", "experts"),
            ("K", "top_k"), ("D_e", "expert_dim"), ("D_se", "shared_expert_dim"),
            ("arrangement", "arrangement"), ("gate_normalized", "gate_normalized"))


def read_fields(obj: Any, groups: Sequence[tuple[type, Sequence[tuple[str, str]]]],
                error: type[Exception] = ShapeError) -> list[dict[str, Any]]:
    """Constructor kwargs for each ``(dataclass, ((json_key, field), ...))`` group.

    Unknown keys, missing keys of fields without a default, and values that do
    not fit the field annotation raise ``error``; an int field takes integral
    floats, a float field ints, and bool and str fields only their own type.
    """
    if not isinstance(obj, dict):
        raise error(f"expected a JSON object, got {type(obj).__name__}")
    known = {key for _, pairs in groups for key, _ in pairs}
    for key in obj:
        if key not in known:
            raise error(f"unknown key {key!r}")
    out = []
    for cls, pairs in groups:
        fields = {f.name: f for f in dataclasses.fields(cls)}
        kwargs = {}
        for key, name in pairs:
            f = fields[name]
            if key in obj:
                kwargs[name] = json_value(key, obj[key], f.type, error)
            elif f.default is f.default_factory is dataclasses.MISSING:
                raise error(f"missing key {key!r}")
        out.append(kwargs)
    return out


def json_value(key: str, value: Any, kind: str, error: type[Exception]) -> Any:
    """``value`` as the ``kind`` ("int", "float", "bool" or "str") of field ``key``."""
    if kind in ("bool", "str"):
        if isinstance(value, bool if kind == "bool" else str):
            return value
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        if kind == "int" and (isinstance(value, int) or value.is_integer()):
            return int(value)
        if kind == "float" and (isinstance(value, float)
                                or abs(value) <= sys.float_info.max):
            return float(value)
    raise error(f"{key} must be {kind}, got {value!r}")


def shape_to_json(shape: DenseShape | MoEShape) -> dict[str, Any]:
    """Flat JSON object; MoE-only keys are absent for dense shapes."""
    if isinstance(shape, MoEShape):
        return {**shape_to_json(shape.base),
                **{key: getattr(shape, name) for key, name in MOE_KEYS}}
    if isinstance(shape, DenseShape):
        return {key: getattr(shape, name) for key, name in DENSE_KEYS}
    raise ShapeError(f"unsupported shape type {type(shape).__name__}")


def shape_from_json(obj: Any) -> DenseShape | MoEShape:
    """Inverse of shape_to_json; presence of an "E" key selects MoE."""
    if isinstance(obj, dict) and "E" in obj:
        base, moe = read_fields(obj, ((DenseShape, DENSE_KEYS), (MoEShape, MOE_KEYS)))
        return MoEShape(base=DenseShape(**base), **moe)
    return DenseShape(**read_fields(obj, ((DenseShape, DENSE_KEYS),))[0])


def layer_split(layers: int, arrangement: str) -> tuple[int, int]:
    """(moe_layers, dense_layers) for an arrangement at a given depth."""
    _require(arrangement in ARRANGEMENTS,
             f"arrangement must be one of {ARRANGEMENTS}, got {arrangement!r}")
    if arrangement == "full":
        return layers, 0
    if arrangement == "one_dense":
        _require(layers >= 2, f"one_dense needs at least 2 layers, got {layers}")
        return layers - 1, 1
    # interleave: alternate starting with a dense layer
    return layers // 2, layers - layers // 2
