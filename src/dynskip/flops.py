"""Compute-cost model: FLOPs counted as 2x the multiply-accumulates of every
affine map actually executed (embedding, blocks, adapters, controllers,
head). Used both online by the skipping runtime and offline to re-derive
costs from dumped trace records.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import containers
from .errors import TraceIntegrityError
from .model import PolicyConfig


@dataclass(frozen=True)
class ArchCosts:
    depth: int
    embed: int
    block: int
    adapter: int
    controller: int
    head: int


def adapter_hidden_dim(hidden_dim: int) -> int:
    return max(1, hidden_dim // 4)


def controller_hidden_dim(hidden_dim: int) -> int:
    return max(1, hidden_dim // 8)


def _mlp_flops(d_in: int, d_hidden: int, d_out: int) -> int:
    return 2 * (d_in * d_hidden + d_hidden * d_out)


def arch_costs(config: PolicyConfig) -> ArchCosts:
    d = config.hidden_dim
    return ArchCosts(
        depth=config.depth,
        embed=2 * config.input_dim * d,
        block=_mlp_flops(d, d, d),
        adapter=_mlp_flops(d, adapter_hidden_dim(d), d),
        controller=_mlp_flops(d, controller_hidden_dim(d), 1),
        head=2 * d * config.action_dim,
    )


def forward_flops(costs: ArchCosts, n_blocks: int, n_adapters: int = 0,
                  n_controllers: int = 0) -> int:
    return (costs.embed + costs.head + n_blocks * costs.block
            + n_adapters * costs.adapter + n_controllers * costs.controller)


def verify_flops(costs: ArchCosts, first_skipped: int) -> int:
    """FLOPs of a verification re-run that resumes at the skip pass's first
    skipped layer: blocks first_skipped..depth-1 and the head. The
    embedding and the blocks below ran in the skip pass, charged there."""
    return (costs.depth - first_skipped) * costs.block + costs.head


def _check_layer_list(costs: ArchCosts, layers, what: str) -> None:
    prev = -1
    for lid in layers:
        if not 0 <= lid < costs.depth:
            raise TraceIntegrityError(f"{what}: layer id {lid} out of range")
        if lid <= prev:
            raise TraceIntegrityError(f"{what}: layer ids not strictly increasing")
        prev = lid


def flop_estimate(costs: ArchCosts, executed_layers, controllers_evaluated=(),
                  adapters_invoked=(), verified: bool = False) -> int:
    """Total FLOPs of one inference step; executed_layers lists every block
    it ran.

    A verified step ran the pass, then re-ran from the pass's first skipped
    layer s = adapters_invoked[0]: blocks s..depth-1 and the head, on the
    pass's input to layer s. Its list is the pass's path followed by
    s..depth-1, and it is charged the pass plus verify_flops(costs, s).
    TraceIntegrityError when a layer list holds an id out of range or not
    strictly increasing, or when a verified record has no adapter, its list
    does not end with s..depth-1, or its pass lacks a layer below s, so
    that the re-run's input is not the full pass's.
    """
    _check_layer_list(costs, controllers_evaluated, "controllers_evaluated")
    _check_layer_list(costs, adapters_invoked, "adapters_invoked")
    if not verified:
        _check_layer_list(costs, executed_layers, "executed_layers")
        return forward_flops(costs, len(executed_layers), len(adapters_invoked),
                             len(controllers_evaluated))
    if not adapters_invoked:
        raise TraceIntegrityError("verified step without a skipped layer to resume at")
    s = adapters_invoked[0]
    n_pass = len(executed_layers) - (costs.depth - s)
    if n_pass < 0 or list(executed_layers[n_pass:]) != list(range(s, costs.depth)):
        raise TraceIntegrityError(
            f"verified step resumes at layer {s}, but executed_layers does not end "
            f"with its re-run {s}..{costs.depth - 1}")
    pass_layers = executed_layers[:n_pass]
    _check_layer_list(costs, pass_layers, "executed_layers")
    if list(pass_layers[:s]) != list(range(s)):
        raise TraceIntegrityError(
            f"verified step resumes at layer {s}, but its pass lacks a layer below it")
    return (forward_flops(costs, n_pass, len(adapters_invoked), len(controllers_evaluated))
            + verify_flops(costs, s))


def _priced_field(record: dict, name: str, type_name: str, kind: str):
    if name not in record:
        raise TraceIntegrityError(f"no {name!r}")
    if not containers.is_json_type(record[name], type_name):
        raise TraceIntegrityError(f"{name!r} is not {kind}: {record[name]!r}")
    return record[name]


def flop_estimate_record(costs: ArchCosts, record: dict) -> int:
    """Recompute the cost of a dumped JSONL step record. TraceIntegrityError,
    naming the field, when a priced field is missing, a layer list is not a
    list of ints or verified is not a bool; online steps build their own
    lists and skip these checks."""
    layer_lists = [_priced_field(record, name, "list[int]", "a list of ints")
                   for name in ("executed_layers", "controllers_evaluated", "adapters_invoked")]
    verified = _priced_field(record, "verified", "bool", "a bool")
    return flop_estimate(costs, *layer_lists, verified)
