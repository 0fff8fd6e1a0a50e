"""Compute-cost model: FLOPs counted as 2x the multiply-accumulates of every
affine map actually executed (embedding, blocks, adapters, controllers,
head). Used both online by the skipping runtime and offline to re-derive
costs from dumped trace records.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _check_layer_list(costs: ArchCosts, layers, what: str) -> None:
    prev = -1
    for lid in layers:
        if not 0 <= lid < costs.depth:
            raise TraceIntegrityError(f"{what}: layer id {lid} out of range")
        if lid <= prev:
            raise TraceIntegrityError(f"{what}: layer ids not strictly increasing")
        prev = lid


def flop_estimate(costs: ArchCosts, executed_layers, controllers_evaluated=(),
                  adapters_invoked=(), verified: bool = False,
                  skip_run_layers=None) -> int:
    """Total FLOPs of one inference step.

    For a verified step, executed_layers is the full re-run path and
    skip_run_layers the discarded first pass; both are charged.
    """
    _check_layer_list(costs, executed_layers, "executed_layers")
    if verified:
        if skip_run_layers is None:
            raise TraceIntegrityError("verified step without skip_run_layers")
        if len(executed_layers) != costs.depth:
            raise TraceIntegrityError("verified re-run must execute every layer")
        _check_layer_list(costs, skip_run_layers, "skip_run_layers")
        first = forward_flops(costs, len(skip_run_layers),
                              len(adapters_invoked), len(controllers_evaluated))
        return first + forward_flops(costs, costs.depth)
    if skip_run_layers is not None:
        raise TraceIntegrityError("skip_run_layers present on an unverified step")
    return forward_flops(costs, len(executed_layers), len(adapters_invoked),
                         len(controllers_evaluated))


def flop_estimate_record(costs: ArchCosts, record: dict) -> int:
    """Recompute the cost of a dumped JSONL step record."""
    return flop_estimate(
        costs,
        record["executed_layers"],
        record.get("controllers_evaluated", ()),
        record.get("adapters_invoked", ()),
        bool(record.get("verified", False)),
        record.get("skip_run_layers"),
    )
