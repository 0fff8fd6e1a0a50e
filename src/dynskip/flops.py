"""Compute-cost model: FLOPs counted as 2x the multiply-accumulates of every
affine map actually executed (embedding, blocks, adapters, controllers,
head). `flop_estimate` is the one pricing rule: `runtime.rollout_episode`
prices each live step with it once, after the step is final, and
`flop_estimate_record` checks a dumped step record and re-prices it.
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
    """FLOPs of one step: the embedding and head, and a block, adapter or
    controller per entry of its list. A verified step adds its re-run's
    head; its executed_layers already holds the re-run's blocks s..depth-1.
    The lists are priced as given (flop_estimate_record checks dumped ones)."""
    return (costs.embed + costs.head + len(executed_layers) * costs.block
            + len(adapters_invoked) * costs.adapter
            + len(controllers_evaluated) * costs.controller
            + (costs.head if verified else 0))


def _priced_field(record: dict, name: str, type_name: str, kind: str):
    if name not in record:
        raise TraceIntegrityError(f"no {name!r}")
    if not containers.JSON_TYPES[type_name](record[name]):
        raise TraceIntegrityError(f"{name!r} is not {kind}: {record[name]!r}")
    return record[name]


def flop_estimate_record(costs: ArchCosts, record: dict) -> int:
    """Check a dumped JSONL step record and re-price it with flop_estimate.
    TraceIntegrityError, naming the field, when a priced field is missing, a
    layer list is not a list of ints or holds an id out of range or not
    strictly increasing, or verified is not a bool. A verified step re-ran
    from the pass's first skipped layer s = adapters_invoked[0] on its input
    to s, so its record also needs an adapter, executed_layers ending with
    s..depth-1 and a pass that ran every layer below s."""
    executed, controllers, adapters = (
        _priced_field(record, name, "list[int]", "a list of ints")
        for name in ("executed_layers", "controllers_evaluated", "adapters_invoked"))
    verified = _priced_field(record, "verified", "bool", "a bool")
    _check_layer_list(costs, controllers, "controllers_evaluated")
    _check_layer_list(costs, adapters, "adapters_invoked")
    pass_layers = executed
    if verified:
        if not adapters:
            raise TraceIntegrityError("verified step without a skipped layer to resume at")
        s = adapters[0]
        n_pass = len(executed) - (costs.depth - s)
        if n_pass < 0 or executed[n_pass:] != list(range(s, costs.depth)):
            raise TraceIntegrityError(
                f"verified step resumes at layer {s}, but executed_layers does not end "
                f"with its re-run {s}..{costs.depth - 1}")
        pass_layers = executed[:n_pass]
    _check_layer_list(costs, pass_layers, "executed_layers")
    if verified and pass_layers[:s] != list(range(s)):
        raise TraceIntegrityError(
            f"verified step resumes at layer {s}, but its pass lacks a layer below it")
    return flop_estimate(costs, executed, controllers, adapters, verified)
