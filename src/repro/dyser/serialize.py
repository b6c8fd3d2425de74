"""Configuration serialization: save/load DySER configurations as plain
dicts (JSON-compatible).

Useful for shipping compiled artifacts — a program plus its
configurations — without re-running the spatial scheduler, and for
inspecting what ``dyser_init`` actually loads.  The fabric itself is not
serialized: a configuration is only meaningful against a compatible
fabric, which the caller supplies on load (and validation re-checks).
"""

from __future__ import annotations

from repro.dyser.config import DyserConfig
from repro.dyser.dfg import ConstRef, Dfg, NodeRef, PortRef, Source
from repro.dyser.fabric import Fabric
from repro.dyser.ops import FuOp
from repro.errors import DyserError


def source_to_obj(src: Source) -> dict:
    """JSON-compatible dict of one DFG input source."""
    if isinstance(src, PortRef):
        return {"kind": "port", "port": src.port}
    if isinstance(src, NodeRef):
        return {"kind": "node", "node": src.node}
    return {"kind": "const", "value": src.value}


def _source_from_obj(obj) -> Source:
    kind = obj.get("kind")
    if kind == "port":
        return PortRef(obj["port"])
    if kind == "node":
        return NodeRef(obj["node"])
    if kind == "const":
        return ConstRef(obj["value"])
    raise DyserError(f"bad source kind {kind!r}")


def config_to_dict(config: DyserConfig) -> dict:
    """Serialize ``config`` to a JSON-compatible dict."""
    dfg = config.dfg
    data: dict = {
        "config_id": config.config_id,
        "name": dfg.name,
        "nodes": [
            {
                "id": node.id,
                "op": node.op.value,
                "inputs": [source_to_obj(s) for s in node.inputs],
            }
            for node in dfg.topo_order()
        ],
        "outputs": {
            str(port): source_to_obj(src)
            for port, src in dfg.outputs.items()
        },
    }
    if config.placement is not None:
        data["placement"] = {
            str(nid): list(fu) for nid, fu in config.placement.items()
        }
    if config.routes is not None:
        data["routes"] = [
            {
                "source": list(skey),
                "sink": list(sink),
                "path": [list(sw) for sw in path],
            }
            for (skey, sink), path in config.routes.items()
        ]
    return data


def config_from_dict(data: dict, fabric: Fabric, *,
                     validate: bool = True) -> DyserConfig:
    """Rebuild a configuration against ``fabric``; validates on exit.

    ``validate=False`` skips the throwing validator and returns the
    configuration as-deserialized — the fuzz harness uses this to hand
    deliberately-ill-formed configurations to the *linter*, whose whole
    point is to report what validation would reject (and more).
    """
    for field in ("config_id", "nodes", "outputs"):
        if field not in data:
            raise DyserError(f"config payload missing {field!r}")
    dfg = Dfg(data.get("name", "config"))
    for node in data["nodes"]:
        dfg.add_node(
            FuOp(node["op"]),
            [_source_from_obj(s) for s in node["inputs"]],
            node_id=node["id"],
        )
    for port, src in data["outputs"].items():
        dfg.set_output(int(port), _source_from_obj(src))
    placement = None
    if "placement" in data:
        placement = {
            int(nid): tuple(fu)
            for nid, fu in data["placement"].items()
        }
    routes = None
    if "routes" in data:
        routes = {}
        for entry in data["routes"]:
            skey = tuple(entry["source"])
            sink = tuple(entry["sink"])
            routes[(skey, sink)] = [tuple(sw) for sw in entry["path"]]
    config = DyserConfig(data["config_id"], dfg, fabric,
                         placement=placement, routes=routes)
    if validate:
        config.validate()
    return config
