"""ABI model: the action-signature metadata shipped beside a contract.

WASAI consumes a contract's ABI to know which action functions exist
and how to serialise seed parameters Γ⟨φ, ρ⟩ into the byte stream the
dispatcher deserialises (§3.1).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .serialize import SERIALIZABLE_TYPES, pack_values, unpack_values

__all__ = ["AbiParam", "AbiAction", "Abi", "TRANSFER_SIGNATURE"]

# The canonical eosponser header: void transfer(name, name, asset, string).
TRANSFER_SIGNATURE = (("from", "name"), ("to", "name"),
                      ("quantity", "asset"), ("memo", "string"))


@dataclass(frozen=True)
class AbiParam:
    name: str
    type: str

    def __post_init__(self):
        if self.type not in SERIALIZABLE_TYPES:
            raise ValueError(f"unsupported ABI param type {self.type!r}")


@dataclass(frozen=True)
class AbiAction:
    """One action function's signature."""

    name: str
    params: tuple[AbiParam, ...] = ()

    @property
    def param_types(self) -> list[str]:
        return [p.type for p in self.params]

    def pack(self, values: list) -> bytes:
        return pack_values(self.param_types, values)

    def unpack(self, data: bytes) -> list:
        return unpack_values(self.param_types, data)


@dataclass
class Abi:
    """A contract ABI: the set of declared actions."""

    actions: dict[str, AbiAction] = field(default_factory=dict)

    @staticmethod
    def from_signatures(signatures: dict[str, tuple]) -> "Abi":
        """Build from ``{"transfer": (("from", "name"), ...), ...}``."""
        abi = Abi()
        for action_name, params in signatures.items():
            abi.actions[action_name] = AbiAction(
                action_name, tuple(AbiParam(n, t) for n, t in params))
        return abi

    def action(self, name: str) -> AbiAction:
        try:
            return self.actions[name]
        except KeyError:
            raise KeyError(f"action {name!r} not declared in ABI") from None

    def action_names(self) -> list[str]:
        return sorted(self.actions)

    def has_action(self, name: str) -> bool:
        return name in self.actions

    # -- JSON round-trip (mirrors the on-chain ABI format, simplified) ----
    def to_json(self) -> str:
        doc = {
            "version": "eosio::abi/1.1",
            "actions": [
                {"name": a.name,
                 "fields": [{"name": p.name, "type": p.type}
                            for p in a.params]}
                for a in self.actions.values()
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "Abi":
        doc = json.loads(text)
        abi = Abi()
        for entry in doc.get("actions", ()):
            params = tuple(AbiParam(f["name"], f["type"])
                           for f in entry.get("fields", ()))
            abi.actions[entry["name"]] = AbiAction(entry["name"], params)
        return abi
