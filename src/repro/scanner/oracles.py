"""Adversary oracles: agent contracts and payload templates (§2.3, §3.5).

The Engine initiates the local blockchain with the auxiliary contracts
these oracles need (Algorithm 1 L2):

* ``fake.token`` — a second :class:`TokenContract` issuing counterfeit
  "EOS" under its own code (Fake EOS method 2),
* ``fake.notif`` — an agent that forwards ``eosio.token`` notifications
  to the victim unchanged, preserving ``code`` (Fake Notif).

``build_payload`` turns a seed into the concrete transaction for each
payload kind, together with the parameter values the victim's
eosponser actually observes (needed to initialise the symbolic layout
truthfully).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..eosio.asset import Asset, EOS_SYMBOL

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..engine.seeds import Seed
from ..eosio.chain import Action, Chain, NativeContract
from ..eosio.name import N, Name
from ..eosio.serialize import Encoder
from ..eosio.token import deploy_token, issue_to

__all__ = ["ORACLE_VERSION", "PAYLOAD_KINDS", "AdversarySetup",
           "setup_adversaries", "build_payload", "ForwardingAgent"]

# Version of the registered scanner-oracle set (the five detectors of
# §3.5 plus their payload templates, and since v2 the semantic oracle
# families of repro.semoracle).  Bump whenever a detector's verdict
# logic or an oracle's payload changes — stored verdicts carry it as
# provenance, so a re-verdict sweep (`wasai reverdict`) can tell
# which verdicts predate a fix and the drift auditor can distinguish
# "oracle evolved" from "verdict rotted".
ORACLE_VERSION = 2

PAYLOAD_KINDS = ("legit", "direct", "fake_token", "fake_notif")

PLAYER = "player"
ATTACKER = "attacker"
FAKE_TOKEN = "fake.token"
FAKE_NOTIF = "fake.notif"


class ForwardingAgent(NativeContract):
    """The fake.notif agent: re-targets eosio.token notifications at
    the victim while the original ``code`` survives (§2.3.2)."""

    def __init__(self, victim: int):
        self.victim = victim

    def apply(self, chain: Chain, ctx) -> None:
        if ctx.code == N("eosio.token") and ctx.is_notification:
            ctx.add_recipient(self.victim)


@dataclass
class AdversarySetup:
    """Account names of the adversary infrastructure."""

    victim: int
    player: int
    attacker: int
    fake_token: int
    fake_notif: int


def setup_adversaries(chain: Chain, victim: "int | str") -> AdversarySetup:
    """Deploy the agent contracts and fund the adversary accounts."""
    victim_name = int(Name(victim))
    player = chain.create_account(PLAYER)
    attacker = chain.create_account(ATTACKER)
    if chain.get_contract(FAKE_TOKEN) is None:
        deploy_token(chain, FAKE_TOKEN)
        issue_to(chain, FAKE_TOKEN, ATTACKER, "100000.0000 EOS")
    fake_notif = chain.set_contract(FAKE_NOTIF, ForwardingAgent(victim_name))
    return AdversarySetup(victim_name, player, attacker,
                          int(Name(FAKE_TOKEN)), fake_notif)


def _transfer_data(from_, to, quantity: Asset, memo: str) -> bytes:
    return (Encoder().name(from_).name(to).asset(quantity)
            .string(memo).bytes())


def _payment_quantity(seed_asset) -> Asset:
    """Clamp a seed asset into a valid payment (positive EOS)."""
    if isinstance(seed_asset, Asset) and seed_asset.symbol == EOS_SYMBOL:
        amount = seed_asset.amount
    else:
        amount = 10_000
    if amount <= 0:
        amount = 10_000
    return Asset(min(amount, 10_000_000_000), EOS_SYMBOL)


def build_payload(kind: str, setup: AdversarySetup, seed: "Seed",
                  abi_action, payer: int | None = None,
                  ) -> tuple[list[Action], list]:
    """Build the transaction for a payload kind.

    Returns ``(actions, executed_params)`` where ``executed_params``
    are the eosponser parameter values the victim will observe (used
    as the symbolic layout's concrete seed); for non-transfer seeds it
    is the seed values themselves.  ``payer`` overrides the paying
    identity of the ``legit`` payload (the address-pool extension).
    """
    if seed.action_name != "transfer":
        data = abi_action.pack(seed.values)
        return ([Action(setup.victim, seed.action_name,
                        [setup.attacker], data)], list(seed.values))
    from_, to, quantity, memo = seed.values
    if not isinstance(memo, (str, bytes)):
        memo = str(memo)
    if kind == "direct":
        # Method 1 of §2.3.1: invoke the eosponser directly.
        data = _transfer_data(from_, to, _as_asset(quantity), memo)
        return ([Action(setup.victim, "transfer", [setup.attacker], data)],
                [Name(from_), Name(to), _as_asset(quantity), memo])
    paid = _payment_quantity(quantity)
    if kind == "legit":
        who = payer if payer is not None else setup.player
        data = _transfer_data(who, setup.victim, paid, memo)
        return ([Action(N("eosio.token"), "transfer", [who], data)],
                [Name(who), Name(setup.victim), paid, memo])
    if kind == "fake_token":
        # Method 2 of §2.3.1: pay with counterfeit EOS.
        data = _transfer_data(setup.attacker, setup.victim, paid, memo)
        return ([Action(setup.fake_token, "transfer", [setup.attacker],
                        data)],
                [Name(setup.attacker), Name(setup.victim), paid, memo])
    if kind == "fake_notif":
        # §2.3.2: real EOS to the agent, notification forwarded.
        data = _transfer_data(setup.attacker, FAKE_NOTIF, paid, memo)
        return ([Action(N("eosio.token"), "transfer", [setup.attacker],
                        data)],
                [Name(setup.attacker), Name(FAKE_NOTIF), paid, memo])
    raise ValueError(f"unknown payload kind {kind!r}")


def _as_asset(value) -> Asset:
    if isinstance(value, Asset):
        return value
    return Asset.from_string(str(value))
