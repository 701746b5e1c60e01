"""Benchmark corpus construction (§4.2, §4.3, §4.4).

Builds the labelled sample sets behind Tables 4-6 and the RQ4 wild
corpus, at a configurable ``scale`` (1.0 = the paper's counts).  Each
sample is a generated contract plus its per-type ground-truth label,
following the paper's construction recipe:

* Fake EOS / Fake Notif — guard code removed vs. present;
* MissAuth — permission-API calls removed vs. present;
* BlockinfoDep / Rollback — the Listing 4 template at the end of
  nested random-constant branches; non-vulnerable twins place it
  behind inaccessible branches;
* obfuscated variants (Table 5) and complicated-verification variants
  (Table 6) are bytecode-level transformations of the same samples.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from ..wasm.module import Module
from .contracts import (ContractConfig, GeneratedContract, VULN_TYPES,
                        generate_contract)
from .obfuscate import obfuscate_module
from .verification import VerificationSpec, inject_verification

__all__ = ["BenchmarkSample", "build_table4_corpus", "build_wild_corpus",
           "obfuscated_variant", "verification_variant", "PAPER_COUNTS",
           "WildContract"]

# Per-type sample counts of the paper's Table 4 benchmark (vul + safe).
PAPER_COUNTS = {
    "fake_eos": 254,
    "fake_notif": 1378,
    "missauth": 890,
    "blockinfodep": 400,
    "rollback": 418,
}

# Fraction of contracts using the non-canonical dispatcher idiom
# (drives EOSAFE's path-location failures; see DESIGN.md).
VARIANT_DISPATCHER_RATIO = 0.5


@dataclass
class BenchmarkSample:
    """One labelled benchmark entry for a specific vulnerability type."""

    vuln_type: str
    label: bool                      # ground truth: vulnerable?
    contract: GeneratedContract
    variant: str = "plain"           # "plain" | "obfuscated" | "verified"
    verification: VerificationSpec | None = None

    @property
    def module(self) -> Module:
        return self.contract.module


def _base_config(rng: random.Random, account: str = "victim",
                 maze: tuple[int, int] = (0, 2)) -> ContractConfig:
    """A randomised, fully-patched baseline configuration."""
    return ContractConfig(
        account=account,
        seed=rng.getrandbits(32),
        fake_eos_guard=True,
        fake_notif_guard=True,
        auth_check=True,
        use_blockinfo=False,
        reward_scheme=rng.choice(("inline", "defer")),
        db_dependency=rng.random() < 0.3,
        dispatcher_style=("variant"
                          if rng.random() < VARIANT_DISPATCHER_RATIO
                          else "canonical"),
        maze_depth=rng.randint(*maze),
    )


def _sample_config(vuln_type: str, vulnerable: bool,
                   rng: random.Random) -> ContractConfig:
    """The §4.2 injection recipe for one sample."""
    if vuln_type in ("blockinfodep", "rollback"):
        # "Several nested if-else branches" with the Listing 4 template
        # at the branch ends; inaccessible branches for the safe twins.
        config = _base_config(rng, maze=(2, 3))
        config = replace(config, use_blockinfo=True,
                         reward_scheme="inline",
                         unreachable_reward=not vulnerable)
        return config
    config = _base_config(rng)
    if vuln_type == "fake_eos":
        return replace(config, fake_eos_guard=not vulnerable)
    if vuln_type == "fake_notif":
        return replace(config, fake_notif_guard=not vulnerable)
    if vuln_type == "missauth":
        return replace(config, auth_check=not vulnerable,
                       reward_scheme="defer")
    raise ValueError(f"unknown vulnerability type {vuln_type!r}")


def build_table4_corpus(scale: float = 0.1,
                        seed: int = 20220718) -> list[BenchmarkSample]:
    """The balanced ground-truth benchmark (3,340 samples at scale 1)."""
    rng = random.Random(seed)
    samples: list[BenchmarkSample] = []
    for vuln_type in VULN_TYPES:
        per_label = max(1, round(PAPER_COUNTS[vuln_type] * scale / 2))
        for label in (True, False):
            for _ in range(per_label):
                config = _sample_config(vuln_type, label, rng)
                contract = generate_contract(config)
                samples.append(BenchmarkSample(vuln_type, label, contract))
    return samples


def obfuscated_variant(sample: BenchmarkSample) -> BenchmarkSample:
    """Table 5: the same sample, popcount + decoy-recursion obfuscated."""
    module = obfuscate_module(sample.contract.module,
                              seed=sample.contract.config.seed)
    contract = GeneratedContract(sample.contract.config, module,
                                 sample.contract.abi,
                                 dict(sample.contract.ground_truth),
                                 sample.contract.maze_witness)
    return BenchmarkSample(sample.vuln_type, sample.label, contract,
                           variant="obfuscated")


def verification_variant(sample: BenchmarkSample,
                         spec: VerificationSpec | None = None,
                         ) -> BenchmarkSample:
    """Table 6: the same sample behind complicated input verification.

    When the sample contains a branch maze, the injected quantity guard
    is aligned with the maze witness so the original ground truth is
    preserved (the guards and the maze stay jointly satisfiable).
    """
    if spec is None:
        witness = sample.contract.maze_witness
        if witness is not None:
            spec = VerificationSpec(amount=witness["amount"])
        else:
            spec = VerificationSpec()
    module = inject_verification(sample.contract.module, spec)
    contract = GeneratedContract(sample.contract.config, module,
                                 sample.contract.abi,
                                 dict(sample.contract.ground_truth),
                                 sample.contract.maze_witness)
    return BenchmarkSample(sample.vuln_type, sample.label, contract,
                           variant="verified", verification=spec)


def build_rq1_contracts(count: int = 100,
                        seed: int = 41) -> list[GeneratedContract]:
    """Real-world-like contracts for the RQ1 coverage study (Figure 3).

    Contracts lean on deep branch mazes and database dependencies —
    the conditional-branch-heavy population where feedback matters.
    """
    rng = random.Random(seed)
    out = []
    for index in range(count):
        config = _base_config(rng, account="victim", maze=(5, 7))
        config = replace(
            config,
            seed=rng.getrandbits(32),
            fake_eos_guard=rng.random() < 0.5,
            fake_notif_guard=rng.random() < 0.5,
            use_blockinfo=rng.random() < 0.3,
            db_dependency=rng.random() < 0.4,
        )
        out.append(generate_contract(config))
    return out


# ---------------------------------------------------------------------------
# RQ4: the in-the-wild corpus
# ---------------------------------------------------------------------------

@dataclass
class WildContract:
    """One 'deployed' contract with its maintenance history (§4.4)."""

    contract: GeneratedContract
    still_operating: bool
    patched_later: bool

    @property
    def ground_truth(self) -> dict[str, bool]:
        return self.contract.ground_truth


def build_wild_corpus(scale: float = 0.1,
                      seed: int = 991) -> list[WildContract]:
    """Profitable Mainnet-like contracts (991 at scale 1).

    The vulnerability mix follows the RQ4 findings: ~70% of profitable
    contracts carry at least one issue, MissAuth being the most common
    and BlockinfoDep the rarest; 58% of flagged contracts remain
    operating and only a sliver were patched.
    """
    rng = random.Random(seed)
    count = max(4, round(991 * scale))
    out: list[WildContract] = []
    for index in range(count):
        config = _base_config(rng, maze=(0, 3))
        # Independently drop guards at rates shaped by the RQ4 counts
        # (241 FakeEOS / 264 FakeNotif / 470 MissAuth / 22 Blockinfo /
        #  122 Rollback out of 991).
        config = replace(
            config,
            fake_eos_guard=rng.random() >= 0.24,
            fake_notif_guard=rng.random() >= 0.27,
            auth_check=rng.random() >= 0.47,
            use_blockinfo=rng.random() < 0.05,
            reward_scheme=("inline" if rng.random() < 0.12
                           else rng.choice(("defer", "none"))),
            seed=rng.getrandbits(32),
        )
        contract = generate_contract(config)
        vulnerable = any(contract.ground_truth.values())
        still_operating = rng.random() < (0.58 if vulnerable else 0.8)
        patched_later = still_operating and rng.random() < 0.17
        out.append(WildContract(contract, still_operating, patched_later))
    return out
