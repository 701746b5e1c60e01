"""The EOSFuzzer baseline (Huang et al., Internetware'20) as the paper
characterises it (§1, §4.2, §4.3).

Differences from WASAI, reproduced deliberately:

* **no feedback** — seeds are purely random; there is no symbolic
  replay, no constraint flipping, no DBG-driven transaction sequencing;
* **runtime-level tracing** — EOSFuzzer instruments the VM rather than
  the contract, so it "has to sacrifice the efficiency to execute smart
  contracts one by one"; the cost model charges extra per transaction;
* **flawed oracles** —
  - Fake EOS "reports positive no matter which action is invoked after
    receiving fake EOS", and "outputs a positive report … if none of
    the transactions is executed successfully" (the RQ3 collapse);
  - Fake Notif requires observing a side effect under the forged
    notification, so unexplored guard/verification code yields FNs;
  - there are **no oracles** for MissAuth or Rollback at all.
"""

from __future__ import annotations

import random

from ..engine.clock import CostModel, VirtualClock
from ..engine.deploy import FuzzTarget
from ..engine.fuzzer import FuzzReport, WasaiFuzzer
from ..eosio.chain import Chain
from ..scanner.detectors import EFFECT_APIS, ScanResult, VulnerabilityFinding

__all__ = ["EosfuzzerCampaign", "eosfuzzer_scan"]

# EOSFuzzer's VM-level tracing executes contracts one by one (§3.2 C1);
# we charge a serialisation penalty relative to WASAI's cost model.
EOSFUZZER_COSTS = CostModel(transaction_ms=55.0, replay_ms=0.0,
                            smt_query_ms=0.0, iteration_overhead_ms=3.0)


class EosfuzzerCampaign(WasaiFuzzer):
    """Random black-box fuzzing: WASAI's Engine with feedback off."""

    def __init__(self, chain: Chain, target: FuzzTarget,
                 rng: random.Random | None = None,
                 clock: VirtualClock | None = None,
                 timeout_ms: float = 300_000.0):
        super().__init__(chain, target, rng=rng,
                         clock=clock or VirtualClock(EOSFUZZER_COSTS),
                         timeout_ms=timeout_ms, feedback=False)


def eosfuzzer_scan(report: FuzzReport, target: FuzzTarget) -> ScanResult:
    """EOSFuzzer's oracles over a finished random campaign."""
    result = ScanResult(target_account=report.target_account)
    result.findings["fake_eos"] = _fake_eos(report)
    result.findings["fake_notif"] = _fake_notif(report)
    result.findings["blockinfodep"] = _blockinfodep(report)
    # No oracles for these two (Table 4 "-"):
    result.findings["missauth"] = VulnerabilityFinding(
        "missauth", False, "EOSFuzzer has no MissAuth oracle")
    result.findings["rollback"] = VulnerabilityFinding(
        "rollback", False, "EOSFuzzer has no Rollback oracle")
    return result


def _fake_eos(report: FuzzReport) -> VulnerabilityFinding:
    fake_payloads = (report.observations_of("direct")
                     + report.observations_of("fake_token"))
    # Flaw 1: positive no matter WHICH action ran after fake EOS was
    # sent — any successful victim execution under the fake payload
    # counts, even a benign dispatch that never reached the eosponser.
    for obs in fake_payloads:
        if obs.success:
            return VulnerabilityFinding(
                "fake_eos", True,
                "an action executed after receiving fake EOS")
    # Flaw 2: if none of the transactions executed successfully, the
    # oracle still reports positive (it cannot tell a guarded contract
    # from a dead one).
    if report.observations and not any(o.success
                                       for o in report.observations):
        return VulnerabilityFinding(
            "fake_eos", True,
            "no transaction executed successfully (oracle flaw)")
    return VulnerabilityFinding("fake_eos", False)


def _fake_notif(report: FuzzReport) -> VulnerabilityFinding:
    # Side effect observed while handling a forged notification.
    for obs in report.observations_of("fake_notif"):
        if not obs.success:
            continue
        if any(call.api in EFFECT_APIS for call in obs.record.host_calls):
            return VulnerabilityFinding(
                "fake_notif", True,
                "side effect under a forged eosio.token notification")
    return VulnerabilityFinding("fake_notif", False)


def _blockinfodep(report: FuzzReport) -> VulnerabilityFinding:
    from ..scanner.detectors import BLOCKINFO_APIS
    for obs in report.observations:
        if any(call.api in BLOCKINFO_APIS
               for call in obs.record.host_calls):
            return VulnerabilityFinding(
                "blockinfodep", True, "tapos API observed at runtime")
    return VulnerabilityFinding("blockinfodep", False)
