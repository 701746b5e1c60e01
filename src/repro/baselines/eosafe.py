"""The EOSAFE baseline (He et al., USENIX Security'21) as the paper
characterises it (§4.2, §4.3).

EOSAFE is a *static* symbolic-execution analyzer.  The behaviours the
paper attributes to it — and which this model reproduces — are:

* it locates action functions by **matching dispatcher patterns**
  (e.g. ``code == N(eosio.token) && action == N(transfer)``); since
  the SDK does not mandate that idiom, non-canonical dispatchers make
  it "fail to locate the paths to action functions and report FNs due
  to the timeout";
* data-flow obfuscation (popcount-encoded constants) removes the
  literal name constants the matcher needs, so "EOSAFE cannot find any
  feasible paths to detect Fake EOS … and MissAuth, leading to 0 TP"
  (Table 5);
* when detecting **Fake Notif** it "regards timeout as a positive
  sample", trading precision for recall;
* for **Rollback** it "analyzes all branches in the conditional
  states, even if the constraints are impossible to be satisfied",
  flagging inline actions on unreachable paths — precision ≈ 50%;
* it has **no BlockinfoDep detector**;
* a path-explosion budget: too many conditional branches means
  timeout (the §4.3 complicated-verification samples stay below it
  because the injected paths are short).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..eosio.name import N
from ..scanner.detectors import ScanResult, VulnerabilityFinding
from ..wasm.module import Module

__all__ = ["EosafeAnalyzer", "EosafeResult"]

_AUTH_IMPORTS = ("require_auth", "require_auth2", "has_auth")
_EFFECT_IMPORTS = ("send_inline", "send_deferred", "db_store_i64",
                   "db_update_i64", "db_remove_i64")


@dataclass
class EosafeResult:
    findings: dict[str, bool] = field(default_factory=dict)
    timeout: bool = False
    located_dispatch: bool = False

    def to_scan_result(self, account: int = 0) -> ScanResult:
        result = ScanResult(target_account=account)
        for vuln_type, detected in self.findings.items():
            result.findings[vuln_type] = VulnerabilityFinding(
                vuln_type, detected)
        return result


class EosafeAnalyzer:
    """Static analysis of one contract module."""

    def __init__(self, path_budget: int = 4096,
                 per_function_branch_cap: int = 48):
        self.path_budget = path_budget
        self.per_function_branch_cap = per_function_branch_cap

    # -- public entry ------------------------------------------------------
    def analyze(self, module: Module) -> EosafeResult:
        result = EosafeResult()
        imports = self._import_indices(module)
        result.timeout = self._path_explosion(module)
        dispatch = self._match_dispatcher(module)
        result.located_dispatch = dispatch is not None and not result.timeout
        # --- Fake EOS: guard on the located transfer dispatch ----------
        if result.located_dispatch:
            result.findings["fake_eos"] = not self._has_code_guard(module)
        else:
            # Cannot identify a reachable path: reports nothing (FN).
            result.findings["fake_eos"] = False
        # --- Fake Notif: timeout counts as positive ---------------------
        if result.located_dispatch:
            eosponser = module.functions[dispatch]
            result.findings["fake_notif"] = not self._has_self_guard(
                eosponser)
        else:
            result.findings["fake_notif"] = True  # timeout => positive
        # --- MissAuth: per located action function ----------------------
        if result.located_dispatch:
            result.findings["missauth"] = self._missing_auth(module, imports)
        else:
            result.findings["missauth"] = False
        # --- BlockinfoDep: no detector ----------------------------------
        result.findings["blockinfodep"] = False
        # --- Rollback: any send_inline use, reachable or not ------------
        result.findings["rollback"] = self._uses_import(
            module, imports, "send_inline")
        return result

    # -- helpers -----------------------------------------------------------
    @staticmethod
    def _import_indices(module: Module) -> dict[str, int]:
        return {imp.name: i
                for i, imp in enumerate(module.imported_functions())}

    def _path_explosion(self, module: Module) -> bool:
        """Static path counting: 2^branches against the budget."""
        total = 0
        for func in module.functions:
            branches = sum(1 for instr in func.body
                           if instr.op in ("br_if", "if", "br_table"))
            if branches > self.per_function_branch_cap:
                return True
            total += branches
        return (1 << min(total, 63)) > self.path_budget

    def _match_dispatcher(self, module: Module) -> int | None:
        """The heuristic pattern: a literal ``i64.const N(transfer)``
        compared with ``i64.eq``, followed by an indirect call.  Returns
        the local index of the dispatched function, or None."""
        apply_index = module.export_index("apply", "func")
        if apply_index is None:
            return None
        apply_func = module.local_function(apply_index)
        body = apply_func.body
        transfer_const = N("transfer")
        saw_pattern_at = None
        for i in range(len(body) - 1):
            if (body[i].op == "i64.const"
                    and body[i].args[0] % (1 << 64) == transfer_const
                    and body[i + 1].op == "i64.eq"):
                saw_pattern_at = i
                break
        if saw_pattern_at is None:
            return None
        # Find the indirect dispatch that follows and resolve the slot
        # through the element segments.
        slot = None
        for j in range(saw_pattern_at, len(body)):
            if body[j].op == "call_indirect":
                for k in range(j - 1, saw_pattern_at, -1):
                    if body[k].op == "i32.const":
                        slot = body[k].args[0]
                        break
                break
        if slot is None:
            return None
        for elem in module.elements:
            base = elem.offset[0].args[0]
            if base <= slot < base + len(elem.func_indices):
                func_index = elem.func_indices[slot - base]
                return func_index - module.num_imported_functions
        return None

    def _has_code_guard(self, module: Module) -> bool:
        """Is ``code`` compared against the literal N(eosio.token)?"""
        apply_index = module.export_index("apply", "func")
        apply_func = module.local_function(apply_index)
        token_const = N("eosio.token")
        body = apply_func.body
        for i in range(len(body) - 1):
            if (body[i].op == "i64.const"
                    and body[i].args[0] % (1 << 64) == token_const
                    and body[i + 1].op in ("i64.eq", "i64.ne")):
                return True
        return False

    @staticmethod
    def _has_self_guard(eosponser) -> bool:
        """The Listing 2 pattern: params ``to`` (local 2) and ``self``
        (local 0) compared at the top of the eosponser."""
        body = eosponser.body
        for i in range(len(body) - 2):
            a, b, c = body[i], body[i + 1], body[i + 2]
            if (a.op == "local.get" and b.op == "local.get"
                    and {a.args[0], b.args[0]} == {0, 2}
                    and c.op in ("i64.eq", "i64.ne")):
                return True
        return False

    def _missing_auth(self, module: Module,
                      imports: dict[str, int]) -> bool:
        """An action function with a side effect but no auth call."""
        auth_indices = {imports[n] for n in _AUTH_IMPORTS if n in imports}
        effect_indices = {imports[n] for n in _EFFECT_IMPORTS
                          if n in imports}
        dispatched = self._dispatched_functions(module)
        # The eosponser (table slot 0) handles notifications, where
        # auth checks are meaningless; EOSAFE analyses the regular
        # action functions.
        eosponser = self._slot_function(module, 0)
        dispatched = [i for i in dispatched if i != eosponser]
        for local_index in dispatched:
            func = module.functions[local_index]
            saw_auth = False
            for instr in func.body:
                if instr.op != "call":
                    continue
                if instr.args[0] in auth_indices:
                    saw_auth = True
                elif instr.args[0] in effect_indices and not saw_auth:
                    return True
        return False

    @staticmethod
    def _slot_function(module: Module, slot: int) -> int | None:
        for elem in module.elements:
            base = elem.offset[0].args[0]
            if base <= slot < base + len(elem.func_indices):
                return (elem.func_indices[slot - base]
                        - module.num_imported_functions)
        return None

    @staticmethod
    def _dispatched_functions(module: Module) -> list[int]:
        out = []
        offset = module.num_imported_functions
        for elem in module.elements:
            for func_index in elem.func_indices:
                out.append(func_index - offset)
        return out

    @staticmethod
    def _uses_import(module: Module, imports: dict[str, int],
                     name: str) -> bool:
        index = imports.get(name)
        if index is None:
            return False
        return any(instr.op == "call" and instr.args[0] == index
                   for func in module.functions for instr in func.body)
