"""Scan replay packs: everything the oracles need, nothing else.

A :class:`TracePack` is the durable distillation of one finished
campaign: the resolved target metadata, the site-table columns the
detectors index, and per-observation records (payload kind, action
name, host-call API sequence, the full hook-event stream).  It is
exactly the read surface of :func:`repro.scanner.detectors.
scan_report` — so a stored pack can be re-scanned years later, by a
process that never deployed the module, with **zero** fuzzing,
instrumentation or solving, and the verdict is byte-identical to the
fresh one (``executed_params`` are stored pre-formatted for this
reason: evidence strings interpolate them verbatim).

Encoding rides the :mod:`repro.traceir.codec` container (stream kind
``STREAM_PACK``): interned strings, delta-encoded site columns and one
concatenated event stream split by per-observation counts.  Decoding
inherits the codec's guarantee — any defect is a typed
:class:`TraceCorruption`, never a subtly wrong replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..resilience.errors import TraceCorruption
from .codec import (Reader, STREAM_PACK, EventStreamEncoder,
                    decode_event_sections, pack_sections,
                    unpack_sections, write_svarint, write_uvarint)

__all__ = ["TracePack", "PackObservation", "build_trace_pack",
           "encode_pack", "decode_pack", "replay_scan"]

# Pack-level section ids (the event columns 1-3 come from the codec).
SEC_META = 16
SEC_STRINGS = 17
SEC_SITES = 18
SEC_OBSERVATIONS = 19
SEC_DIVERGENCES = 20
# v2: the semantic surface (host-call args/results, per-record DB
# writes with row images, end-of-campaign DB state) the semantic
# oracle families replay over.  Optional — a pack without it still
# satisfies the paper's five oracles.
SEC_SEMANTIC = 21

_PACK_SECTIONS_V1 = (1, 2, 3, SEC_META, SEC_STRINGS, SEC_SITES,
                     SEC_OBSERVATIONS, SEC_DIVERGENCES)
_PACK_SECTIONS = _PACK_SECTIONS_V1 + (SEC_SEMANTIC,)

_MAX_STRING_BYTES = 1 << 20


@dataclass
class PackObservation:
    """One observation, reduced to what the detectors read."""

    payload_kind: str
    action_name: str
    executed_params: str        # pre-formatted: str(original list)
    success: bool
    host_apis: tuple
    events: list = field(default_factory=list)


@dataclass
class TracePack:
    """The durable, self-contained input of a replayed scan.

    ``semantic`` (a :class:`~repro.semoracle.surface.SemanticSurface`,
    or None) is the v2 extension: without it the pack satisfies only
    the paper's five oracles; with it the semantic families replay
    too.
    """

    target_account: int
    apply_index: int | None
    eosponser_id: int | None
    sites: list                 # (kind, func_index, pc, op) tuples
    observations: list          # PackObservation
    divergences: list
    semantic: object | None = None

    def surfaces(self) -> frozenset:
        """The capability names this pack can serve to oracle families."""
        from ..semoracle.surface import BASE_SURFACES, SEMANTIC_SURFACES
        if self.semantic is None:
            return BASE_SURFACES
        return BASE_SURFACES | SEMANTIC_SURFACES


def build_trace_pack(report, target, semantic: bool = True) -> TracePack:
    """Distill a finished campaign into its replayable pack.

    ``semantic=True`` (the default) additionally captures the
    semantic surface so stored packs stay re-scannable when new
    oracle families ship.
    """
    sites = [(site.kind, site.func_index, site.pc, site.instr.op)
             for site in (target.site_table[i]
                          for i in range(len(target.site_table)))]
    observations = [
        PackObservation(
            payload_kind=obs.payload_kind,
            action_name=obs.action_name,
            executed_params=str(obs.executed_params),
            success=bool(obs.success),
            host_apis=tuple(call.api for call in obs.record.host_calls),
            events=list(obs.events))
        for obs in report.observations]
    surface = None
    if semantic:
        from ..semoracle.surface import build_semantic_surface
        surface = build_semantic_surface(report)
    return TracePack(
        target_account=int(report.target_account),
        apply_index=getattr(target, "apply_index", None),
        eosponser_id=report.eosponser_id,
        sites=sites,
        observations=observations,
        divergences=list(report.divergences),
        semantic=surface)


# -- encoding --------------------------------------------------------------

class _StringTable:
    def __init__(self) -> None:
        self._ids: dict[str, int] = {}

    def intern(self, text: str) -> int:
        ident = self._ids.get(text)
        if ident is None:
            ident = len(self._ids)
            self._ids[text] = ident
        return ident

    def encode(self) -> bytes:
        out = bytearray()
        write_uvarint(out, len(self._ids))
        for text in self._ids:            # insertion order == id order
            data = text.encode("utf-8")
            write_uvarint(out, len(data))
            out += data
        return bytes(out)


def encode_pack(pack: TracePack) -> bytes:
    """Serialise a pack.  Deterministic: same pack, same bytes."""
    strings = _StringTable()

    meta = bytearray()
    write_svarint(meta, pack.target_account)
    write_uvarint(meta, 0 if pack.apply_index is None
                  else pack.apply_index + 1)
    write_uvarint(meta, 0 if pack.eosponser_id is None
                  else pack.eosponser_id + 1)
    write_uvarint(meta, len(pack.sites))
    write_uvarint(meta, len(pack.observations))

    sites = bytearray()
    prev_func = 0
    prev_pc = 0
    for kind, func_index, pc, op in pack.sites:
        write_uvarint(sites, strings.intern(kind))
        write_svarint(sites, func_index - prev_func)
        write_svarint(sites, pc - prev_pc)
        write_uvarint(sites, strings.intern(op))
        prev_func, prev_pc = func_index, pc

    observations = bytearray()
    events = EventStreamEncoder()
    for obs in pack.observations:
        write_uvarint(observations, strings.intern(obs.payload_kind))
    for obs in pack.observations:
        write_uvarint(observations, strings.intern(obs.action_name))
    for obs in pack.observations:
        write_uvarint(observations,
                      strings.intern(obs.executed_params))
    for obs in pack.observations:
        observations.append(1 if obs.success else 0)
    for obs in pack.observations:
        write_uvarint(observations, len(obs.host_apis))
    for obs in pack.observations:
        for api in obs.host_apis:
            write_uvarint(observations, strings.intern(api))
    for obs in pack.observations:
        write_uvarint(observations, len(obs.events))
        for event in obs.events:
            events.add(event)

    divergences = bytearray()
    write_uvarint(divergences, len(pack.divergences))
    for text in pack.divergences:
        write_uvarint(divergences, strings.intern(str(text)))

    sections = [(SEC_META, bytes(meta)),
                (SEC_SITES, bytes(sites)),
                (SEC_OBSERVATIONS, bytes(observations)),
                (SEC_DIVERGENCES, bytes(divergences))]
    sections.extend(events.sections())
    if pack.semantic is not None:
        from ..semoracle.surface import encode_semantic_section
        sections.append((SEC_SEMANTIC,
                         encode_semantic_section(pack.semantic,
                                                 strings.intern)))
    # The string table is built *while* encoding the other sections,
    # so it is framed last but decoded first.
    sections.insert(0, (SEC_STRINGS, strings.encode()))
    return pack_sections(STREAM_PACK, sections)


# -- decoding --------------------------------------------------------------

def _decode_strings(payload: bytes) -> list[str]:
    reader = Reader(payload, "strings")
    count = reader.uvarint()
    table = []
    for _ in range(count):
        length = reader.uvarint()
        if length > _MAX_STRING_BYTES:
            reader.fail(f"absurd string length {length}")
        data = reader.raw(length)
        try:
            table.append(data.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise TraceCorruption(f"string table is not UTF-8: {exc}",
                                  section="strings") from exc
    reader.done()
    return table


def _lookup(table: list[str], ident: int, section: str) -> str:
    if ident >= len(table):
        raise TraceCorruption(f"string id {ident} out of range "
                              f"({len(table)} interned)",
                              section=section)
    return table[ident]


def decode_pack(blob: bytes) -> TracePack:
    """Deserialise a pack, or raise :class:`TraceCorruption`."""
    version, sections = unpack_sections(blob, STREAM_PACK,
                                        _PACK_SECTIONS)
    for sec_id in _PACK_SECTIONS_V1:
        if sec_id not in sections:
            raise TraceCorruption(f"missing pack section {sec_id}",
                                  section="pack")
    if version < 2 and SEC_SEMANTIC in sections:
        raise TraceCorruption(
            "semantic section in a pre-semantic (v1) pack",
            section="semantic")
    table = _decode_strings(sections[SEC_STRINGS])

    meta = Reader(sections[SEC_META], "meta")
    target_account = meta.svarint()
    apply_raw = meta.uvarint()
    eosponser_raw = meta.uvarint()
    site_count = meta.uvarint()
    obs_count = meta.uvarint()
    meta.done()

    sites_reader = Reader(sections[SEC_SITES], "sites")
    sites = []
    prev_func = 0
    prev_pc = 0
    for _ in range(site_count):
        kind = _lookup(table, sites_reader.uvarint(), "sites")
        prev_func += sites_reader.svarint()
        prev_pc += sites_reader.svarint()
        op = _lookup(table, sites_reader.uvarint(), "sites")
        sites.append((kind, prev_func, prev_pc, op))
    sites_reader.done()

    obs_reader = Reader(sections[SEC_OBSERVATIONS], "observations")
    payload_kinds = [_lookup(table, obs_reader.uvarint(), "observations")
                     for _ in range(obs_count)]
    action_names = [_lookup(table, obs_reader.uvarint(), "observations")
                    for _ in range(obs_count)]
    params = [_lookup(table, obs_reader.uvarint(), "observations")
              for _ in range(obs_count)]
    successes = [obs_reader.u8() for _ in range(obs_count)]
    for flag in successes:
        if flag > 1:
            raise TraceCorruption(f"success flag {flag} is not boolean",
                                  section="observations")
    call_counts = [obs_reader.uvarint() for _ in range(obs_count)]
    host_apis = [tuple(_lookup(table, obs_reader.uvarint(),
                               "observations")
                       for _ in range(count))
                 for count in call_counts]
    event_counts = [obs_reader.uvarint() for _ in range(obs_count)]
    obs_reader.done()

    div_reader = Reader(sections[SEC_DIVERGENCES], "divergences")
    divergences = [_lookup(table, div_reader.uvarint(), "divergences")
                   for _ in range(div_reader.uvarint())]
    div_reader.done()

    all_events = decode_event_sections(sections)
    if len(all_events) != sum(event_counts):
        raise TraceCorruption(
            f"event stream holds {len(all_events)} events but the "
            f"observations claim {sum(event_counts)}",
            section="observations")
    for event in all_events:
        if event.site_id is not None and event.site_id >= site_count:
            raise TraceCorruption(
                f"event references site {event.site_id} past the "
                f"{site_count}-entry site table", section="events")

    observations = []
    cursor = 0
    for index in range(obs_count):
        count = event_counts[index]
        observations.append(PackObservation(
            payload_kind=payload_kinds[index],
            action_name=action_names[index],
            executed_params=params[index],
            success=bool(successes[index]),
            host_apis=host_apis[index],
            events=all_events[cursor:cursor + count]))
        cursor += count

    semantic = None
    if SEC_SEMANTIC in sections:
        from ..semoracle.surface import decode_semantic_section
        semantic = decode_semantic_section(
            sections[SEC_SEMANTIC],
            lambda ident: _lookup(table, ident, "semantic"),
            obs_count)

    return TracePack(
        target_account=target_account,
        apply_index=None if apply_raw == 0 else apply_raw - 1,
        eosponser_id=None if eosponser_raw == 0 else eosponser_raw - 1,
        sites=sites,
        observations=observations,
        divergences=divergences,
        semantic=semantic)


# -- replay ----------------------------------------------------------------

class _ReplayInstr:
    __slots__ = ("op",)

    def __init__(self, op: str):
        self.op = op


class _ReplaySite:
    __slots__ = ("kind", "func_index", "pc", "instr")

    def __init__(self, kind: str, func_index: int, pc: int, op: str):
        self.kind = kind
        self.func_index = func_index
        self.pc = pc
        self.instr = _ReplayInstr(op)


class _ReplayTarget:
    __slots__ = ("site_table", "apply_index")

    def __init__(self, sites: list, apply_index):
        self.site_table = [_ReplaySite(*site) for site in sites]
        self.apply_index = apply_index


class _ReplayHostCall:
    __slots__ = ("api",)

    def __init__(self, api: str):
        self.api = api


class _ReplayRecord:
    __slots__ = ("host_calls",)

    def __init__(self, apis: tuple):
        self.host_calls = [_ReplayHostCall(api) for api in apis]


class _ReplayObservation:
    __slots__ = ("payload_kind", "action_name", "executed_params",
                 "success", "record", "events")

    def __init__(self, obs: PackObservation):
        self.payload_kind = obs.payload_kind
        self.action_name = obs.action_name
        self.executed_params = obs.executed_params
        self.success = obs.success
        self.record = _ReplayRecord(obs.host_apis)
        self.events = obs.events


class _ReplayReport:
    __slots__ = ("target_account", "eosponser_id", "divergences",
                 "observations", "semantic_surface")

    def __init__(self, pack: TracePack):
        self.target_account = pack.target_account
        self.eosponser_id = pack.eosponser_id
        self.divergences = list(pack.divergences)
        self.observations = [_ReplayObservation(obs)
                             for obs in pack.observations]
        self.semantic_surface = pack.semantic

    def observations_of(self, kind: str):
        return [obs for obs in self.observations
                if obs.payload_kind == kind]


def replay_scan(pack: TracePack, extra_detectors=(), oracles=None):
    """Re-run the scanner oracles over a stored pack.

    Touches no chain, no module bytes, no solver — the pack *is* the
    campaign as far as the oracles are concerned.  Returns the same
    :class:`~repro.scanner.detectors.ScanResult` a fresh campaign
    would have produced.

    ``oracles`` selects the enabled families (see
    :func:`repro.semoracle.resolve_oracles`; None means the paper's
    five).  Before replaying, the enabled families' declared
    ``required_surface`` is checked against what the pack actually
    carries; a pack that cannot satisfy them raises the typed
    :class:`~repro.semoracle.InsufficientSurface` — the pack is
    intact, it just predates the richer capture, and the caller
    should re-queue a fresh scan instead of reporting drift.
    """
    from ..scanner.detectors import scan_report
    if oracles is not None:
        from ..semoracle.registry import (InsufficientSurface,
                                          required_surfaces,
                                          resolve_oracles)
        names = resolve_oracles(oracles)
        missing = required_surfaces(names) - pack.surfaces()
        if missing:
            raise InsufficientSurface(missing)
        oracles = names
    return scan_report(_ReplayReport(pack),
                       _ReplayTarget(pack.sites, pack.apply_index),
                       extra_detectors, oracles=oracles)
