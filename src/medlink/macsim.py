"""Deterministic 802.11 MAC timing for image transfers.

Computes, on paper rather than by event simulation, how long a
fragmented image transfer occupies the medium under three access
scenarios:

* DCF: every data packet pays DIFS plus a configurable mean backoff,
  then each transmitted copy is data frame, SIFS, MAC acknowledgment.
* DCF with RTS/CTS: same, plus one RTS/CTS reservation at the start of
  the image burst; the exchange's NAV covers the remaining packets.
* PCF: the point coordinator opens the contention-free period after
  PIFS, then every copy is a combined data-plus-poll frame, SIFS, MAC
  acknowledgment, SIFS. No DIFS and no backoff, which is what makes the
  polled scenario the cheapest per packet.

Retransmissions are systematic: ``retx_factor`` = 2 sends every data
frame twice, back to back, modeling a worst-case repetition budget
instead of a random loss process. Consecutive DCF copies are separated
by SIFS.

All durations are computed in integer nanoseconds internally, so totals
are bit-for-bit reproducible across runs and platforms; results surface
as microsecond floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .transport import ACK_MSDU, FragmentationPlan

__all__ = [
    "MacParameters",
    "ScenarioResult",
    "SuperframeBudget",
    "PROFILE_11B",
    "PROFILE_11G",
    "PROFILES",
    "MEAN_BACKOFF_HALF_CWMIN_11B",
    "frame_airtime",
    "control_airtime",
    "simulate_dcf",
    "simulate_dcf_rts",
    "simulate_pcf",
    "simulate",
    "budget_superframe",
    "load_mac_config",
]


@dataclass(frozen=True)
class MacParameters:
    """Physical and MAC layer constants of one 802.11 configuration.

    Times are microseconds, rates bits per second, frame sizes bytes.
    ``mac_header_bytes`` covers the data MPDU header plus FCS; the
    control frame sizes are complete frames. ``cf_poll_extra_bytes`` is
    the growth of a data frame that piggybacks a poll.
    """

    phy_rate: float
    control_rate: float
    slot_time: float
    sifs: float
    pifs: float
    difs: float
    plcp_overhead: float
    mac_header_bytes: int
    ack_bytes: int = 14
    rts_bytes: int = 20
    cts_bytes: int = 14
    cf_poll_extra_bytes: int = 0
    mean_backoff_slots: float = 0.0
    retx_factor: int = 1

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an int too large for a float
                finite = False
            if not finite:
                raise ValueError(f"{f.name} must be finite, got {value}")
            if f.name.endswith("_bytes") and value < 0:
                raise ValueError(f"{f.name} cannot be negative, got {value}")
        if self.phy_rate <= 0 or self.control_rate <= 0:
            raise ValueError("rates must be positive")
        if not self.sifs > 0:
            raise ValueError("sifs must be positive")
        if not self.pifs > self.sifs:
            raise ValueError("pifs must exceed sifs")
        if not self.difs > self.pifs:
            raise ValueError("difs must exceed pifs")
        if self.slot_time <= 0 or self.plcp_overhead < 0:
            raise ValueError("bad slot or preamble duration")
        if self.retx_factor < 1:
            raise ValueError("retransmission factor must be >= 1")
        if self.mean_backoff_slots < 0:
            raise ValueError("mean backoff cannot be negative")


PROFILE_11B = MacParameters(
    phy_rate=11e6,
    control_rate=11e6,
    slot_time=20.0,
    sifs=10.0,
    pifs=30.0,
    difs=50.0,
    plcp_overhead=96.0,  # long preamble + PLCP header at 1 Mb/s
    mac_header_bytes=28,  # 24-byte data header + 4-byte FCS
    retx_factor=2,
)

PROFILE_11G = MacParameters(
    phy_rate=54e6,
    control_rate=54e6,
    slot_time=9.0,
    sifs=10.0,
    pifs=19.0,
    difs=28.0,
    plcp_overhead=26.0,  # OFDM preamble + signal field + extension
    mac_header_bytes=28,
    retx_factor=2,
)

PROFILES = {"11b": PROFILE_11B, "11g": PROFILE_11G}

# mean of a uniform draw over [0, CWmin] for 802.11b (CWmin = 31)
MEAN_BACKOFF_HALF_CWMIN_11B = 15.5

PROFILE_ENV_VAR = "MEDLINK_PROFILE"


def frame_airtime(params: MacParameters, msdu_bytes: int, rate: float) -> float:
    """Airtime of a data frame carrying ``msdu_bytes``, in microseconds.

    PLCP preamble plus (MAC header + MSDU) serialized at ``rate``.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    if msdu_bytes < 0:
        raise ValueError("msdu size cannot be negative")
    return params.plcp_overhead + 8e6 * (params.mac_header_bytes + msdu_bytes) / rate


def control_airtime(params: MacParameters, frame_bytes: int) -> float:
    """Airtime of a bare control frame (ACK, RTS, CTS), microseconds."""
    return params.plcp_overhead + 8e6 * frame_bytes / params.control_rate


def _out_of_range(us) -> ValueError:
    return ValueError(f"a MAC duration of {us} us is out of range")


def _ns(us: float) -> int:
    try:
        return round(us * 1000.0)
    except OverflowError:
        raise _out_of_range(us) from None


@dataclass(frozen=True)
class ScenarioResult:
    """Timing of one image transfer under one access scenario."""

    scenario: str
    packet_count: int
    per_packet_times: tuple[float, ...]  # microseconds
    total_time: float  # microseconds, equals sum(per_packet_times)
    payload_bits: int
    effective_throughput: float  # payload bits per second of airtime

    @property
    def total_ms(self) -> float:
        return self.total_time / 1000.0

    @property
    def fps_capacity(self) -> float:
        """Back-to-back image transfers per second this timing allows."""
        return 1e6 / self.total_time

    @property
    def meets_10fps(self) -> bool:
        return self.fps_capacity >= 10.0

    def supports_fps(self, images_per_second: float) -> bool:
        return self.fps_capacity >= images_per_second


def _finish(scenario: str, packet_ns: list[int], plan: FragmentationPlan) -> ScenarioResult:
    try:
        per_packet = tuple(ns / 1000.0 for ns in packet_ns)
    except OverflowError:
        raise _out_of_range(max(packet_ns) // 1000) from None
    total = sum(per_packet)
    payload_bits = 8 * plan.total_payload_bytes
    return ScenarioResult(
        scenario=scenario,
        packet_count=len(packet_ns),
        per_packet_times=per_packet,
        total_time=total,
        payload_bits=payload_bits,
        effective_throughput=payload_bits * 1e6 / total,
    )


def _dcf_exchange_ns(params: MacParameters, msdu: int) -> int:
    """One contended data delivery: DIFS, backoff, then every copy."""
    data = _ns(frame_airtime(params, msdu, params.phy_rate))
    ack = _ns(control_airtime(params, params.ack_bytes))
    sifs = _ns(params.sifs)
    difs = _ns(params.difs)
    backoff = _ns(params.mean_backoff_slots * params.slot_time)
    r = params.retx_factor
    return difs + backoff + r * (data + sifs + ack) + (r - 1) * sifs


def _pcf_exchange_ns(params: MacParameters, msdu: int) -> int:
    """One polled delivery: every copy is data+poll, SIFS, ACK, SIFS."""
    data = _ns(frame_airtime(params, msdu + params.cf_poll_extra_bytes, params.phy_rate))
    ack = _ns(control_airtime(params, params.ack_bytes))
    sifs = _ns(params.sifs)
    return params.retx_factor * (data + sifs + ack + sifs)


def _rts_cts_ns(params: MacParameters) -> int:
    """The RTS/CTS reservation that opens a DCF image burst."""
    return (
        _ns(control_airtime(params, params.rts_bytes))
        + _ns(params.sifs)
        + _ns(control_airtime(params, params.cts_bytes))
        + _ns(params.sifs)
    )


# scenario -> (per-delivery exchange, one-off surcharge on the first packet)
_SCENARIO_TIMING = {
    "dcf": (_dcf_exchange_ns, lambda params: 0),
    "dcf-rts": (_dcf_exchange_ns, _rts_cts_ns),
    "pcf": (_pcf_exchange_ns, lambda params: _ns(params.pifs)),
}
SCENARIOS = tuple(_SCENARIO_TIMING)


def simulate(scenario: str, plan: FragmentationPlan, params: MacParameters) -> ScenarioResult:
    """Time every packet of ``plan`` under one access scenario."""
    try:
        exchange_ns, surcharge_ns = _SCENARIO_TIMING[scenario]
    except KeyError:
        raise ValueError(
            f"unknown scenario {scenario!r}, expected one of {SCENARIOS}"
        ) from None
    cache: dict[int, int] = {}
    packets = []
    for msdu in plan.packet_payloads:
        if msdu not in cache:
            cache[msdu] = exchange_ns(params, msdu)
            if plan.tftp_ack:
                cache[msdu] += exchange_ns(params, ACK_MSDU)
        packets.append(cache[msdu])
    packets[0] += surcharge_ns(params)
    return _finish(scenario, packets, plan)


def simulate_dcf(plan: FragmentationPlan, params: MacParameters) -> ScenarioResult:
    return simulate("dcf", plan, params)


def simulate_dcf_rts(plan: FragmentationPlan, params: MacParameters) -> ScenarioResult:
    """DCF plus a single RTS/CTS reservation opening the image burst."""
    return simulate("dcf-rts", plan, params)


def simulate_pcf(plan: FragmentationPlan, params: MacParameters) -> ScenarioResult:
    """Contention-free delivery; PIFS once to seize the medium."""
    return simulate("pcf", plan, params)


@dataclass(frozen=True)
class SuperframeBudget:
    """Split of a beacon interval between polled and contended traffic."""

    beacon_interval: float  # microseconds
    cfp_duration: float  # microseconds, rounded up to whole slots
    dcf_remainder: float  # microseconds
    feasible: bool

    @property
    def cfp_ms(self) -> float:
        return self.cfp_duration / 1000.0

    @property
    def remainder_ms(self) -> float:
        return self.dcf_remainder / 1000.0


def budget_superframe(
    image_time_us: float, beacon_interval_us: float, slot_us: float = 20.0
) -> SuperframeBudget:
    """Fit one polled image transfer into a beacon interval.

    The contention-free period is the transfer time rounded up to a whole
    number of slots; whatever remains of the interval is contended time.
    Feasible means the CFP fits inside the interval at all.
    """
    if image_time_us <= 0 or beacon_interval_us <= 0 or slot_us <= 0:
        raise ValueError("durations must be positive")
    image_ns = _ns(image_time_us)
    slot_ns = _ns(slot_us)
    cfp_ns = math.ceil(image_ns / slot_ns) * slot_ns
    beacon_ns = _ns(beacon_interval_us)
    remainder_ns = beacon_ns - cfp_ns
    return SuperframeBudget(
        beacon_interval=beacon_ns / 1000.0,
        cfp_duration=cfp_ns / 1000.0,
        dcf_remainder=remainder_ns / 1000.0,
        feasible=cfp_ns <= beacon_ns,
    )


_INT_FIELDS = {
    f.name for f in fields(MacParameters) if f.type in ("int", int)
}


def load_mac_config(text: str, base: MacParameters | None = None) -> MacParameters:
    """Parse a key=value override file into MacParameters.

    Lines are ``field = value``; ``#`` starts a comment. A ``profile``
    line selects the base parameter set (default 802.11b); any other key
    must name a MacParameters field. Unknown keys are an error so typos
    do not silently leave a default in place.
    """
    overrides: dict[str, float | int] = {}
    chosen_base = base
    field_names = {f.name for f in fields(MacParameters)}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "profile":
            if value not in PROFILES:
                raise ValueError(f"line {lineno}: unknown profile {value!r}")
            chosen_base = PROFILES[value]
            continue
        if key not in field_names:
            raise ValueError(f"line {lineno}: unknown parameter {key!r}")
        try:
            overrides[key] = int(value) if key in _INT_FIELDS else float(value)
        except ValueError:
            raise ValueError(f"line {lineno}: bad value {value!r} for {key}") from None
    if chosen_base is None:
        chosen_base = PROFILE_11B
    return replace(chosen_base, **overrides)
