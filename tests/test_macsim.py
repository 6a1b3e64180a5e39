"""MAC timing model tests.

Structural identities (what each scenario adds on top of the bare frame
exchanges) are asserted against hand-expanded formulas, then the
scenario ordering is exercised across randomized parameter sets.
"""

import functools
import gc
import itertools
import math
import operator
import pickle
import sys
import time
import tracemalloc
import weakref
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from medlink import macsim
from medlink.macsim import (
    _SCENARIO_TIMING,
    _SHORT_RUN,
    MEAN_BACKOFF_HALF_CWMIN_11B,
    PROFILE_11B,
    PROFILE_11G,
    PROFILES,
    SCENARIOS,
    MacParameters,
    ScenarioResult,
    _add_repeatedly,
    budget_superframe,
    control_airtime,
    frame_airtime,
    load_mac_config,
    simulate,
)
from medlink.transport import ACK_MSDU, BLOCKSIZES, PACKET_OVERHEAD, fragment


def left_fold(values):
    return functools.reduce(operator.add, values)


def neumaier_sum(values):
    """sum() of floats as CPython computes it from 3.12 on: Neumaier's
    compensated summation, the compensation added once at the end."""
    total = c = 0.0
    for x in values:
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


def random_mac_parameters(rng) -> MacParameters:
    slot = float(rng.integers(5, 51))
    sifs = float(rng.integers(5, 31))
    return MacParameters(
        phy_rate=float(rng.choice([1e6, 2e6, 5.5e6, 11e6, 54e6])),
        control_rate=float(rng.choice([1e6, 2e6, 11e6])),
        slot_time=slot,
        sifs=sifs,
        pifs=sifs + slot,
        difs=sifs + 2 * slot,
        plcp_overhead=float(rng.integers(16, 193)),
        mac_header_bytes=int(rng.integers(24, 41)),
        mean_backoff_slots=float(rng.integers(0, 33)),
        retx_factor=int(rng.integers(1, 5)),
    )


def packet_times(res) -> tuple:
    """The per-packet times of ``res`` in packet order, expanded from its
    runs."""
    return tuple(us for us, count in res.runs for _ in range(count))


def per_packet_simulate(scenario, plan, params) -> ScenarioResult:
    """Reference: every packet timed in a Python loop over its MSDU,
    listed here from the plan's size (one exchange per distinct MSDU),
    each nanosecond count divided on its own and the total added in
    order."""
    exchange_ns, surcharge_ns = _SCENARIO_TIMING[scenario]
    full, last = divmod(plan.size, plan.blocksize)
    cache = {}
    packet_ns = []
    for block in [plan.blocksize] * full + [last]:
        msdu = block + PACKET_OVERHEAD
        if msdu not in cache:
            cache[msdu] = exchange_ns(params, msdu)
            if plan.tftp_ack:
                cache[msdu] += exchange_ns(params, ACK_MSDU)
        packet_ns.append(cache[msdu])
    packet_ns[0] += surcharge_ns(params)
    try:
        per_packet = tuple(ns / 1000.0 for ns in packet_ns)
    except OverflowError:
        raise ValueError(
            f"a MAC duration of {max(packet_ns) // 1000} us is out of range"
        ) from None
    total = 0.0
    for t in per_packet:
        total += t
    if not math.isfinite(total):
        raise ValueError(f"a MAC duration of {total} us is out of range")
    payload_bits = 8 * plan.size
    runs = tuple((us, len(list(group))) for us, group in itertools.groupby(per_packet))
    return ScenarioResult(
        scenario, runs, total, payload_bits, payload_bits * 1e6 / total
    )


def test_frame_airtime_formula():
    # preamble plus serialized bytes at the data rate
    p = replace(PROFILE_11B, mac_header_bytes=34)
    assert frame_airtime(p, 0, 11e6) == pytest.approx(96 + 8 * 34 / 11, abs=1e-9)
    assert frame_airtime(PROFILE_11B, 512, 11e6) == pytest.approx(
        96 + 8 * (28 + 512) / 11, abs=1e-9
    )
    faster = frame_airtime(PROFILE_11B, 512, 54e6)
    assert faster < frame_airtime(PROFILE_11B, 512, 11e6)


def test_control_airtime_has_no_data_header():
    t = control_airtime(PROFILE_11B, 14)
    assert t == pytest.approx(96 + 8 * 14 / 11, abs=1e-9)


def test_airtime_validation():
    with pytest.raises(ValueError):
        frame_airtime(PROFILE_11B, 100, 0)
    with pytest.raises(ValueError):
        frame_airtime(PROFILE_11B, -1, 11e6)


def test_profile_constants():
    p = PROFILE_11B
    assert (p.slot_time, p.sifs, p.pifs, p.difs) == (20.0, 10.0, 30.0, 50.0)
    assert p.plcp_overhead == 96.0
    assert p.mac_header_bytes == 28
    assert (p.ack_bytes, p.rts_bytes, p.cts_bytes) == (14, 20, 14)
    assert p.retx_factor == 2
    assert PROFILE_11G.phy_rate == 54e6
    assert set(PROFILES) == {"11b", "11g"}
    assert MEAN_BACKOFF_HALF_CWMIN_11B == 15.5


def test_parameter_invariants_enforced():
    with pytest.raises(ValueError):
        replace(PROFILE_11B, difs=25.0)  # difs must exceed pifs
    with pytest.raises(ValueError):
        replace(PROFILE_11B, pifs=5.0)  # pifs must exceed sifs
    with pytest.raises(ValueError):
        replace(PROFILE_11B, retx_factor=0)
    with pytest.raises(ValueError):
        replace(PROFILE_11B, phy_rate=0.0)


@pytest.mark.parametrize(
    "field,value",
    [
        ("phy_rate", float("nan")),
        ("control_rate", float("inf")),
        ("slot_time", float("inf")),
        ("plcp_overhead", float("nan")),
        ("mean_backoff_slots", float("inf")),
        ("mac_header_bytes", -1000),
        ("cf_poll_extra_bytes", -1),
        # integers too large for a float
        pytest.param("mac_header_bytes", 10**400, id="mac_header_bytes-1e400"),
        pytest.param("retx_factor", 10**400, id="retx_factor-1e400"),
    ],
)
def test_non_finite_and_negative_byte_fields_are_named(field, value):
    with pytest.raises(ValueError, match=f"^{field} "):
        replace(PROFILE_11B, **{field: value})


def test_packet_times_that_sum_past_a_float_are_out_of_range():
    params = replace(PROFILE_11B, retx_factor=10**302)
    # every packet's time fits a float; the sum over 11719 packets does not
    assert simulate("dcf", fragment(512, 512), params).total_time < 1e306
    with pytest.raises(ValueError, match="duration of inf us is out of range"):
        simulate("dcf", fragment(6_000_000, 512), params)


def test_dcf_single_packet_expansion():
    """One full block at 11 Mb/s, retransmission factor 2, zero backoff."""
    plan = fragment(512, 1024)  # a single 512-byte block
    res = simulate("dcf", plan, PROFILE_11B)
    t_data = frame_airtime(PROFILE_11B, 512 + 40, 11e6)
    t_ack = control_airtime(PROFILE_11B, 14)
    expected = 50 + 2 * (t_data + 10 + t_ack) + 10
    assert res.total_time == pytest.approx(expected, abs=1e-2)
    assert res.packet_count == 1


def test_dcf_scales_linearly_in_full_packets():
    p = PROFILE_11B
    one = simulate("dcf", fragment(512, 512), p)  # 512 + terminator
    many = simulate("dcf", fragment(5 * 512, 512), p)
    per_full = packet_times(one)[0]
    assert packet_times(many)[:5] == (per_full,) * 5
    assert many.total_time == pytest.approx(
        5 * per_full + packet_times(many)[-1], abs=1e-6
    )


def test_backoff_adds_slot_multiples():
    plan = fragment(4096, 512)
    base = simulate("dcf", plan, PROFILE_11B)
    contended = simulate("dcf", 
        plan, replace(PROFILE_11B, mean_backoff_slots=MEAN_BACKOFF_HALF_CWMIN_11B)
    )
    extra = contended.total_time - base.total_time
    assert extra == pytest.approx(
        plan.data_packet_count * MEAN_BACKOFF_HALF_CWMIN_11B * 20.0, abs=1e-6
    )


def test_rts_variant_adds_exactly_one_reservation():
    plan = fragment(25_600, 512)
    dcf = simulate("dcf", plan, PROFILE_11B)
    rts = simulate("dcf-rts", plan, PROFILE_11B)
    reservation = (
        control_airtime(PROFILE_11B, 20) + control_airtime(PROFILE_11B, 14) + 2 * 10
    )
    assert rts.total_time - dcf.total_time == pytest.approx(reservation, abs=1e-2)
    assert packet_times(rts)[1:] == packet_times(dcf)[1:]


def test_pcf_charges_pifs_once_and_no_difs():
    plan = fragment(1024, 1024)  # one full packet plus terminator
    res = simulate("pcf", plan, PROFILE_11B)
    t_data = frame_airtime(PROFILE_11B, 1024 + 40, 11e6)
    t_term = frame_airtime(PROFILE_11B, 40, 11e6)
    t_ack = control_airtime(PROFILE_11B, 14)
    expected = 30 + 2 * (t_data + 10 + t_ack + 10) + 2 * (t_term + 10 + t_ack + 10)
    assert res.total_time == pytest.approx(expected, abs=1e-2)


def test_retransmission_factor_multiplies_exchanges():
    plan = fragment(2048, 512)
    single = simulate("dcf", plan, replace(PROFILE_11B, retx_factor=1))
    double = simulate("dcf", plan, PROFILE_11B)
    t_data = frame_airtime(PROFILE_11B, 552, 11e6)
    t_term = frame_airtime(PROFILE_11B, 40, 11e6)
    t_ack = control_airtime(PROFILE_11B, 14)
    extra = 4 * (t_data + 10 + t_ack + 10) + (t_term + 10 + t_ack + 10)
    assert double.total_time - single.total_time == pytest.approx(extra, abs=1e-2)


def test_total_equals_sum_of_packets():
    plan = fragment(100_000, 1024)
    for scenario in SCENARIOS:
        res = simulate(scenario, plan, PROFILE_11B)
        assert res.total_time == left_fold(packet_times(res))
        assert len(packet_times(res)) == res.packet_count


def test_total_is_the_in_order_sum_on_every_python():
    """Python 3.12's sum() compensates float rounding; the total must not."""
    res = simulate("dcf-rts", fragment(6_000_000, 512, tftp_ack=True), PROFILE_11B)
    in_order = left_fold(packet_times(res))
    assert neumaier_sum(packet_times(res)) != in_order
    assert res.total_time == in_order
    assert repr(res.total_time) == "22398270.551002193"


def test_run_wise_timing_matches_the_per_packet_loop():
    """300 seeded plans and parameter sets, every scenario, against the
    per-packet reference, bit for bit."""
    rng = np.random.default_rng(1414)
    for _ in range(300):
        blocksize = int(rng.choice(BLOCKSIZES))
        size = int(rng.choice([
            1,
            blocksize - 1,
            blocksize,
            blocksize + 1,
            blocksize * int(rng.integers(2, 50)),
            round(math.exp(rng.uniform(0, math.log(6_000_000)))),
        ]))
        plan = fragment(size, blocksize, tftp_ack=bool(rng.integers(2)))
        kind = int(rng.integers(3))
        params = random_mac_parameters(rng) if kind == 2 else (PROFILE_11B, PROFILE_11G)[kind]
        for scenario in SCENARIOS:
            got = simulate(scenario, plan, params)
            want = per_packet_simulate(scenario, plan, params)
            assert packet_times(got) == packet_times(want)
            assert repr(got.total_time) == repr(want.total_time)
            assert got.packet_count == want.packet_count == plan.data_packet_count
            assert got.payload_bits == want.payload_bits
            assert got.effective_throughput == want.effective_throughput
            assert got == want


@pytest.mark.parametrize(
    "size,params",
    [
        # every packet fits a float, their sum does not
        (6_000_000, replace(PROFILE_11B, retx_factor=10**302)),
        # one packet's nanosecond count does not fit a float
        (1300, replace(PROFILE_11B, retx_factor=10**305)),
        # a data frame's airtime is infinite
        (6_000_000, replace(PROFILE_11B, phy_rate=1e-300)),
    ],
)
@pytest.mark.parametrize("ack", [False, True])
def test_out_of_range_errors_match_the_per_packet_loop(size, params, ack):
    plan = fragment(size, 512, tftp_ack=ack)
    for scenario in SCENARIOS:
        with pytest.raises(ValueError, match="out of range") as want:
            per_packet_simulate(scenario, plan, params)
        with pytest.raises(ValueError) as got:
            simulate(scenario, plan, params)
        assert str(got.value) == str(want.value)


def test_results_with_the_same_packet_times_compare_equal():
    """Runs are merged, so dcf's first packet, which carries no surcharge,
    joins the full packets, as in the reference's grouped tuple."""
    plan = fragment(5 * 512 + 7, 512, tftp_ack=True)
    got = simulate("dcf", plan, PROFILE_11B)
    full, last = packet_times(got)[0], packet_times(got)[-1]
    assert got.runs == ((full, 5), (last, 1))
    assert got == per_packet_simulate("dcf", plan, PROFILE_11B)
    # one packet, whose zero-count run of equal followers is dropped
    alone = simulate("pcf", fragment(100, 512), PROFILE_11B)
    assert len(alone.runs) == 1 and alone.packet_count == 1
    assert alone == per_packet_simulate("pcf", fragment(100, 512), PROFILE_11B)


def per_addition(total, x, count):
    for _ in range(count):
        total += x
    return total


def test_repeated_addition_matches_the_per_addition_loop():
    """The binade-skipping fold against one rounded addition at a time, on
    seeded start totals and packet times from 1e-3 to 1e300, ties, steps
    below half an ulp, short and long runs, and totals that reach the top
    binade or overflow."""
    rng = np.random.default_rng(1993)
    lengths = [0, 1, _SHORT_RUN - 1, _SHORT_RUN, _SHORT_RUN + 1, 3 * _SHORT_RUN, 1000, 20_000]

    def length():
        return int(rng.choice(lengths))

    def magnitude(low=-3, high=300):
        return float(10 ** rng.uniform(low, high))

    cases = []
    for _ in range(150):
        cases.append((0.0, magnitude(), length()))
        cases.append((magnitude(), magnitude(), length()))
        cases.append((0.0, float(rng.uniform(0.5, 1.0)), length()))
        # a tie, (m + 1/2) ulps of a random binade, added from just below
        # that binade and from inside it
        ulp = math.ldexp(1.0, int(rng.integers(-60, 960)))
        tie = (int(rng.integers(64)) + 0.5) * ulp
        cases.append((2**52 * ulp - int(rng.integers(1, 400)) * ulp / 2, tie, length()))
        cases.append((int(rng.integers(2**52, 2**53)) * ulp, tie, length()))
        # steps below half an ulp of the running total
        total = magnitude()
        cases.append((total, math.ulp(total) * float(rng.uniform(0.01, 0.5)), length()))
        # into the top binade [2**1023, 2**1024), and past it to inf
        cases.append((float(rng.uniform(2.0**1022, sys.float_info.max)), magnitude(290, 308),
                      length()))
    cases += [(0.0, 1e-3, 10**6), (0.0, 5000.5, 10**6), (1e305, 1e303, 10**6)]
    for total, x, count in cases:
        assert repr(_add_repeatedly(total, x, count)) == repr(per_addition(total, x, count)), (
            total, x, count)
    assert per_addition(1e305, 1e303, 10**6) == math.inf


@pytest.mark.parametrize("ack", [False, True])
def test_a_timing_costs_its_runs_not_its_packets(ack):
    """2**31 + 1 packets are timed in bounded time and memory."""
    plan = fragment(2**40, 512, tftp_ack=ack)
    for scenario in SCENARIOS:
        start = time.perf_counter()
        res = simulate(scenario, plan, PROFILE_11B)
        assert time.perf_counter() - start < 0.05
        tracemalloc.start()
        try:
            assert simulate(scenario, plan, PROFILE_11B) == res
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert res.packet_count == 2**31 + 1
        # the in-order fold of n packets is within n ulps of the exact sum
        exact = sum(Fraction(us) * count for us, count in res.runs)
        assert res.total_time == pytest.approx(float(exact), rel=1e-6)
        # a total that overflows stops at inf, not after 2**31 additions
        start = time.perf_counter()
        with pytest.raises(ValueError, match="duration of inf us is out of range"):
            simulate(scenario, plan, replace(PROFILE_11B, retx_factor=10**298))
        assert time.perf_counter() - start < 0.05


def test_a_verdict_of_36_timings_stays_small():
    """Every blocksize, ACK mode, profile and scenario of a 6 MB container
    in a 64 KiB traced peak; as per-packet tuples they took ~1.9 MiB."""
    tracemalloc.start()
    try:
        results = [
            simulate(scenario, fragment(6_000_000, blocksize, tftp_ack=ack), params)
            for blocksize in BLOCKSIZES
            for ack in (False, True)
            for params in PROFILES.values()
            for scenario in SCENARIOS
        ]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(results) == 36
    assert peak < 64 * 1024


def test_exchange_times_are_computed_once_per_parameter_set(monkeypatch):
    calls = []
    real = macsim.frame_airtime
    monkeypatch.setattr(macsim, "frame_airtime", lambda *args: calls.append(args) or real(*args))
    params = replace(PROFILE_11B, sifs=11.0)
    plan = fragment(10 * 512 + 7, 512, tftp_ack=True)
    first = [simulate(scenario, plan, params) for scenario in SCENARIOS]
    # dcf and pcf each time a full block, the last block and the TFTP ACK
    assert len(calls) == 6
    assert [simulate(scenario, plan, params) for scenario in SCENARIOS] == first
    assert len(calls) == 6
    assert pickle.loads(pickle.dumps(params)) == params
    # the durations live on the parameter set and go with it
    gone = weakref.ref(params)
    del params, calls[:]
    gc.collect()
    assert gone() is None


def test_a_timed_transfer_keeps_one_pointer_per_packet():
    """The plan stores no blocks and a result keeps no per-packet tuple:
    timing a transfer holds at most a pointer's worth per packet."""
    tracemalloc.start()
    try:
        plan = fragment(6_000_000, 512, tftp_ack=True)
        plan_bytes = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        res = simulate("dcf-rts", plan, PROFILE_11B)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    packets = res.packet_count
    assert packets == 11_719
    assert plan_bytes < 1024
    assert (kept - before) / packets <= 9
    assert (peak - before) / packets <= 32
    assert peak - before < 8 * 1024


def test_effective_throughput_below_phy_rate():
    plan = fragment(390_625, 2048)
    for scenario in SCENARIOS:
        res = simulate(scenario, plan, PROFILE_11B)
        assert 0 < res.effective_throughput < PROFILE_11B.phy_rate


def test_scenario_ordering_across_random_parameter_sets():
    """PCF <= DCF <= DCF+RTS on 50 randomized parameter and plan draws."""
    rng = np.random.default_rng(2024)
    for _ in range(50):
        params = random_mac_parameters(rng)
        nbytes = int(rng.integers(32_768, 500_000))
        plan = fragment(nbytes, int(rng.choice([512, 1024, 2048])))
        t_pcf = simulate("pcf", plan, params).total_time
        t_dcf = simulate("dcf", plan, params).total_time
        t_rts = simulate("dcf-rts", plan, params).total_time
        assert t_pcf <= t_dcf <= t_rts


def test_results_are_deterministic_across_runs():
    plan = fragment(123_457, 512)
    a = simulate("dcf-rts", plan, PROFILE_11B)
    b = simulate("dcf-rts", plan, PROFILE_11B)
    assert a.total_time == b.total_time
    assert packet_times(a) == packet_times(b)
    assert a.effective_throughput == b.effective_throughput


def test_tftp_lockstep_ack_costs_a_reverse_exchange():
    plan = fragment(4096, 512)
    chatty = fragment(4096, 512, tftp_ack=True)
    base = simulate("dcf", plan, PROFILE_11B)
    acked = simulate("dcf", chatty, PROFILE_11B)
    assert acked.total_time > base.total_time
    per_ack = (acked.total_time - base.total_time) / plan.data_packet_count
    t_ack_data = frame_airtime(PROFILE_11B, 40, 11e6)
    t_ack = control_airtime(PROFILE_11B, 14)
    expected = 50 + 2 * (t_ack_data + 10 + t_ack) + 10
    assert per_ack == pytest.approx(expected, abs=1e-2)


def test_simulate_dispatch():
    plan = fragment(1000, 512)
    assert simulate("dcf", plan, PROFILE_11B).scenario == "dcf"
    assert simulate("pcf", plan, PROFILE_11B).scenario == "pcf"
    with pytest.raises(ValueError, match="unknown scenario"):
        simulate("hcf", plan, PROFILE_11B)


def test_superframe_budget_rounds_cfp_to_slots():
    budget = budget_superframe(64_973.274, 100_000.0, slot_us=20.0)
    assert budget.cfp_duration == pytest.approx(64_980.0, abs=1e-6)
    assert budget.dcf_remainder == pytest.approx(35_020.0, abs=1e-6)
    assert budget.feasible


def test_superframe_infeasible_when_transfer_exceeds_interval():
    budget = budget_superframe(120_000.0, 100_000.0)
    assert not budget.feasible
    assert budget.dcf_remainder < 0


def test_superframe_validation():
    with pytest.raises(ValueError):
        budget_superframe(0, 100_000.0)
    with pytest.raises(ValueError):
        budget_superframe(1000.0, -1.0)


def test_load_mac_config_overrides_and_rejects_unknowns():
    text = """
    # custom lab configuration
    profile = 11b
    phy_rate = 5.5e6
    retx_factor = 3
    mean_backoff_slots = 15.5
    """
    params = load_mac_config(text)
    assert params.phy_rate == 5.5e6
    assert params.retx_factor == 3
    assert params.mean_backoff_slots == 15.5
    assert params.sifs == PROFILE_11B.sifs
    with pytest.raises(ValueError, match="unknown parameter"):
        load_mac_config("bogus_knob = 3")
    with pytest.raises(ValueError, match="unknown profile"):
        load_mac_config("profile = 11n")
