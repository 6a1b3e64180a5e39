"""MAC timing model tests.

Structural identities (what each scenario adds on top of the bare frame
exchanges) are asserted against hand-expanded formulas, then the
scenario ordering is exercised across randomized parameter sets.
"""

from dataclasses import replace

import numpy as np
import pytest

from medlink.macsim import (
    MEAN_BACKOFF_HALF_CWMIN_11B,
    PROFILE_11B,
    PROFILE_11G,
    PROFILES,
    MacParameters,
    budget_superframe,
    control_airtime,
    frame_airtime,
    load_mac_config,
    simulate,
    simulate_dcf,
    simulate_dcf_rts,
    simulate_pcf,
)
from medlink.transport import fragment


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


def test_dcf_single_packet_expansion():
    """One full block at 11 Mb/s, retransmission factor 2, zero backoff."""
    plan = fragment(512, 1024)  # a single 512-byte block
    res = simulate_dcf(plan, PROFILE_11B)
    t_data = frame_airtime(PROFILE_11B, 512 + 40, 11e6)
    t_ack = control_airtime(PROFILE_11B, 14)
    expected = 50 + 2 * (t_data + 10 + t_ack) + 10
    assert res.total_time == pytest.approx(expected, abs=1e-2)
    assert res.packet_count == 1


def test_dcf_scales_linearly_in_full_packets():
    p = PROFILE_11B
    one = simulate_dcf(fragment(512, 512), p)  # 512 + terminator
    many = simulate_dcf(fragment(5 * 512, 512), p)
    per_full = one.per_packet_times[0]
    assert many.per_packet_times[:5] == (per_full,) * 5
    assert many.total_time == pytest.approx(
        5 * per_full + many.per_packet_times[-1], abs=1e-6
    )


def test_backoff_adds_slot_multiples():
    plan = fragment(4096, 512)
    base = simulate_dcf(plan, PROFILE_11B)
    contended = simulate_dcf(
        plan, replace(PROFILE_11B, mean_backoff_slots=MEAN_BACKOFF_HALF_CWMIN_11B)
    )
    extra = contended.total_time - base.total_time
    assert extra == pytest.approx(
        plan.data_packet_count * MEAN_BACKOFF_HALF_CWMIN_11B * 20.0, abs=1e-6
    )


def test_rts_variant_adds_exactly_one_reservation():
    plan = fragment(25_600, 512)
    dcf = simulate_dcf(plan, PROFILE_11B)
    rts = simulate_dcf_rts(plan, PROFILE_11B)
    reservation = (
        control_airtime(PROFILE_11B, 20) + control_airtime(PROFILE_11B, 14) + 2 * 10
    )
    assert rts.total_time - dcf.total_time == pytest.approx(reservation, abs=1e-2)
    assert rts.per_packet_times[1:] == dcf.per_packet_times[1:]


def test_pcf_charges_pifs_once_and_no_difs():
    plan = fragment(1024, 1024)  # one full packet plus terminator
    res = simulate_pcf(plan, PROFILE_11B)
    t_data = frame_airtime(PROFILE_11B, 1024 + 40, 11e6)
    t_term = frame_airtime(PROFILE_11B, 40, 11e6)
    t_ack = control_airtime(PROFILE_11B, 14)
    expected = 30 + 2 * (t_data + 10 + t_ack + 10) + 2 * (t_term + 10 + t_ack + 10)
    assert res.total_time == pytest.approx(expected, abs=1e-2)


def test_retransmission_factor_multiplies_exchanges():
    plan = fragment(2048, 512)
    single = simulate_dcf(plan, replace(PROFILE_11B, retx_factor=1))
    double = simulate_dcf(plan, PROFILE_11B)
    t_data = frame_airtime(PROFILE_11B, 552, 11e6)
    t_term = frame_airtime(PROFILE_11B, 40, 11e6)
    t_ack = control_airtime(PROFILE_11B, 14)
    extra = 4 * (t_data + 10 + t_ack + 10) + (t_term + 10 + t_ack + 10)
    assert double.total_time - single.total_time == pytest.approx(extra, abs=1e-2)


def test_total_equals_sum_of_packets():
    plan = fragment(100_000, 1024)
    for sim in (simulate_dcf, simulate_dcf_rts, simulate_pcf):
        res = sim(plan, PROFILE_11B)
        assert res.total_time == sum(res.per_packet_times)
        assert len(res.per_packet_times) == res.packet_count


def test_effective_throughput_below_phy_rate():
    plan = fragment(390_625, 2048)
    for sim in (simulate_dcf, simulate_dcf_rts, simulate_pcf):
        res = sim(plan, PROFILE_11B)
        assert 0 < res.effective_throughput < PROFILE_11B.phy_rate


def test_scenario_ordering_across_random_parameter_sets():
    """PCF <= DCF <= DCF+RTS on 50 randomized parameter and plan draws."""
    rng = np.random.default_rng(2024)
    for _ in range(50):
        slot = float(rng.integers(5, 51))
        sifs = float(rng.integers(5, 31))
        params = MacParameters(
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
        nbytes = int(rng.integers(32_768, 500_000))
        plan = fragment(nbytes, int(rng.choice([512, 1024, 2048])))
        t_pcf = simulate_pcf(plan, params).total_time
        t_dcf = simulate_dcf(plan, params).total_time
        t_rts = simulate_dcf_rts(plan, params).total_time
        assert t_pcf <= t_dcf <= t_rts


def test_results_are_deterministic_across_runs():
    plan = fragment(123_457, 512)
    a = simulate_dcf_rts(plan, PROFILE_11B)
    b = simulate_dcf_rts(plan, PROFILE_11B)
    assert a.total_time == b.total_time
    assert a.per_packet_times == b.per_packet_times
    assert a.effective_throughput == b.effective_throughput


def test_tftp_lockstep_ack_costs_a_reverse_exchange():
    plan = fragment(4096, 512)
    chatty = fragment(4096, 512, tftp_ack=True)
    base = simulate_dcf(plan, PROFILE_11B)
    acked = simulate_dcf(chatty, PROFILE_11B)
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
