from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualmsi.devicelink import (
    N_PWM_CHANNELS,
    OP_CAPTURE_ALL,
    OP_CAPTURE_BAND,
    OP_DONE,
    TICK,
    Action,
    ControllerLink,
    FirmwareConfig,
    FirmwareState,
    Phase,
    SimCamera,
    capture_handshake,
    firmware_step,
    render_transcript,
    run_sequential_capture,
)
from dualmsi.errors import HandshakeTimeoutError, ValidationError

POTS = (10, 20, 30, 40, 50, 60, 70, 80)
OTHER_POTS = (1, 2, 3, 4, 5, 6, 7, 8)
CONFIG = FirmwareConfig(n_bands=4, timeout_steps=8)


class TestFirmwareStep:
    def test_capture_all_latches_pwm(self):
        state, actions = firmware_step(FirmwareState(), OP_CAPTURE_ALL, POTS, CONFIG)
        assert state.phase is Phase.SEQUENTIAL
        assert state.band == 0
        assert state.pwm == POTS
        assert actions == (Action("LED_ON", 0), Action("READY", 0))

    def test_pwm_tracks_pots_while_waiting(self):
        state, _ = firmware_step(FirmwareState(), TICK, POTS, CONFIG)
        assert state.pwm == POTS
        state, _ = firmware_step(state, TICK, OTHER_POTS, CONFIG)
        assert state.pwm == OTHER_POTS

    def test_pwm_frozen_during_capture(self):
        state, _ = firmware_step(FirmwareState(), OP_CAPTURE_ALL, POTS, CONFIG)
        state, actions = firmware_step(state, 0x99, OTHER_POTS, CONFIG)
        assert state.pwm == POTS  # pot changes ignored mid-capture
        assert state.phase is Phase.SEQUENTIAL
        assert actions == (Action("IGNORED", 0x99),)

    def test_single_band_two_byte_frame(self):
        state, actions = firmware_step(FirmwareState(), OP_CAPTURE_BAND, POTS, CONFIG)
        assert state.phase is Phase.WAITING and state.pending_opcode == OP_CAPTURE_BAND
        assert actions == ()
        state, actions = firmware_step(state, 2, POTS, CONFIG)
        assert state.phase is Phase.SINGLE and state.band == 2
        assert actions == (Action("LED_ON", 2), Action("READY", 2))

    def test_single_band_completion(self):
        state, _ = firmware_step(FirmwareState(), OP_CAPTURE_BAND, POTS, CONFIG)
        state, _ = firmware_step(state, 2, POTS, CONFIG)
        state, actions = firmware_step(state, OP_DONE, POTS, CONFIG)
        assert state.phase is Phase.WAITING
        assert actions == (Action("LED_OFF", 2), Action("COMPLETE", 2))

    def test_sequential_advances_through_bands(self):
        state, _ = firmware_step(FirmwareState(), OP_CAPTURE_ALL, POTS, CONFIG)
        seen = [0]
        for _ in range(CONFIG.n_bands - 1):
            state, actions = firmware_step(state, OP_DONE, POTS, CONFIG)
            assert actions[0] == Action("LED_OFF", seen[-1])
            seen.append(state.band)
        state, actions = firmware_step(state, OP_DONE, POTS, CONFIG)
        assert state.phase is Phase.WAITING
        last = CONFIG.n_bands - 1
        assert actions == (Action("LED_OFF", last), Action("COMPLETE", last))
        assert seen == [0, 1, 2, 3]

    def test_unknown_bytes_never_change_state(self):
        state = FirmwareState()
        for b in (0x00, 0x7F, 0xFF, 0x52):
            new, actions = firmware_step(state, b, POTS, CONFIG)
            assert new.phase is Phase.WAITING and new.pending_opcode is None
            assert actions == (Action("IGNORED", b),)
            state = new

    def test_out_of_range_band_aborts(self):
        state, _ = firmware_step(FirmwareState(), OP_CAPTURE_BAND, POTS, CONFIG)
        state, actions = firmware_step(state, 200, POTS, CONFIG)
        assert state.phase is Phase.WAITING and state.pending_opcode is None
        assert actions == (Action("IGNORED", 200),)

    def test_timeout_failsafe(self):
        state, _ = firmware_step(FirmwareState(), OP_CAPTURE_ALL, POTS, CONFIG)
        for _ in range(CONFIG.timeout_steps - 1):
            state, actions = firmware_step(state, TICK, POTS, CONFIG)
            assert state.phase is Phase.SEQUENTIAL
        state, actions = firmware_step(state, TICK, POTS, CONFIG)
        assert state.phase is Phase.WAITING
        assert actions == (Action("LED_OFF", 0), Action("TIMEOUT", 0))

    def test_pwm_validation(self):
        with pytest.raises(ValidationError):
            firmware_step(FirmwareState(), TICK, (1, 2, 3), CONFIG)
        with pytest.raises(ValidationError):
            firmware_step(FirmwareState(), TICK, (300,) * 8, CONFIG)


class TestHandshake:
    def test_golden_five_event_transcript(self):
        transcript = capture_handshake(2, FirmwareConfig(n_bands=4))
        rendered = render_transcript(transcript)
        assert rendered == (
            "t=0 controller LED_ON 2\n"
            "t=0 controller READY 2\n"
            "t=1 camera CAPTURE 2\n"
            "t=2 camera DONE 2\n"
            "t=2 controller LED_OFF 2\n"
        )

    def test_capture_inside_led_on_interval(self):
        transcript = capture_handshake(1, FirmwareConfig(n_bands=4), SimCamera(exposure_steps=3))
        names = [e.name for e in transcript]
        on, capture, off = names.index("LED_ON"), names.index("CAPTURE"), names.index("LED_OFF")
        assert on < capture < off

    def test_timeout_still_turns_led_off(self):
        with pytest.raises(HandshakeTimeoutError) as err:
            capture_handshake(0, FirmwareConfig(n_bands=4, timeout_steps=5), SimCamera(fail=True))
        names = [e.name for e in err.value.transcript]
        assert "LED_OFF" in names and "TIMEOUT" in names
        assert names.index("LED_OFF") < names.index("TIMEOUT")
        assert "DONE" not in names

    def test_sequential_interleaves_without_overlap(self):
        config = FirmwareConfig(n_bands=5)
        transcript = run_sequential_capture(config)
        lit = None
        captures = 0
        for event in transcript:
            if event.name == "LED_ON":
                assert lit is None, "two bands lit at once"
                lit = event.band
            elif event.name == "LED_OFF":
                assert lit == event.band
                lit = None
            elif event.name == "CAPTURE":
                assert lit == event.band, "capture outside LED-on interval"
                captures += 1
        assert lit is None
        assert captures == config.n_bands

    def test_band_out_of_range(self):
        with pytest.raises(ValidationError):
            capture_handshake(9, FirmwareConfig(n_bands=4))


class TestFuzz:
    def test_randomized_inputs_preserve_invariants(self):
        rng = np.random.default_rng(123)
        config = FirmwareConfig(n_bands=13, timeout_steps=6)
        state = FirmwareState()
        lit: set[int] = set()
        for step in range(1000):
            roll = rng.random()
            if roll < 0.25:
                inp = TICK
            elif roll < 0.5:
                inp = int(rng.integers(0, 256))
            else:
                inp = int(rng.choice([OP_CAPTURE_ALL, OP_CAPTURE_BAND, OP_DONE, 5, 0xFE]))
            pots = tuple(int(v) for v in rng.integers(0, 256, 8))
            state, actions = firmware_step(state, inp, pots, config)
            for action in actions:
                if action.name == "LED_ON":
                    assert not lit, f"second LED on at step {step}"
                    lit.add(action.arg)
                elif action.name == "LED_OFF":
                    assert action.arg in lit
                    lit.remove(action.arg)
            assert (state.band is None) == (not lit)
        # drain: ticking must always come back to waiting with LEDs off
        for _ in range(config.timeout_steps + 1):
            state, actions = firmware_step(state, TICK, POTS, config)
            for action in actions:
                if action.name == "LED_OFF":
                    lit.remove(action.arg)
        assert state.phase is Phase.WAITING
        assert not lit

    def test_returns_to_waiting_after_any_completed_sequence(self):
        rng = np.random.default_rng(7)
        config = FirmwareConfig(n_bands=3, timeout_steps=4)
        for trial in range(50):
            state = FirmwareState()
            for _ in range(int(rng.integers(1, 30))):
                inp = int(rng.integers(0, 256)) if rng.random() < 0.7 else TICK
                state, _ = firmware_step(state, inp, POTS, config)
            # finish: enough DONEs then ticks to cover any capture state
            for _ in range(config.n_bands + 1):
                state, _ = firmware_step(state, OP_DONE, POTS, config)
            for _ in range(config.timeout_steps + 1):
                state, _ = firmware_step(state, TICK, POTS, config)
            assert state.phase is Phase.WAITING


# Inputs weighted toward the opcodes, so that captures start and finish.
INPUTS = st.none() | st.integers(0, 255) | st.sampled_from([OP_CAPTURE_ALL, OP_CAPTURE_BAND, OP_DONE])
POT_READINGS = st.tuples(*[st.integers(0, 255)] * N_PWM_CHANNELS)


class TestVocabulary:
    @settings(max_examples=200, deadline=None)
    @given(steps=st.lists(st.tuples(INPUTS, POT_READINGS), max_size=60),
           n_bands=st.integers(1, 5), timeout_steps=st.integers(1, 6))
    def test_firmware_speaks_only_the_vocabulary(self, steps, n_bands, timeout_steps):
        config = FirmwareConfig(n_bands=n_bands, timeout_steps=timeout_steps)
        state, lit = FirmwareState(), None
        for inp, pots in steps:
            state, actions = firmware_step(state, inp, pots, config)
            for name, arg in actions:
                assert name in ControllerLink.TRANSCRIBED | {"COMPLETE", "IGNORED"}
                if name == "LED_ON":
                    assert lit is None, "two bands lit at once"
                    lit = arg
                elif name == "LED_OFF":
                    assert arg == lit, "LED_OFF of a band that is not lit"
                    lit = None
            assert state.band == lit  # None exactly when no LED is lit

    @settings(max_examples=50, deadline=None)
    @given(n_bands=st.integers(1, 5), exposure_steps=st.integers(1, 4), fail=st.booleans(),
           band=st.none() | st.integers(0, 4))
    def test_controller_lines_are_the_transcribed_actions(self, n_bands, exposure_steps, fail,
                                                          band):
        link = ControllerLink(FirmwareConfig(n_bands=n_bands, timeout_steps=6),
                              SimCamera(exposure_steps, fail))
        transcribed = []

        def recording_step(*args):
            state, actions = firmware_step(*args)
            transcribed.extend(a for a in actions if a.name in ControllerLink.TRANSCRIBED)
            return state, actions

        with mock.patch("dualmsi.devicelink.firmware_step", recording_step):
            if band is None:
                link._run_capture(OP_CAPTURE_ALL)
            else:
                link._run_capture(OP_CAPTURE_BAND, band % n_bands)
        lines = [Action(e.name, e.band) for e in link.transcript if e.party == "controller"]
        assert lines == transcribed
        assert lines[-1].name == ("TIMEOUT" if fail else "LED_OFF")
