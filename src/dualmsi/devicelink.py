"""Byte-level controller-firmware simulation and capture handshake.

The firmware has three functional states: waiting, sequential capture of
all bands, and single-band capture.  Control bytes move it between them;
potentiometer readings are latched into the eight PWM levels at the
moment a capture starts and cannot change until the firmware returns to
waiting.  Unknown bytes never change state.

Wire grammar (invented for this simulation, one table, little else):

    host -> controller   0x41 'A'            start sequential capture
                         0x42 'B' <band>     capture one band (two-byte frame)
                         0x44 'D'            camera finished exposing (relayed)
    controller -> camera 0x52 'R'            LEDs stable, ready to expose

The firmware is a Mealy machine: each input byte or tick yields a new
state and a tuple of :class:`Action` records, whose names are the words
of the transcript.  ``LED_ON``, ``LED_OFF``, ``READY`` and ``TIMEOUT``
each write a controller line (``ControllerLink.TRANSCRIBED``); ``COMPLETE``
and ``IGNORED`` write none.

Timeouts are counted in simulation steps (delivered as ticks), never wall
clock, so every run is deterministic.  The fail-safe on timeout turns the
LEDs off before returning to waiting.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Iterable, NamedTuple

from .errors import HandshakeTimeoutError, ValidationError, check_number

OP_CAPTURE_ALL = 0x41  # 'A'
OP_CAPTURE_BAND = 0x42  # 'B'
OP_DONE = 0x44  # 'D'

#: Tick input: one step of simulated time with no byte on the wire.
TICK = None

N_PWM_CHANNELS = 8  # four top-panel segments + four bottom-panel segments


class Phase(Enum):
    WAITING = "waiting"
    SEQUENTIAL = "sequential"
    SINGLE = "single"


@dataclass(frozen=True)
class FirmwareState:
    """Snapshot of the controller firmware.

    ``band`` is the band whose LEDs are lit in either capture phase, and
    None while waiting.  ``pending_opcode`` holds a two-byte command
    awaiting its argument (still functionally waiting).  ``waited`` counts
    ticks spent waiting for the camera in a capture state.
    """

    phase: Phase = Phase.WAITING
    band: int | None = None
    pwm: tuple[int, ...] = (0,) * N_PWM_CHANNELS
    pending_opcode: int | None = None
    waited: int = 0

    def __post_init__(self):
        if len(self.pwm) != N_PWM_CHANNELS:
            raise ValidationError(f"pwm must have {N_PWM_CHANNELS} channels")
        for level in self.pwm:
            check_number("pwm", level, 0, 255, integer=True)


class Action(NamedTuple):
    """One firmware output: ``name`` is its transcript word and ``arg`` the
    band it concerns, or the ignored byte for ``IGNORED``."""

    name: str
    arg: int


@dataclass(frozen=True)
class FirmwareConfig:
    n_bands: int = 13
    timeout_steps: int = 16

    def __post_init__(self):
        check_number("n_bands", self.n_bands, 1, integer=True)
        check_number("timeout_steps", self.timeout_steps, 1, integer=True)


def _latch(pots: Iterable[int]) -> tuple[int, ...]:
    pwm = tuple(int(check_number("pots", v, 0, 255, integer=True)) for v in pots)
    if len(pwm) != N_PWM_CHANNELS:
        raise ValidationError(f"pots must have {N_PWM_CHANNELS} readings")
    return pwm


def _light(phase: Phase, band: int, pwm: tuple[int, ...]):
    """Capture state ``phase`` with ``band`` lit, and the actions that light it."""
    return FirmwareState(phase=phase, band=band, pwm=pwm), (
        Action("LED_ON", band),
        Action("READY", band),
    )


def firmware_step(
    state: FirmwareState,
    inp: int | None,
    pots: Iterable[int],
    config: FirmwareConfig = FirmwareConfig(),
):
    """Advance the firmware by one input byte or tick.

    Returns (new_state, actions).  In waiting, the PWM levels track the
    live potentiometer readings; entering a capture state freezes them.
    Unrecognized bytes are ignored in every state.
    """
    pots = _latch(pots)

    if state.phase is Phase.WAITING:
        if state.pending_opcode == OP_CAPTURE_BAND and inp is not TICK:
            band = int(inp)
            if 0 <= band < config.n_bands:
                return _light(Phase.SINGLE, band, pots)
            # out-of-range band aborts the frame, stays waiting
            return replace(state, pending_opcode=None, pwm=pots), (Action("IGNORED", band),)
        if inp is TICK:
            return replace(state, pwm=pots), ()
        if inp == OP_CAPTURE_ALL:
            return _light(Phase.SEQUENTIAL, 0, pots)
        if inp == OP_CAPTURE_BAND:
            return replace(state, pending_opcode=OP_CAPTURE_BAND, pwm=pots), ()
        return replace(state, pwm=pots), (Action("IGNORED", int(inp)),)

    # Capture states: only DONE and time advance matter; PWM is frozen.
    band = state.band
    if inp is TICK:
        waited = state.waited + 1
        if waited >= config.timeout_steps:
            return FirmwareState(pwm=state.pwm), (Action("LED_OFF", band), Action("TIMEOUT", band))
        return replace(state, waited=waited), ()
    if inp == OP_DONE:
        off = Action("LED_OFF", band)
        if state.phase is Phase.SEQUENTIAL and band + 1 < config.n_bands:
            new, lit = _light(Phase.SEQUENTIAL, band + 1, state.pwm)
            return new, (off, *lit)
        return FirmwareState(pwm=state.pwm), (off, Action("COMPLETE", band))
    return state, (Action("IGNORED", int(inp)),)


# --------------------------------------------------------------------------
# Discrete-event capture simulation
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Event:
    t: int
    party: str
    name: str
    band: int | None = None

    def render(self) -> str:
        line = f"t={self.t} {self.party} {self.name}"
        if self.band is not None:
            line += f" {self.band}"
        return line


class SimCamera:
    """Deterministic camera: exposes for a fixed number of steps, then DONE.

    ``fail`` models a hung camera that never reports completion.
    """

    def __init__(self, exposure_steps: int = 1, fail: bool = False):
        self.exposure_steps = check_number("exposure_steps", exposure_steps, 1, integer=True)
        self.fail = fail
        self._remaining = None
        self._band = None

    def on_ready(self, band: int) -> None:
        self._remaining = self.exposure_steps
        self._band = band

    def tick(self):
        """Returns ("CAPTURE", band), ("DONE", band) or None this step."""
        if self._remaining is None:
            return None
        if self._remaining == self.exposure_steps:
            self._remaining -= 1
            return ("CAPTURE", self._band)
        if self._remaining > 0:
            self._remaining -= 1
            return None
        if self.fail:
            return None
        band = self._band
        self._remaining = None
        self._band = None
        return ("DONE", band)


class ControllerLink:
    """Event loop binding firmware, camera and transcript together."""

    #: The action names that write a controller line to the transcript.
    TRANSCRIBED = frozenset({"LED_ON", "LED_OFF", "READY", "TIMEOUT"})
    #: The potentiometer readings the firmware latches.
    POTS = (128,) * N_PWM_CHANNELS

    def __init__(self, config: FirmwareConfig = FirmwareConfig(), camera: SimCamera | None = None):
        self.config = config
        self.camera = camera if camera is not None else SimCamera()
        self.state = FirmwareState()
        self.t = 0
        self.transcript: list[Event] = []

    def _apply(self, inp) -> None:
        self.state, actions = firmware_step(self.state, inp, self.POTS, self.config)
        for name, band in actions:
            if name in self.TRANSCRIBED:
                self.transcript.append(Event(self.t, "controller", name, band))
            if name == "READY":
                self.camera.on_ready(band)

    def _run_capture(self, first_byte: int, band: int | None = None) -> None:
        self._apply(first_byte)
        if band is not None:
            self._apply(band)
        while self.state.phase is not Phase.WAITING:
            self.t += 1
            name, cam_band = self.camera.tick() or (None, None)
            if name is not None:
                self.transcript.append(Event(self.t, "camera", name, cam_band))
            self._apply(OP_DONE if name == "DONE" else TICK)

    def _raise_if_timed_out(self) -> None:
        if any(e.name == "TIMEOUT" for e in self.transcript):
            raise HandshakeTimeoutError(
                "camera did not report completion within the step budget",
                transcript=self.transcript,
            )


def capture_handshake(
    band: int,
    config: FirmwareConfig = FirmwareConfig(),
    camera: SimCamera | None = None,
) -> list[Event]:
    """Run one single-band capture; returns the five-event transcript.

    Nominal order: LED_ON, READY, CAPTURE, DONE, LED_OFF.  On a camera
    timeout the LED is still turned off (fail-safe) before the error is
    raised; the partial transcript rides on the exception.
    """
    check_number("band", band, 0, config.n_bands - 1, integer=True)
    link = ControllerLink(config=config, camera=camera)
    link._run_capture(OP_CAPTURE_BAND, band)
    link._raise_if_timed_out()
    return link.transcript


def run_sequential_capture(
    config: FirmwareConfig = FirmwareConfig(),
    camera: SimCamera | None = None,
) -> list[Event]:
    """Capture every band in order: B interleaved handshakes."""
    link = ControllerLink(config=config, camera=camera)
    link._run_capture(OP_CAPTURE_ALL)
    link._raise_if_timed_out()
    return link.transcript


def render_transcript(events: Iterable[Event]) -> str:
    return "\n".join(e.render() for e in events) + "\n"


# --------------------------------------------------------------------------
# Command handler (``dualmsi protocol-sim``, listed in ``cli.COMMANDS``)
# --------------------------------------------------------------------------


def cmd_protocol_sim(
    args, out: Path, n_bands: int = 13, timeout_steps: int = 16, exposure_steps: int = 1,
    band: int | None = None, fail: bool = False,
) -> None:
    """Run the capture handshake simulation and write the transcript: every
    band in sequence, or the single-band handshake of ``band``."""
    fw = FirmwareConfig(n_bands=n_bands, timeout_steps=timeout_steps)
    camera = SimCamera(exposure_steps=exposure_steps, fail=fail)
    if band is None:
        transcript = run_sequential_capture(fw, camera)
    else:
        transcript = capture_handshake(band, fw, camera)
    out.mkdir(parents=True, exist_ok=True)
    (out / "transcript.log").write_text(render_transcript(transcript))
    print(f"{len(transcript)} events -> {out / 'transcript.log'}")
