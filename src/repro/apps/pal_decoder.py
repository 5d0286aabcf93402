"""The PAL video decoder case study (Sec. VI, Figs. 11 and 12).

A PAL decoder receives an RF signal sampled at 6.4 MS/s, splits it into a
video and an audio band, resamples the video band by 10/16 to the 4 MS/s the
black-box Video module expects and decimates the audio band by 25 and then by
8 down to the 32 kHz speaker rate.  Audio and video sinks must start
simultaneously (0 ms latency difference).

This module packages everything needed to compile, analyse and execute the
decoder with this reproduction:

* the OIL program text of Fig. 11 (parameterised by a frequency scale so that
  the full pipeline can be simulated in reasonable wall-clock time; the rate
  *ratios* -- 25, 10/16, 8 -- never change),
* the black-box module declarations for ``Mix_A``, ``LPF_V``, ``Video`` and
  ``Audio`` with their interface rates and response times,
* worst-case response times for the coordinated DSP functions,
* a function registry with executable DSP implementations
  (:mod:`repro.dsp`), including the modal mute behaviour of the Audio module
  the paper mentions ("the audio module internally has control behaviour, for
  example to mute the audio output in case of a bad reception"),
* the facade front: :meth:`PalDecoderApp.program` /
  ``Program.from_app("pal_decoder", scale=..., utilisation=...)`` run the
  complete pipeline -- compile, size buffers, verify latency, simulate on a
  synthetic RF signal -- through :mod:`repro.api`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional

from repro.core.compiler import CompilationResult
from repro.dsp.filters import StreamingFIR, design_lowpass
from repro.dsp.mixer import Mixer
from repro.dsp.pal import PALSignalConfig
from repro.dsp.resample import Decimator, RationalResampler
from repro.lang.semantics import BlackBoxModule, BlackBoxPort
from repro.runtime.functions import FunctionRegistry

#: Nominal rates of the paper's PAL decoder.
RF_RATE_HZ = 6_400_000
VIDEO_RATE_HZ = 4_000_000
AUDIO_RATE_HZ = 32_000

#: Rate conversion factors (Sec. VI / Fig. 12).
AUDIO_DECIMATION = 25          # SRC_A: gamma = 1/25
VIDEO_UP, VIDEO_DOWN = 10, 16  # SRC_V: gamma = 10/16
AUDIO_FINAL_DECIMATION = 8     # Audio:  gamma = 1/8


PAL_OIL_TEMPLATE = """
mod seq SRC_A(sample si, out sample so){{
  loop{{ LPF(si:{audio_decimation}, out so); }} while(1);
}}

mod seq SRC_V(sample si, out sample so){{
  loop{{ resamp(si:{video_down}, out so:{video_up}); }} while(1);
}}

mod par Splitter(sample rf, out sample v, out sample a){{
  fifo sample mas, mvs;
  Mix_A(rf, out mas) || SRC_A(mas, out a) ||
  LPF_V(rf, out mvs) || SRC_V(mvs, out v)
}}

mod par {{
  fifo sample vid, aud;
  source sample rf = receiveRF() @ {rf_hz} Hz;
  sink sample screen = display() @ {video_hz} Hz;
  sink sample speakers = sound() @ {audio_hz} Hz;
  start screen 0 ms after speakers;
  start screen 0 ms before speakers;
  Splitter(rf, out vid, out aud) ||
  Video(vid, out screen) ||
  Audio(aud, out speakers)
}}
"""


def pal_source_text(scale: int = 1) -> str:
    """The OIL program of Fig. 11 with all frequencies divided by *scale*.

    The rate ratios are unchanged, so the derived CTA model has exactly the
    same structure and transfer-rate ratios as the full-rate decoder.
    """
    if scale < 1 or RF_RATE_HZ % scale or VIDEO_RATE_HZ % scale or AUDIO_RATE_HZ % scale:
        raise ValueError(
            f"scale must divide all three rates ({RF_RATE_HZ}, {VIDEO_RATE_HZ}, {AUDIO_RATE_HZ}); got {scale}"
        )
    return PAL_OIL_TEMPLATE.format(
        audio_decimation=AUDIO_DECIMATION,
        video_down=VIDEO_DOWN,
        video_up=VIDEO_UP,
        rf_hz=RF_RATE_HZ // scale,
        video_hz=VIDEO_RATE_HZ // scale,
        audio_hz=AUDIO_RATE_HZ // scale,
    )


@dataclass
class PalDecoderApp:
    """A ready-to-run PAL decoder configuration.

    Parameters
    ----------
    scale:
        Frequency scale factor: all declared rates are divided by it (1 =
        the paper's 6.4 MS/s; 1000 is convenient for functional simulation).
    utilisation:
        Fraction of its firing period each function's worst-case response
        time occupies (0 < utilisation < 1).
    signal:
        Configuration of the synthetic composite RF signal.
    mute_threshold:
        Audio level below which the modal Audio module mutes its output.
    """

    scale: int = 1000
    utilisation: float = 0.4
    signal: PALSignalConfig = field(default_factory=PALSignalConfig)
    mute_threshold: float = 0.0

    # --------------------------------------------------------------- sources
    @property
    def rf_rate(self) -> Fraction:
        return Fraction(RF_RATE_HZ, self.scale)

    @property
    def video_rate(self) -> Fraction:
        return Fraction(VIDEO_RATE_HZ, self.scale)

    @property
    def audio_rate(self) -> Fraction:
        return Fraction(AUDIO_RATE_HZ, self.scale)

    def source_text(self) -> str:
        return pal_source_text(self.scale)

    # ------------------------------------------------------------ interfaces
    def _wcet_for_rate(self, rate: Fraction) -> Fraction:
        """A response time equal to ``utilisation`` of the firing period."""
        period = Fraction(1) / rate
        return period * Fraction(self.utilisation).limit_denominator(1000)

    def black_boxes(self) -> List[BlackBoxModule]:
        """Interface declarations of the externally implemented modules."""
        return [
            BlackBoxModule(
                "Mix_A",
                (BlackBoxPort("in", False), BlackBoxPort("out", True)),
                firing_duration=self._wcet_for_rate(self.rf_rate),
            ),
            BlackBoxModule(
                "LPF_V",
                (BlackBoxPort("in", False), BlackBoxPort("out", True)),
                firing_duration=self._wcet_for_rate(self.rf_rate),
            ),
            BlackBoxModule(
                "Video",
                (BlackBoxPort("in", False), BlackBoxPort("out", True)),
                firing_duration=self._wcet_for_rate(self.video_rate),
            ),
            BlackBoxModule(
                "Audio",
                (
                    BlackBoxPort("in", False, AUDIO_FINAL_DECIMATION),
                    BlackBoxPort("out", True, 1),
                ),
                firing_duration=self._wcet_for_rate(self.audio_rate),
            ),
        ]

    def function_wcets(self) -> Dict[str, Fraction]:
        """Worst-case response times of the coordinated functions."""
        audio_loop_rate = self.rf_rate / AUDIO_DECIMATION        # SRC_A loop
        video_loop_rate = self.rf_rate / VIDEO_DOWN              # SRC_V loop
        return {
            "LPF": self._wcet_for_rate(audio_loop_rate),
            "resamp": self._wcet_for_rate(video_loop_rate),
        }

    # -------------------------------------------------------------- pipeline
    def program(self):
        """The decoder as a :class:`repro.api.Program` (the facade front)."""
        from repro.api.program import Program
        from repro.dsp.pal import periodic_composite_stimulus

        return Program.from_source(
            self.source_text(),
            name="pal_decoder",
            function_wcets=self.function_wcets(),
            black_boxes=self.black_boxes(),
            registry=self.registry,
            signals=lambda: {"rf": periodic_composite_stimulus(self.signal)},
            params={
                "scale": self.scale,
                "utilisation": self.utilisation,
                "mute_threshold": self.mute_threshold,
            },
        )

    def compile(self) -> CompilationResult:
        """Parse, validate and derive the CTA model of the decoder."""
        return self.program().compile()

    def registry(self) -> FunctionRegistry:
        """Executable implementations of all coordinated functions.

        The DSP state (filter delay lines, oscillator phases) is created
        fresh for every registry, so separate simulations never share state.
        """
        registry = FunctionRegistry()
        mixer = Mixer(self.signal.audio_carrier)
        audio_decimator = Decimator(AUDIO_DECIMATION, num_taps=127)
        # Low-pass keeping the video band and rejecting the audio carrier.
        video_filter = StreamingFIR(design_lowpass(0.15, 63))
        video_resampler = RationalResampler(VIDEO_UP, VIDEO_DOWN, num_taps=63)
        final_decimator = Decimator(AUDIO_FINAL_DECIMATION, num_taps=63)
        threshold = self.mute_threshold

        registry.register(
            "Mix_A",
            mixer.mix,
            wcet=self._wcet_for_rate(self.rf_rate),
            description="mix the audio carrier down to baseband",
            get_state=mixer.get_state,
            set_state=mixer.set_state,
        )
        registry.register(
            "LPF_V",
            lambda sample: video_filter.process(sample)[0],
            wcet=self._wcet_for_rate(self.rf_rate),
            description="low-pass filter keeping the video band",
            get_state=video_filter.get_state,
            set_state=video_filter.set_state,
        )
        registry.register(
            "LPF",
            lambda samples: audio_decimator.process(samples)[0],
            wcet=self.function_wcets()["LPF"],
            description="anti-alias filter + decimation by 25 (SRC_A)",
            get_state=audio_decimator.get_state,
            set_state=audio_decimator.set_state,
        )
        registry.register(
            "resamp",
            video_resampler.process,
            wcet=self.function_wcets()["resamp"],
            description="10/16 rational resampler (SRC_V)",
            get_state=video_resampler.get_state,
            set_state=video_resampler.set_state,
        )
        registry.register(
            "Video",
            lambda sample: float(sample),
            wcet=self._wcet_for_rate(self.video_rate),
            description="black-box video processing (pass-through)",
            stateless=True,
        )

        def audio_box(samples):
            value = final_decimator.process(samples)[0]
            # Modal behaviour: mute the output when the level drops below the
            # configured threshold (bad reception).
            if abs(value) < threshold:
                return 0.0
            return value

        registry.register(
            "Audio",
            audio_box,
            wcet=self._wcet_for_rate(self.audio_rate),
            description="black-box audio processing with mute mode (decimation by 8)",
            get_state=final_decimator.get_state,
            set_state=final_decimator.set_state,
        )
        return registry


def pal_program(
    scale: int = 1000,
    utilisation: float = 0.4,
    signal: Optional[PALSignalConfig] = None,
    mute_threshold: float = 0.0,
):
    """Builder behind ``Program.from_app("pal_decoder", ...)``."""
    app = PalDecoderApp(
        scale=scale,
        utilisation=utilisation,
        signal=signal if signal is not None else PALSignalConfig(),
        mute_threshold=mute_threshold,
    )
    return app.program()
