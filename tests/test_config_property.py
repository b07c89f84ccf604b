"""Property: every configuration either runs or exits 1 or 2 with a message.

Config text is built from the known keys with arbitrary values (NaN,
infinities, zero, negatives, huge magnitudes, garbage tokens, missing
keys). Keys that set the amount of work (n_vib, n_bins, t_final,
dt_record, the sweep size) are drawn only from tiny valid ranges or from
invalid forms, so every example stays small; n_bins is never 'auto',
which would let sigma set the work.
"""

import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from polarbin.cli import main
from polarbin.config import SWEEP_KEYS

SPECIAL = ("nan", "-nan", "inf", "-inf", "0", "-0", "-1", "1e-300", "1e300",
           "1.7e308", "-1e308", "abc", "1,2", "0x10", "", "1 fs", "resonant")
GARBAGE = st.text(
    alphabet=st.characters(codec="ascii", exclude_characters="\n\r"),
    max_size=8,
)
ANYTHING = st.one_of(st.sampled_from(SPECIAL), st.floats().map(repr), GARBAGE)
INVALID_TIME = st.sampled_from(("0", "-1", "nan", "inf", "-inf", "abc",
                                "1 parsec", "1e400 fs", "1e308 fs", ""))


def _floats(lo, hi):
    return st.floats(lo, hi).map(repr)


# (usable value, invalid or arbitrary value) per key
MODEL = {
    "omega0": (_floats(0.05, 0.15), ANYTHING),
    "omega_nu": (_floats(0.005, 0.02), ANYTHING),
    "s1": (_floats(-4.0, 4.0), ANYTHING),
    "s2": (_floats(-4.0, 4.0), ANYTHING),
    "v12": (_floats(0.0, 0.005), ANYTHING),
    "omega_c": (st.one_of(_floats(0.05, 0.15), st.just("resonant")), ANYTHING),
    "kappa": (_floats(0.0, 0.01), ANYTHING),
    "coupling": (_floats(0.0, 0.05), ANYTHING),
    "sigma": (_floats(0.0, 0.03), ANYTHING),
    "delta2": (_floats(-0.01, 0.01), ANYTHING),
}
RUN = {
    "t_final": (st.sampled_from(("0.5", "2 au", "4 au", "0.1 fs")), INVALID_TIME),
    "dt_record": (st.sampled_from(("0.5", "1", "3", "1e300")),
                  st.sampled_from(("0", "-5", "nan", "inf", "-inf", "x", "1 fs"))),
    "n_vib": (st.sampled_from(("2", "3", "4")),
              st.sampled_from(("0", "1", "-3", "4.5", "nan", "x", ""))),
    "n_bins": (st.sampled_from(("1", "2", "3")),
               st.sampled_from(("0", "-1", "2.0", "nan", "x", ""))),
    "tolerance": (_floats(1e-12, 1e-6), ANYTHING),
    "initial_state": (st.sampled_from(("photonic", "bright", "upper_polariton",
                                       "lower_polariton")), GARBAGE),
    "vib_energy_times": (
        st.lists(st.sampled_from(("0", "0.5 au", "0.01 fs")), max_size=2).map(", ".join),
        st.lists(st.one_of(INVALID_TIME, GARBAGE), min_size=1, max_size=2).map(", ".join),
    ),
}
# most keys keep a usable value, so many examples get past loading and run
MODE = st.sampled_from(("usable",) * 24 + ("other", "omit"))


@st.composite
def config_text(draw):
    lines = []
    for section, keys in (("model", MODEL), ("run", RUN)):
        lines.append(f"[{section}]")
        for key, (usable, other) in keys.items():
            mode = draw(MODE)
            if mode != "omit":
                value = draw(usable if mode == "usable" else other)
                lines.append(f"{key} = {value}")
    sweep = draw(st.dictionaries(
        st.sampled_from(SWEEP_KEYS),
        st.lists(st.one_of(MODEL["sigma"][0], ANYTHING), max_size=2),
        max_size=2,
    ))
    if sweep:
        lines.append("[sweep]")
        lines += [f"{key} = {', '.join(values)}" for key, values in sweep.items()]
    return "\n".join(lines) + "\n"


# derandomized: the same examples on every run, so the suite stays reproducible
@settings(max_examples=300, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=config_text(),
       command=st.sampled_from(("dynamics", "spectrum", "sweep", "oracle")))
def test_any_config_runs_or_exits_with_a_code(text, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        code = main([command, "--config", path, "--out", os.path.join(tmp, "out")])
    assert code in (0, 1, 2)
