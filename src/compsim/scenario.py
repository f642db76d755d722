"""Declarative experiment configuration, JSON (de)serialization, presets.

A Scenario pins everything a run needs: geometry, antennas, MS placement,
feedback mode and codebooks, pairing policy, trial counts, and the master
seed. Serialization is canonical JSON (sorted keys, fixed indentation) so
configs diff cleanly and golden outputs stay stable. Validation is total:
``parse`` reports every problem it finds, not just the first.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import sys
from dataclasses import MISSING, asdict, dataclass, fields, replace
from types import SimpleNamespace

import numpy as np

from .channel import Geometry, single_cell, two_cell_line
from .errors import ConfigurationError, ScenarioError, raise_problems
from .quantization import FeedbackConfig
from .scheduling import PairingPolicy

PLACEMENT_MODES = ("fixed", "line_sweep", "random_uniform")

ENV_SEED = "COMPSIM_SEED"
ENV_TRIALS = "COMPSIM_TRIALS"


def _is_xy(entry) -> bool:
    """Whether a JSON value is an [x, y] pair of numbers (not booleans)."""
    return (isinstance(entry, list) and len(entry) == 2
            and all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in entry))


def _distance_problem(geom: Geometry, distance_m) -> str | None:
    """Why ``distance_m`` is not a valid distance from a user's own BS."""
    if distance_m is None or not geom.d_min_m <= distance_m <= geom.cell_radius_m:
        return f"must lie within [{geom.d_min_m}, {geom.cell_radius_m}] m"
    return None


@dataclass
class Placement:
    """Where the mobile stations are.

    fixed: ``positions`` lists one (x, y) per user.
    line_sweep: ``sweep_user`` moves along the BS axis from ``start_m`` to
    ``stop_m`` (distances from its serving BS) in ``steps`` points while the
    other users sit at their ``positions`` entries (the swept entry is null).
    random_uniform: every user is dropped uniformly over its cell's disc.
    """

    mode: str = "fixed"
    positions: list | None = None
    sweep_user: int | None = None
    start_m: float | None = None
    stop_m: float | None = None
    steps: int | None = None


@dataclass
class Scenario:
    geometry: Geometry
    n_tx: int
    n_users: int
    placement: Placement
    feedback: FeedbackConfig
    pairing: PairingPolicy
    trials: int = 1000
    drops: int = 0
    trials_per_drop: int = 1
    master_seed: int = 1
    tx_power: float = 1.0
    noise_power: float = 1.0
    output_csv: str | None = None  # default CSV destination, CLI --out wins

    def problems(self) -> list:
        """(field path, message) pairs for the scalar fields, the placement,
        and the checks that tie the sections together. Geometry, feedback
        and pairing check their own fields."""
        geom, pl = self.geometry, self.placement
        n_users, n_cells = self.n_users, geom.n_cells
        out = [(name, message) for name, ok, message in (
            ("n_tx", self.n_tx >= 2, "must be >= 2"),
            ("n_users", n_users >= 1, "must be >= 1"),
            ("trials", self.trials >= 1, "must be >= 1"),
            ("drops", self.drops >= 0, "must be >= 0"),
            ("trials_per_drop", self.trials_per_drop >= 1, "must be >= 1"),
            ("master_seed", self.master_seed >= 0, "must be nonnegative"),
            ("tx_power", self.tx_power > 0, "must be positive"),
            ("noise_power", self.noise_power > 0, "must be positive"),
        ) if not ok]

        if pl.mode not in PLACEMENT_MODES:
            out.append(("placement.mode", f"must be one of {PLACEMENT_MODES}"))
        elif pl.mode == "random_uniform":
            if self.drops < 1:
                out.append(("drops", "random placement requires drops >= 1"))
            fb = self.feedback
            if n_cells > 1 and fb.mode == "global" and fb.codebook_kind == "lloyd":
                # each cooperative drop moves the energy split a global
                # codebook is trained on, so every drop would retrain it
                out.append(("feedback.codebook_kind",
                            "global lloyd codebooks would retrain per cooperative random "
                            "drop; use per_cell feedback or 'random'"))
        else:
            swept = pl.sweep_user if pl.mode == "line_sweep" else None
            if not isinstance(pl.positions, list) or len(pl.positions) != n_users:
                out.append(("placement.positions", f"must list exactly {n_users} entries"))
            else:
                out.extend((f"placement.positions[{i}]", "must be an [x, y] pair")
                           for i, entry in enumerate(pl.positions)
                           if not (_is_xy(entry) or (i == swept and entry is None)))
            if pl.mode == "line_sweep":
                if n_cells != 2:
                    out.append(("placement.mode", "line_sweep needs the two-cell geometry"))
                if swept is None or not 0 <= swept < n_users:
                    out.append(("placement.sweep_user",
                                f"must be a user index in [0, {n_users})"))
                for name in ("start_m", "stop_m"):
                    problem = _distance_problem(geom, getattr(pl, name))
                    if problem:
                        out.append((f"placement.{name}", problem))
                if pl.steps is None or pl.steps < 1:
                    out.append(("placement.steps", "must be >= 1"))

        bits = self.feedback.bits
        if self.feedback.mode == "per_cell" and not (
            isinstance(bits, list) and len(bits) == n_users
            and all(isinstance(row, list) and len(row) == n_cells for row in bits)
        ):
            out.append(("feedback.bits", f"must be an {n_users} x {n_cells} integer matrix"))
        if pl.mode != "random_uniform" and n_cells != 1 and n_users != n_cells:
            out.append(("n_users", "must equal geometry.n_cells for cooperative scenarios"))
        if n_users > n_cells * self.n_tx:
            out.append(("n_users", "cannot exceed total transmit antennas"))
        # numpy shapes no array of more bytes than np.intp counts. The largest
        # draw a run implies, in n_tx-long blocks of complex normals: one
        # trial's channels, or a Lloyd training set (a global direction is
        # n_cells blocks long)
        fb = self.feedback
        blocks = max(n_users * n_cells, FeedbackConfig.largest_training_set(fb)
                     * (n_cells if fb.mode == "global" else 1))
        nbytes = blocks * self.n_tx * np.dtype(complex).itemsize
        if self.n_tx >= 2 and nbytes > np.iinfo(np.intp).max:
            out.append(("n_tx", "too large: a draw it sizes exceeds numpy's array size limit"))
        return out

    def __post_init__(self):
        raise_problems(self.problems())


@dataclass
class Arm:
    label: str
    scenario: Scenario


@dataclass
class Experiment:
    name: str
    arms: list


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def serialize(s: Scenario) -> str:
    """Canonical JSON form of a scenario."""
    doc = asdict(s)
    doc["geometry"]["bs_positions"] = s.geometry.bs_positions.tolist()
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def fingerprint(s: Scenario) -> str:
    return hashlib.sha256(serialize(s).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_SECTIONS = {"geometry": Geometry, "placement": Placement, "feedback": FeedbackConfig,
             "pairing": PairingPolicy}
# The JSON type of each field annotation; a field typed as a section is an object.
_JSON_TYPES = {"int": int, "float": float, "str": str, "list": list, "np.ndarray": list,
               **{cls.__name__: dict for cls in _SECTIONS.values()}}
# The keys a document must give, some although their dataclass has a default.
_REQUIRED = {"geometry", "n_tx", "n_users", "placement", "feedback", "pairing",
             "geometry.n_cells", "geometry.bs_positions", "geometry.cell_radius_m",
             "placement.mode", "feedback.mode"}


def _section_schema(path: str, cls) -> dict:
    """key -> (JSON type, required, default) of every field of ``cls``. The
    default is the field's own, or else the JSON type's empty value; it also
    stands in for a missing or bad value, so that the value checks still run
    and report their own problems."""
    out = {}
    for f in fields(cls):
        kind = _JSON_TYPES.get(f.type.removesuffix(" | None"))
        if kind is None:
            raise TypeError(f"{cls.__name__}.{f.name}: no JSON type for {f.type!r}")
        default = kind() if f.default is MISSING else f.default
        out[f.name] = (kind, (f"{path}.{f.name}" if path else f.name) in _REQUIRED, default)
    return out


_SCHEMA = {path: _section_schema(path, cls)
           for path, cls in (("", Scenario), *_SECTIONS.items())}


def _finite(number) -> bool:
    """Whether a JSON number is a finite float: not NaN, which fails every
    comparison, an infinity or an integer beyond the float range."""
    return -sys.float_info.max <= number <= sys.float_info.max


def _value_problem(value, kind, required: bool) -> str | None:
    """Why ``value`` cannot be a field of JSON type ``kind``, or None."""
    if value is None:
        return "missing" if required else None
    if not isinstance(value, (int, float) if kind is float else kind) or isinstance(value, bool):
        return f"expected {kind.__name__}"
    if kind is float and not _finite(value):
        return "must be finite"
    return None


def _read_section(obj: dict, path: str, errors: list) -> dict:
    """The typed fields of one section; unknown, missing and bad keys are
    reported into ``errors``, and missing and bad ones replaced by their
    defaults."""
    schema = _SCHEMA[path]
    prefix = f"{path}." if path else ""
    errors.extend(f"{prefix}{key}: unknown key" for key in obj if key not in schema)
    out = {}
    for key, (kind, required, default) in schema.items():
        value = obj.get(key)
        problem = _value_problem(value, kind, required)
        if problem:
            errors.append(f"{prefix}{key}: {problem}")
        if value is None or problem:
            value = copy.deepcopy(default)
        elif kind is float:
            value = float(value)
        out[key] = value
    return out


def parse(text: str) -> Scenario:
    """Parse and validate a scenario document; raises ScenarioError listing
    every diagnostic on failure."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # also an integer beyond the digit limit
        raise ScenarioError(f"document: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ScenarioError("document: top level must be an object")
    return scenario_from_dict(doc)


def scenario_from_dict(doc: dict) -> Scenario:
    """Build a scenario from its JSON object, reporting every problem at once.

    This function checks only the document's shape: unknown, missing and
    mistyped keys. The values are checked by the dataclasses. Their checks
    run here on the raw fields first, since constructing a dataclass stops
    at its own problems, and each is reported under its ``section.field``
    path.
    """
    errors: list[str] = []
    top = _read_section(copy.deepcopy(doc), "", errors)
    sections = {name: SimpleNamespace(**_read_section(top.pop(name), name, errors))
                for name in _SECTIONS}
    geometry = sections["geometry"]
    if not all(_is_xy(p) for p in geometry.bs_positions):
        errors.append("geometry.bs_positions: must be a list of [x, y] pairs")
        geometry.bs_positions = []
    for path, entries in (("geometry.bs_positions", geometry.bs_positions),
                          ("placement.positions", sections["placement"].positions)):
        errors.extend(f"{path}[{i}]: must be finite"
                      for i, entry in enumerate(entries if isinstance(entries, list) else ())
                      if _is_xy(entry) and not all(map(_finite, entry)))

    # A field reported above holds a default or an empty list in its place,
    # which the value checks must not report about as well.
    reported = {error.split(":", 1)[0] for error in errors}
    value_problems = [(f"{name}.{field}", message)
                      for name, cls in (("geometry", Geometry), ("feedback", FeedbackConfig),
                                        ("pairing", PairingPolicy))
                      for field, message in cls.problems(sections[name])]
    value_problems += Scenario.problems(SimpleNamespace(**top, **sections))
    errors.extend(f"{field}: {message}" for field, message in value_problems
                  if field not in reported)
    if errors:
        raise ScenarioError(*errors)

    return Scenario(
        geometry=Geometry(**vars(geometry)),
        placement=Placement(**vars(sections["placement"])),
        feedback=FeedbackConfig(**vars(sections["feedback"])),
        pairing=PairingPolicy(**vars(sections["pairing"])),
        **top,
    )


def check_trials_override(s: Scenario, source: str) -> None:
    """Reject a trial count set from ``source`` (a flag or an environment
    variable) on a random-drop scenario, which runs drops x trials_per_drop
    trials and never reads ``trials``."""
    if s.placement.mode == "random_uniform":
        raise ConfigurationError(f"{source}: a random-drop scenario runs drops x "
                                 "trials_per_drop trials; set those instead")


def apply_env_overrides(s: Scenario, env=None) -> Scenario:
    """Apply the seed / trial-count environment overrides (only those two)."""
    env = os.environ if env is None else env
    changes = {}
    for name, field_name in ((ENV_SEED, "master_seed"), (ENV_TRIALS, "trials")):
        if name in env:
            try:
                changes[field_name] = int(env[name])
            except ValueError:
                raise ConfigurationError(
                    f"{name}: expected an integer, got {env[name]!r}"
                ) from None
    if "trials" in changes:
        check_trials_override(s, ENV_TRIALS)
    return replace(s, **changes) if changes else s


# ---------------------------------------------------------------------------
# Sweep resolution
# ---------------------------------------------------------------------------

def _line_position(geom: Geometry, user: int, distance_m: float) -> list:
    """Position of ``user`` on the inter-BS axis at ``distance_m`` from its BS."""
    serving = geom.bs_positions[user]
    other = geom.bs_positions[1 - user]
    direction = (other - serving) / np.linalg.norm(other - serving)
    return list(serving + distance_m * direction)


def sweep_values(s: Scenario) -> list:
    if s.placement.mode != "line_sweep":
        return [None]
    return list(np.linspace(s.placement.start_m, s.placement.stop_m, s.placement.steps))


def at_sweep_point(s: Scenario, distance_m: float) -> Scenario:
    """Resolve a line-sweep scenario to fixed positions at one sweep distance."""
    if s.placement.mode != "line_sweep":
        raise ConfigurationError("scenario has no sweep to resolve")
    problem = _distance_problem(s.geometry, distance_m)
    if problem:
        raise ConfigurationError(f"sweep distance {distance_m:g} m {problem}")
    positions = copy.deepcopy(s.placement.positions)
    positions[s.placement.sweep_user] = _line_position(
        s.geometry, s.placement.sweep_user, distance_m
    )
    return replace(s, placement=Placement(mode="fixed", positions=positions))


def resolved_points(s: Scenario) -> list:
    """(sweep_value, fixed scenario) pairs covering the whole placement."""
    if s.placement.mode == "line_sweep":
        return [(d, at_sweep_point(s, d)) for d in sweep_values(s)]
    return [(None, s)]


# ---------------------------------------------------------------------------
# Presets reproducing the published experiments
# ---------------------------------------------------------------------------

PRESET_NAMES = ("fig3", "fig4", "fig5")

# Default fixed distances (m) of the non-swept user for the position study.
DEFAULT_COMPANION_DISTANCES = (250.0, 150.0, 50.0)
SWEEP_STEPS = 5


def _two_cell_scenario(
    feedback: FeedbackConfig,
    ms2_distance_m: float,
    master_seed: int,
    trials: int = 1000,
) -> Scenario:
    geom = two_cell_line()
    ms2 = _line_position(geom, 1, ms2_distance_m)
    return Scenario(
        geometry=geom,
        n_tx=4,
        n_users=2,
        placement=Placement(
            mode="line_sweep",
            positions=[None, ms2],
            sweep_user=0,
            start_m=250.0,
            stop_m=50.0,
            steps=SWEEP_STEPS,
        ),
        feedback=feedback,
        pairing=PairingPolicy(mode="always_pair"),
        trials=trials,
        master_seed=master_seed,
    )


def preset(name: str) -> Experiment:
    """Canned experiment descriptions for the published figures."""
    if name == "fig3":
        # Throughput of MS1 vs its BS distance, per-cell 3+3 bits, for several
        # fixed positions of the paired user.
        arms = [
            Arm(
                label=f"ms2_{d2:g}m",
                scenario=_two_cell_scenario(
                    FeedbackConfig(mode="per_cell", bits=[[3, 3], [3, 3]],
                                   codebook_kind="lloyd", training_seed=7103),
                    ms2_distance_m=d2,
                    master_seed=9301,
                ),
            )
            for d2 in DEFAULT_COMPANION_DISTANCES
        ]
        return Experiment(name="fig3", arms=arms)
    if name == "fig4":
        # Quantizer comparison at a matched 6-bit budget; paired user fixed at
        # the cell edge, identical geometry and seed across arms.
        ms2 = 250.0
        seed = 9401
        arms = [
            Arm(
                label="global_6bit",
                scenario=_two_cell_scenario(
                    FeedbackConfig(mode="global", global_bits=6,
                                   codebook_kind="lloyd", training_seed=7104),
                    ms2_distance_m=ms2,
                    master_seed=seed,
                ),
            ),
            Arm(
                label="per_cell_4_2",
                scenario=_two_cell_scenario(
                    FeedbackConfig(mode="per_cell", bits=[[4, 2], [2, 4]],
                                   codebook_kind="lloyd", training_seed=7104),
                    ms2_distance_m=ms2,
                    master_seed=seed,
                ),
            ),
            Arm(
                label="per_cell_3_3",
                scenario=_two_cell_scenario(
                    FeedbackConfig(mode="per_cell", bits=[[3, 3], [3, 3]],
                                   codebook_kind="lloyd", training_seed=7104),
                    ms2_distance_m=ms2,
                    master_seed=seed,
                ),
            ),
        ]
        return Experiment(name="fig4", arms=arms)
    if name == "fig5":
        # Random drops: two-cell cooperative transmission (per-cell 3+3)
        # against single-cell MU-MIMO with 8 antennas and one 6-bit codebook.
        # Per-user transmit power is identical in both scenarios, so the
        # single BS radiates twice the per-BS power of the cooperative pair.
        comp = Scenario(
            geometry=two_cell_line(),
            n_tx=4,
            n_users=2,
            placement=Placement(mode="random_uniform"),
            feedback=FeedbackConfig(mode="per_cell", bits=[[3, 3], [3, 3]],
                                    codebook_kind="lloyd", training_seed=7105),
            pairing=PairingPolicy(mode="always_pair"),
            trials=1000,
            drops=1000,
            trials_per_drop=20,
            master_seed=9501,
        )
        single = Scenario(
            geometry=single_cell(),
            n_tx=8,
            n_users=2,
            placement=Placement(mode="random_uniform"),
            feedback=FeedbackConfig(mode="global", global_bits=6,
                                    codebook_kind="lloyd", training_seed=7105),
            pairing=PairingPolicy(mode="always_pair"),
            trials=1000,
            drops=1000,
            trials_per_drop=20,
            master_seed=9501,
        )
        return Experiment(
            name="fig5",
            arms=[
                Arm(label="comp_per_cell_3_3", scenario=comp),
                Arm(label="single_cell_global_6bit", scenario=single),
            ],
        )
    raise ConfigurationError(f"unknown preset {name!r} (known: {', '.join(PRESET_NAMES)})")
