"""Seven radio-resource-management environments plus explicit tabular MDPs."""

from ..config import build_from_config
from ..errors import ConfigError
from .admission import AdmissionEnv
from .beamforming import SERVE_BEST, BeamAction, BeamformingEnv
from .energy import EnergySavingEnv, es_transition, normalize_subset
from .handover import HandoverEnv
from .link_adaptation import LaObs, LinkAdaptEnv
from .power import PowerEnv
from .scheduling import EWMA_FLOOR, SchedulingEnv
from .tabular import TabularEnv
from .types import ChannelMatrix, MroObservation

# Each kind's config keys are the keyword arguments of its constructor.
ENVS = {
    "link_adaptation": LinkAdaptEnv,
    "power_control": PowerEnv,
    "beamforming": BeamformingEnv,
    "scheduling": SchedulingEnv,
    "energy_saving": EnergySavingEnv,
    "handover": HandoverEnv,
    "admission_control": AdmissionEnv,
    "tabular": TabularEnv,
}


def make_env(cfg: dict):
    """Build an environment from a config dict with an 'env' discriminator.
    The env keeps that dict as `config`, the key of what is solved per config."""
    if "env" not in cfg:
        raise ConfigError("environment config needs an 'env' discriminator field")
    kind = cfg["env"]
    build = ENVS.get(kind)
    if build is None:
        raise ConfigError(f"unknown env {kind!r}; known: {sorted(ENVS)}")
    env = build_from_config(build, {k: v for k, v in cfg.items() if k != "env"}, kind)
    env.config = cfg
    return env


__all__ = [
    "AdmissionEnv",
    "BeamAction",
    "BeamformingEnv",
    "ChannelMatrix",
    "ENVS",
    "EWMA_FLOOR",
    "EnergySavingEnv",
    "HandoverEnv",
    "LaObs",
    "LinkAdaptEnv",
    "MroObservation",
    "PowerEnv",
    "SERVE_BEST",
    "SchedulingEnv",
    "TabularEnv",
    "es_transition",
    "make_env",
    "normalize_subset",
]
