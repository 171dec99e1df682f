"""Seven radio-resource-management environments plus exact-MDP extraction."""

from ..config import build_from_config
from ..errors import ConfigError
from .admission import AdmissionEnv
from .beamforming import SERVE_BEST, BeamAction, BeamformingEnv
from .energy import EnergySavingEnv, es_transition, normalize_subset
from .handover import HandoverEnv
from .link_adaptation import LaObs, LinkAdaptEnv
from .power import PowerEnv
from .scheduling import EWMA_FLOOR, SchedulingEnv
from .tabular import TabularEnv, env_true_mdp, tabular_env
from .types import (
    AdmissionState,
    ChannelMatrix,
    MroObservation,
    QueueState,
    RsrpField,
)

# Each kind's config keys are the keyword arguments of its constructor.
ENVS = {
    "link_adaptation": LinkAdaptEnv,
    "power_control": PowerEnv,
    "beamforming": BeamformingEnv,
    "scheduling": SchedulingEnv,
    "energy_saving": EnergySavingEnv,
    "handover": HandoverEnv,
    "admission_control": AdmissionEnv,
    "tabular": tabular_env,
}


def make_env(cfg: dict):
    """Build an environment from a config dict with an 'env' discriminator."""
    if "env" not in cfg:
        raise ConfigError("environment config needs an 'env' discriminator field")
    kind = cfg["env"]
    build = ENVS.get(kind)
    if build is None:
        raise ConfigError(f"unknown env {kind!r}; known: {sorted(ENVS)}")
    return build_from_config(build, {k: v for k, v in cfg.items() if k != "env"}, kind)


__all__ = [
    "AdmissionEnv",
    "AdmissionState",
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
    "QueueState",
    "RsrpField",
    "SERVE_BEST",
    "SchedulingEnv",
    "TabularEnv",
    "env_true_mdp",
    "es_transition",
    "make_env",
    "normalize_subset",
    "tabular_env",
]
