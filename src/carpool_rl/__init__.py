"""Carpool dispatch policies learned by reinforcement learning, on top of a
trip-data simulator and a joint travel-time/distance estimator."""

__version__ = "0.1.0"

from .geo import Bbox, GeoPoint, GridSpec, bin_location, bin_time, haversine_km
from .nn import Mlp, TrainConfig, copy_weights
from .trips import OutlierRules, TripRecord, TripStore, ingest_csv
from .eta import (ConstantSpeedEta, EtaEstimate, EtaMetrics, EtaQuery,
                  JointEtaModel, compute_metrics, evaluate, train_joint_eta,
                  train_linear_time, train_time_only)
from .simulator import (Action, CarpoolEnv, DriverState, EnvConfig,
                        ExtraTravelTimes, Transition, extra_travel_times)
from .agents import (DqnAgent, EpsilonSchedule, FixedPolicy, QTable,
                     ReplayMemory, run_episode, select_action, tabular_update,
                     train_dqn, train_tabular)
from .synth import SyntheticDemandSpec, dense_preset, generate_synthetic, sparse_preset
from .experiments import (EvalReport, run_eta_experiment,
                          run_policy_experiment)
