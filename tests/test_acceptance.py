"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. The learned-policy criteria train real agents and
take a few minutes; everything is seeded, so results are identical across
reruns on the same platform.
"""

import statistics

import numpy as np
import pytest

from gradcheck import gradient_check

from carpool_rl.agents import DqnAgent, QTable, tabular_update
from carpool_rl.config import (DataConfig, DqnConfig, EtaConfig,
                               ExperimentConfig, TabQConfig)
from carpool_rl.eta import (compute_metrics, evaluate, train_joint_eta,
                            train_linear_time, train_time_only)
from carpool_rl.experiments import run_eta_experiment, run_policy_experiment
from carpool_rl.geo import Bbox, GeoPoint, GridSpec
from carpool_rl.nn import Mlp
from carpool_rl.simulator import (Action, CarpoolEnv, DriverState, PATH_ONE,
                                  PATH_TWO, Transition,
                                  TransitionInfo, extra_travel_times)
from carpool_rl.synth import dense_preset, generate_synthetic
from carpool_rl.trips import TripRecord, TripStore, ingest_csv
from carpool_rl.eta import ConstantSpeedEta


def check(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"\n[ACCEPTANCE {num:2d}] {name}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------------------
# shared training runs


@pytest.fixture(scope="session")
def eta_run(tmp_path_factory):
    """Noisy dense-preset data plus the three estimators over three seeds."""
    path = tmp_path_factory.mktemp("eta") / "trips.csv"
    spec = dense_preset(n_days=6, noisy=True)
    generate_synthetic(spec, 777, path)
    store, _, _ = ingest_csv(path)
    train, test = store.train_test_split(0.8, seed=0)
    out = {"grid": spec.grid, "train": train, "test": test,
           "linear": [], "time_only": [], "joint": [], "joint_models": []}
    for seed in (0, 1, 2):
        cfg = EtaConfig(learning_rate=0.03, batch_size=32, epochs=35)
        linear = train_linear_time(train)
        time_only = train_time_only(train, spec.grid, cfg, seed)
        joint = train_joint_eta(train, spec.grid, cfg, seed)
        out["linear"].append(evaluate(linear.predict_batch, test).mae)
        out["time_only"].append(evaluate(time_only.predict_batch, test).mae)
        out["joint"].append(
            evaluate(lambda qs: joint.predict_batch(qs)[0], test).mae)
        out["joint_models"].append(joint)
    return out


def policy_config(out_dir, preset: str) -> ExperimentConfig:
    sparse = preset == "sparse"
    return ExperimentConfig(
        out_dir=str(out_dir),
        seeds=[0, 1, 2],
        eval_episodes=20,
        data=DataConfig(kind="synthetic", preset=preset, n_days=1, seed=42),
        eta=EtaConfig(kind="speed", speed_mph=6.0 if sparse else 12.0),
        dqn=DqnConfig(hidden=[64, 64], learning_rate=0.02, batch_size=32,
                      eps_start=1.0, eps_end=0.05, eps_decay_steps=25_000,
                      sync_period=1000,
                      train_episodes=600 if sparse else 150),
        tabq=TabQConfig(alpha=0.1, eps_decay_steps=25_000,
                        train_episodes=600 if sparse else 150),
    )


@pytest.fixture(scope="session")
def sparse_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("sparse_run")
    return run_policy_experiment(policy_config(out, "sparse"))


@pytest.fixture(scope="session")
def dense_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("dense_run")
    return run_policy_experiment(policy_config(out, "dense"))


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_eta_ordering(eta_run):
    lrt = statistics.mean(eta_run["linear"])
    timenn = statistics.mean(eta_run["time_only"])
    joint = statistics.mean(eta_run["joint"])
    improvement = 1.0 - joint / lrt
    ok = joint < timenn <= lrt and improvement >= 0.50
    check(1, "travel-time estimator ordering", ok,
          f"MAE joint {joint:.2f} < time-only {timenn:.2f} <= linear "
          f"{lrt:.2f}; joint improves on linear by {improvement:.1%} (need >= 50%)")


def test_criterion_2_outlier_robustness(eta_run):
    joint = eta_run["joint_models"][0]
    test = eta_run["test"]
    mae_clean = evaluate(lambda qs: joint.predict_batch(qs)[0], test).mae

    rng = np.random.default_rng(5)
    corrupted = []
    for r in test.records:
        if rng.random() < 0.01:  # re-inject meter-glitch style outliers
            corrupted.append(TripRecord(r.origin, r.destination, r.pickup_dt,
                                        r.dropoff_dt, r.distance,
                                        r.duration * 2.0, r.passengers))
        else:
            corrupted.append(r)
    mae_out = evaluate(lambda qs: joint.predict_batch(qs)[0],
                       TripStore(corrupted)).mae
    degradation = mae_out / mae_clean - 1.0
    ok = degradation < 0.25
    check(2, "robustness to outlier re-injection", ok,
          f"MAE {mae_clean:.2f} clean vs {mae_out:.2f} with outliers; "
          f"degradation {degradation:.1%} (need < 25%)")


def test_criterion_3_metric_oracle():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 60))
        y = rng.uniform(1.0, 1000.0, size=n)
        f = y + rng.normal(0.0, 60.0, size=n)
        m = compute_metrics(y, f)
        errs = [abs(a - b) for a, b in zip(y, f)]
        ybar = sum(y) / n
        brute = {
            "mae": sum(errs) / n,
            "mre": sum(errs) / sum(y),
            "medae": statistics.median(errs),
            "medre": statistics.median(e / t for e, t in zip(errs, y)),
            "r2": 1 - sum((a - b) ** 2 for a, b in zip(y, f))
                  / sum((a - ybar) ** 2 for a in y),
        }
        for key, want in brute.items():
            worst = max(worst, abs(getattr(m, key) - want))
    ok = worst < 1e-9
    check(3, "metric brute-force oracle", ok,
          f"max |evaluate - brute force| = {worst:.2e} over 100 random vectors")


def _kink_clear_sample(net, rng, margin=1e-3):
    """Draw inputs whose pre-activations sit away from the ReLU kinks, where
    central differences are valid."""
    for _ in range(100):
        x = rng.normal(size=(3, net.input_width))
        _, (_, zs) = net.forward(x)
        if all(np.min(np.abs(z)) > margin for z in zs):
            return x
    raise AssertionError("could not find a kink-clear evaluation point")


def test_criterion_4_gradient_correctness():
    rng = np.random.default_rng(44)
    worst = 0.0
    for _ in range(20):
        depth = int(rng.integers(1, 4))
        sizes = [int(rng.integers(2, 7))]
        sizes += [int(rng.integers(2, 10)) for _ in range(depth)]
        sizes += [int(rng.integers(1, 4))]
        net = Mlp(sizes, rng=rng)
        x = _kink_clear_sample(net, rng)
        y = rng.normal(size=(3, sizes[-1]))
        worst = max(worst, gradient_check(net, x, y, step=1e-5))
    ok = worst < 1e-4
    check(4, "backprop vs finite differences", ok,
          f"max relative error {worst:.2e} over 20 random architectures")


def test_criterion_5_detour_formula_suite():
    # hand-worked example, exact
    ett = extra_travel_times(t_o1_d1=350.0, t_o2_d2=450.0, t_o1_o2=100.0,
                             t_o2_d1=300.0, t_d1_d2=200.0, t_d2_d1=250.0)
    exact = (ett.path_one == (50.0, 50.0) and ett.total_one == 100.0
             and ett.path_two == (450.0, 0.0) and ett.total_two == 450.0
             and ett.chosen == PATH_ONE)

    rng = np.random.default_rng(55)
    zero_ok = True
    path_ok = True
    for _ in range(1000):
        # six draws in argument order: O1-D1, O2-D2, O1-O2, O2-D1, D1-D2, D2-D1
        legs = [float(rng.uniform(0.0, 1000.0)) for _ in range(6)]
        t_o1_d1, t_o2_d2, t_o1_o2, t_o2_d1, t_d1_d2, t_d2_d1 = legs
        e = extra_travel_times(*legs)
        zero_ok = zero_ok and e.path_two[1] == 0.0
        total_one = ((t_o1_o2 + t_o2_d1 - t_o1_d1)
                     + (t_o2_d1 + t_d1_d2 - t_o2_d2))
        total_two = t_o1_o2 + t_o2_d2 + t_d2_d1 - t_o1_d1
        want = PATH_ONE if total_one < total_two else PATH_TWO
        path_ok = path_ok and e.chosen == want
    ok = exact and zero_ok and path_ok
    check(5, "carpool detour formulas", ok,
          f"worked example exact: {exact}; passenger-2 zero on path II x1000: "
          f"{zero_ok}; path choice matches brute force x1000: {path_ok}")


def test_criterion_6_simulator_invariants(tmp_path):
    spec = dense_preset()
    path = tmp_path / "trips.csv"
    generate_synthetic(spec, 99, path)
    store, _, _ = ingest_csv(path)
    env = CarpoolEnv(store, ConstantSpeedEta(spec.speed_mph), spec.region,
                     spec.grid)
    rng = np.random.default_rng(6)
    failures = []
    for k in range(10_000):
        s = DriverState(
            GeoPoint(float(rng.uniform(spec.region.lat_min, spec.region.lat_max)),
                     float(rng.uniform(spec.region.lon_min, spec.region.lon_max))),
            float(rng.uniform(0, 86399)))
        action = Action(int(rng.integers(3)))
        tr = env.step(s, action)
        if not tr.next_state.time_of_day > s.time_of_day:
            failures.append((k, "time not strictly increasing"))
        if tr.reward < 0:
            failures.append((k, "negative reward"))
        if (tr.reward == 0.0) != (len(tr.info.trips) == 0):
            failures.append((k, "reward zero iff no trips violated"))
        if action == Action.TAKE_TWO and len(tr.info.trips) == 2:
            if tr.reward != tr.info.trips[0].distance + tr.info.trips[1].distance:
                failures.append((k, "carpool reward != distance sum"))
        if tr.done != (tr.next_state.time_of_day >= 86400.0):
            failures.append((k, "done flag inconsistent"))

    # termination from a fresh reset
    s = env.reset(np.random.default_rng(0))
    steps = 0
    while True:
        tr = env.step(s, Action(int(rng.integers(3))))
        steps += 1
        s = tr.next_state
        if tr.done:
            break
    if steps > 86400 / min(env.params.wait_delay, 1.0):
        failures.append((-1, "episode exceeded termination bound"))
    ok = not failures
    check(6, "simulator invariants over 10k random steps", ok,
          f"{len(failures)} violations" + (f", first: {failures[0]}" if failures else ""))


def test_criterion_7_tabular_exactness():
    region = Bbox(40.715, 40.735, -74.0094, -73.9894)
    grid = GridSpec(origin_corner=region.lower_left)
    gamma = 0.95

    def cell_state(i, j):
        return DriverState(GeoPoint(region.lat_min + i * grid.cell_lat,
                                    region.lon_min + j * grid.cell_lon), 0.0)

    cells = [(0, 0), (0, 1), (1, 0), (1, 1)]
    nxt = {(0, 0): (0, 1), (0, 1): (1, 1), (1, 1): (1, 0), (1, 0): (0, 0)}
    reward = {(0, 0): 1.0, (0, 1): 0.0, (1, 1): 2.0, (1, 0): 0.0}

    def transition(c, a):
        s = cell_state(*c)
        if a == Action.WAIT:
            return Transition(s, a, 0.0, s, False, TransitionInfo())
        if a == Action.TAKE_ONE:
            return Transition(s, a, reward[c], cell_state(*nxt[c]), False,
                              TransitionInfo())
        return Transition(s, a, 0.5, cell_state(0, 0), False, TransitionInfo())

    # dynamic-programming oracle
    q = {(c, a): 0.0 for c in cells for a in Action}
    for _ in range(2000):
        q = {(c, a): {
            Action.WAIT: gamma * max(q[(c, x)] for x in Action),
            Action.TAKE_ONE: reward[c] + gamma * max(q[(nxt[c], x)] for x in Action),
            Action.TAKE_TWO: 0.5 + gamma * max(q[((0, 0), x)] for x in Action),
        }[a] for c in cells for a in Action}

    table = QTable(TabQConfig(alpha=1.0, gamma=gamma), grid)
    for _ in range(2000):
        for c in cells:
            for a in Action:
                tabular_update(table, transition(c, a))

    worst = max(abs(table.q_values(cell_state(*c))[a] - q[(c, a)])
                for c in cells for a in Action)
    ok = worst < 1e-3
    check(7, "tabular Q matches dynamic programming", ok,
          f"max-norm error {worst:.2e} on the 4-cell deterministic MDP")


def test_criterion_8_double_dqn_identity():
    region = Bbox(40.715, 40.735, -74.0094, -73.9894)
    agent = DqnAgent(region, DqnConfig(hidden=[16, 16], learning_rate=0.01,
                                       batch_size=8), 0)
    agent.sync_target()
    rng = np.random.default_rng(8)
    batch = []
    for _ in range(1000):
        s = DriverState(GeoPoint(float(rng.uniform(40.715, 40.735)),
                                 float(rng.uniform(-74.0094, -73.9894))),
                        float(rng.uniform(0, 80000)))
        ns = DriverState(GeoPoint(float(rng.uniform(40.715, 40.735)),
                                  float(rng.uniform(-74.0094, -73.9894))),
                         s.time_of_day + float(rng.uniform(1, 3000)))
        batch.append(Transition(s, Action(int(rng.integers(3))),
                                float(rng.uniform(0, 5)), ns, False,
                                TransitionInfo()))
    rewards = np.array([tr.reward for tr in batch])
    ns_feats = np.stack([agent.features(tr.next_state) for tr in batch])
    live = np.array([0.0 if tr.done else 1.0 for tr in batch])
    targets = agent.compute_targets(rewards, agent.online.forward(ns_feats)[0],
                                    ns_feats, live)
    q_next, _ = agent.target.forward(ns_feats)
    vanilla = rewards + agent.cfg.gamma * q_next.max(axis=1)
    ok = np.array_equal(targets, vanilla)
    worst = float(np.max(np.abs(targets - vanilla)))
    check(8, "double-DQN target equals vanilla when nets equal", ok,
          f"max |difference| {worst:.1e} over 1000 transitions (exact match: {ok})")


def test_criterion_9_policy_quality(sparse_run, dense_run):
    day = "weekday"
    dqn_s = sparse_run.policies["dqn"][day]["per_seed"]
    fixed_s = sparse_run.policies["fixed"][day]["per_seed"]
    tab_s = sparse_run.policies["tabq"][day]["per_seed"]
    wins = sum(d >= f for d, f in zip(dqn_s, fixed_s))
    sparse_ok = wins * 2 > len(dqn_s)

    dqn_mean = dense_run.policies["dqn"][day]["mean"]
    fixed_mean = dense_run.policies["fixed"][day]["mean"]
    dense_gap = abs(dqn_mean - fixed_mean) / fixed_mean
    dense_ok = dense_gap < 0.15

    tab_ok = statistics.mean(tab_s) <= statistics.mean(dqn_s)

    ok = sparse_ok and dense_ok and tab_ok
    check(9, "policy quality vs fixed baseline", ok,
          f"sparse DQN>=fixed on {wins}/{len(dqn_s)} seeds "
          f"(dqn {[round(v, 2) for v in dqn_s]} vs fixed "
          f"{[round(v, 2) for v in fixed_s]}); dense gap {dense_gap:.1%} "
          f"(need < 15%); tabular {statistics.mean(tab_s):.2f} <= "
          f"dqn {statistics.mean(dqn_s):.2f}")


def test_criterion_10_mean_q_convergence(dense_run):
    cvs = []
    for seed in (0, 1, 2):
        path = dense_run.curves[f"dqn_mean_q_weekday_seed{seed}"]
        values = []
        with open(path) as fh:
            fh.readline()  # comment
            fh.readline()  # header
            for line in fh:
                values.append(float(line.strip().split(",")[1]))
        tail = values[-max(1, len(values) // 10):]
        cvs.append(float(np.std(tail) / abs(np.mean(tail))))
    worst = max(cvs)
    ok = worst < 0.1
    check(10, "mean-Q convergence on dense preset", ok,
          f"final-10% coefficient of variation per seed "
          f"{[round(c, 4) for c in cvs]} (need < 0.1)")


def test_criterion_11_reproducibility(tmp_path):
    def tiny(out):
        return ExperimentConfig(
            out_dir=str(out), seeds=[0], eval_episodes=2,
            data=DataConfig(kind="synthetic", preset="sparse", n_days=1, seed=7),
            eta=EtaConfig(kind="speed", speed_mph=6.0, epochs=2),
            dqn=DqnConfig(train_episodes=2, eps_decay_steps=300),
            tabq=TabQConfig(train_episodes=2, eps_decay_steps=300))

    a = run_policy_experiment(tiny(tmp_path / "a"))
    b = run_policy_experiment(tiny(tmp_path / "b"))
    worst = 0.0
    for policy, per_day in a.policies.items():
        for day, cell in per_day.items():
            other = b.policies[policy][day]
            for va, vb in zip(cell["per_seed"] + [cell["mean"], cell["std"]],
                              other["per_seed"] + [other["mean"], other["std"]]):
                denom = max(1.0, abs(va))
                worst = max(worst, abs(va - vb) / denom)

    ea = run_eta_experiment(tiny(tmp_path / "ea"))
    eb = run_eta_experiment(tiny(tmp_path / "eb"))
    for method in ("linear", "time_only", "joint"):
        for ra, rb in zip(ea[method]["per_seed"], eb[method]["per_seed"]):
            for key in ra:
                denom = max(1.0, abs(ra[key]))
                worst = max(worst, abs(ra[key] - rb[key]) / denom)
    ok = worst <= 1e-12
    check(11, "bit-level reproducibility of full runs", ok,
          f"max relative difference across reruns {worst:.2e} (need <= 1e-12)")
