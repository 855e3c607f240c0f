"""Golden rollout: a few seeded training episodes, one update each, of a
crit7-shaped four_rooms agent, a crit6-shaped 5x5 spiral agent and a
crit5-shaped flat (one-level) open-field agent must leave exactly the
recorded bytes behind: every replay buffer's stored rows, the novelty state
buffer, the visit counts, the generator state, the snapshot, the state a
restored snapshot holds and a fixture-style evaluate result.

The constants were recorded once and must never be edited to make a change
pass: a rollout or update change that keeps every float keeps these hashes,
and one that moves any float fails here long before a metrics.csv differs.
The one exception is a change of the snapshot format, which moves the
`snapshot` digests alone: the `state` digest reads what restore rebuilds
from the snapshot (every network, every optimizer, the agent's settings), not
the text, so it holds across such a change and shows that nothing was lost.
"""

import hashlib

import numpy as np
import pytest

import acceptance_util as au
from hacx import agent, approx, harness

# tag: (frozen config, training episodes, evaluate test episodes)
CASES = {
    "crit7_hacx": (lambda: au.crit7_configs()["crit7_hacx"], 4, 5),
    "crit6_hacx": (lambda: au.crit6_configs()["crit6_hacx"], 3, 2),
    "crit5": (au.crit5_config, 6, 5),
}

GOLDEN = {
    "crit7_hacx": {
        "level0.count": 3600,
        "level0.rows": "93d5c0114f87eef095ca11005624eed22ff42d838c042fc351fb681eeee1a637",
        "level1.count": 432,
        "level1.rows": "34730a95afe45ff69157a73639c8f51c7a2a63606a17604df6e7162a89c5f64c",
        "level2.count": 28,
        "level2.rows": "f4e2a329788dd2a48e5ed3feee18f998a6e6c5dce29e5df91621796559242be7",
        "explore.count": 13,
        "explore.rows": "8eb73792090315bb72982d5366e22404499bba8cd4bef8027e87e91ab4e497bb",
        "novelty.count": 1200,
        "novelty.states": "1543f08333f9dc9bc63e30bb78aeddb1bb7f7aaf12d011a1956aa4904c873b34",
        "visits": "87ed9c1f20d588a44d2a826ad8c805a19ae62fa8acecb6b6db794b65463c0da7",
        "rng": "e430071cd0df749d2f7bc199959a9cabb25b199738220238c4117c443e6aa8ff",
        "snapshot": "d4167a2314e2a1161bd08870eddc3eb2b3057f681484904ca60af91591c386d0",
        "state": "75518390e75757415ab4818155a8c0bd87acdbd633e3e97d7e36da4d4e59c085",
        "evaluate": "(10.527138215017603, 0.0)",
    },
    "crit6_hacx": {
        "level0.count": 5400,
        "level0.rows": "3bd2813f4d8661c1668292264826439cf4833614abcf4e92fa92da756a89ee99",
        "level1.count": 669,
        "level1.rows": "dec62682709665028d3ab9ab1f104d7d6dc88bbc5edf0ad139cc5de960a505e5",
        "level2.count": 53,
        "level2.rows": "56602301a5e3e44f39eefee5a9ecfc8e6972752a515c7c336b5c4a6d33394f62",
        "explore.count": 19,
        "explore.rows": "7c7474dbebabc182f5b46940fc572d3ee77a1cb67f93cc0cb422028ac42e14af",
        "novelty.count": 1800,
        "novelty.states": "d1cd890eaac8430cb709e77288453fa6e1a30f5f3f1967a442f4b922c455056d",
        "visits": "8c762385238b3fa45be495ad00f5f23a8d5b9d090ed8ddd567e7d8235cd990a7",
        "rng": "622b1179d1de5941156d02b5ae921d0aa38cac125d96d882c59cffba9f5a00a8",
        "snapshot": "0405032f737d3399f5ba4d30aeff0907301175d8d00f5be28f1946517f8bfef9",
        "state": "dc72c131424455443c9498eed34d06e24874891d95910c2dc5fef0ed4f52aede",
        "evaluate": "(2.1810552837535133, 0.0)",
    },
    "crit5": {
        "level0.count": 1300,
        "level0.rows": "7b197425a072d92591370b91bf82b65ccc0688eccf3a797ab99fd95cdb651244",
        "explore.count": 500,
        "explore.rows": "8e9641fb028842bb6ca8c3999669c0c38e17fa8fdf69906f0ee409d2f4d041da",
        "novelty.count": 600,
        "novelty.states": "39f8ad35bf7ac1b16f64c0c8f7c76fb215df5e7d15c63dc709810728524eb15d",
        "visits": "0f0c6bed4f7178e063e5f56ba71302e417ef4bd40d7ac4613d66745e969b81e1",
        "rng": "43adfae15cd6c6cbbdb495580ba63b7291d72fc7622adedcfec7be783676062a",
        "snapshot": "a011e2074fa95a94d8d97858f70150a9680598b6e36925145472eaa7fe86b23e",
        "state": "875ef2d0c773676df11eb22902119b44322a33e012249bc01b6229ed395c0ef4",
        "evaluate": "(2.8168149508866067, 0.0)",
    },
}


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    elif isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data).tobytes()
    return hashlib.sha256(data).hexdigest()


def state_digest(ag) -> str:
    """Digest of what restore(policy_snapshot(ag)) holds: every network's
    parameters, every optimizer's moments, step count, learning rate, betas
    and eps, and the agent's settings."""
    back = agent.restore(agent.policy_snapshot(ag))
    nov = back.novelty
    parts = [repr((back.k, back.tau, back.horizon, back.epsilon, back.subgoal_test_rate,
                   back.q_low, back.num_relabels, back.num_relabels > 0, nov.epsilon_rnd,
                   nov.phase_index, back.env_name, tuple(back.spec.bounds)))]
    pairs = [(net, opt) for p in [*back.levels, back.explore_top]
             for net, opt in ((p.actor, p.actor_opt), (p.critic, p.critic_opt))]
    pairs += [(nov.target, None), (nov.predictor, nov.predictor_opt)]
    for net, opt in pairs:
        parts.append(net.params.tobytes().hex())
        if opt is not None:
            parts.append(repr((opt.step_count, opt.learning_rate, approx.ADAM_BETA1,
                               approx.ADAM_BETA2, approx.ADAM_EPS)))
            parts += ["-" if m is None else m.tobytes().hex() for m in (opt.m, opt.v)]
    return _sha("\n".join(parts))


def rollout_digests(tag: str) -> dict:
    make_cfg, episodes, test_episodes = CASES[tag]
    cfg = make_cfg()
    spec = harness.load_spec(cfg.env)
    rng = np.random.default_rng(20261)
    ag = harness.build_agent(cfg, spec, rng)
    tops = set()
    for _ in range(episodes):
        tops.add(agent.run_episode(ag, spec, "train", rng).top_policy_used)
        agent.update(ag, cfg.rounds_per_episode, cfg.batch_size, rng)
    # both drivers of a training episode are covered
    assert tops == {"explore", "goal"}
    out = {}
    for name, p in [*((f"level{i}", p) for i, p in enumerate(ag.levels)),
                    ("explore", ag.explore_top)]:
        out[f"{name}.count"] = p.buffer.count
        out[f"{name}.rows"] = _sha(p.buffer.rows[:p.buffer.count])
    nov = ag.novelty
    out["novelty.count"] = nov.visited.count
    out["novelty.states"] = _sha(nov.visited.rows[:nov.visited.count])
    out["visits"] = _sha(ag.visits)
    out["rng"] = _sha(repr(rng.bit_generator.state))
    out["snapshot"] = _sha(agent.policy_snapshot(ag))
    out["state"] = state_digest(ag)
    out["evaluate"] = repr(harness.evaluate(ag, spec, test_episodes,
                                            np.random.default_rng([20261, 1])))
    return out


@pytest.mark.parametrize("tag", sorted(CASES))
def test_rollout_leaves_the_golden_bytes(tag):
    assert rollout_digests(tag) == GOLDEN[tag]


if __name__ == "__main__":
    # prints the digests of the current code, for recording GOLDEN
    for tag in sorted(CASES):
        print(repr(tag), rollout_digests(tag))
