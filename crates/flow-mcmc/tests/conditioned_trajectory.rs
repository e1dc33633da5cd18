//! Pinned trajectories of conditioned chains.
//!
//! The condition check in `PseudoStateSampler::try_step` draws no random
//! numbers, so how it decides a proposal's fate must never change a
//! seeded chain's path. These four chains — a required flow, a
//! forbidden flow, one of each, and two conditions sharing a source —
//! must end on checkpoints recorded with a check that re-tests every
//! condition after every flip, so they pin that re-testing only the
//! conditions a flip can break decides every proposal the same way. Any
//! drift shows up as a different state, step count or RNG word.

use flow_graph::NodeId;
use flow_icm::query::conditions_hold;
use flow_icm::{FlowCondition, Icm};
use flow_mcmc::{ChainCheckpoint, ProposalKind, PseudoStateSampler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const STEPS: usize = 30_000;

/// A seeded 40-node, 120-edge model with activation probabilities in
/// [0.2, 0.7): mean branching ≈ 1.35, so the pinned flows have marginal
/// probabilities of 0.4–0.7 and both kinds of condition bind.
fn model() -> Icm {
    let mut rng = StdRng::seed_from_u64(0x5eed_c0d1);
    let g = flow_graph::generate::uniform_edges(&mut rng, 40, 120);
    let probs = (0..g.edge_count())
        .map(|_| 0.2 + 0.5 * rng.random::<f64>())
        .collect();
    Icm::new(g, probs)
}

fn run_chain(
    icm: &Icm,
    kind: ProposalKind,
    conditions: Vec<FlowCondition>,
    seed: u64,
) -> (String, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sampler = PseudoStateSampler::with_conditions(icm, kind, conditions.clone(), &mut rng)
        .expect("pinned conditions are feasible");
    sampler.run(STEPS, &mut rng);
    assert!(conditions_hold(icm.graph(), sampler.state(), &conditions));
    let accepted = sampler.accepted();
    (
        ChainCheckpoint::capture(&mut sampler, &rng).to_text(),
        accepted,
    )
}

fn check(name: &str, got: (String, u64), want_text: &str, want_accepted: u64) {
    assert_eq!(got.0, want_text, "{name}: final checkpoint drifted");
    assert_eq!(got.1, want_accepted, "{name}: accept count drifted");
}

#[test]
fn required_chain_trajectory_is_pinned() {
    let icm = model();
    let got = run_chain(
        &icm,
        ProposalKind::ResultingActivity,
        vec![FlowCondition::requires(NodeId(0), NodeId(5))],
        11,
    );
    check("required", got, REQUIRED_TEXT, REQUIRED_ACCEPTED);
}

#[test]
fn forbidden_chain_trajectory_is_pinned() {
    let icm = model();
    let got = run_chain(
        &icm,
        ProposalKind::CurrentActivity,
        vec![FlowCondition::forbids(NodeId(3), NodeId(14))],
        12,
    );
    check("forbidden", got, FORBIDDEN_TEXT, FORBIDDEN_ACCEPTED);
}

#[test]
fn mixed_chain_trajectory_is_pinned() {
    let icm = model();
    let got = run_chain(
        &icm,
        ProposalKind::ResultingActivity,
        vec![
            FlowCondition::requires(NodeId(5), NodeId(22)),
            FlowCondition::forbids(NodeId(10), NodeId(2)),
        ],
        13,
    );
    check("mixed", got, MIXED_TEXT, MIXED_ACCEPTED);
}

#[test]
fn shared_source_chain_trajectory_is_pinned() {
    let icm = model();
    let got = run_chain(
        &icm,
        ProposalKind::ResultingActivity,
        vec![
            FlowCondition::requires(NodeId(9), NodeId(22)),
            FlowCondition::forbids(NodeId(9), NodeId(14)),
        ],
        14,
    );
    check("shared source", got, SHARED_TEXT, SHARED_ACCEPTED);
}

// Recorded with the check that re-tests every condition after every flip.
const REQUIRED_TEXT: &str = "flowckpt v1
edges=120
proposal=resulting
steps=30000
accepted=27952
rng=9370999040626260742,2088659519138490027,8480535527661554166,164960375492249168
active=1,2,4,7,11,12,14,16,18,20,21,24,26,28,29,31,33,34,38,39,41,45,47,48,50,52,55,57,58,59,62,72,80,81,83,85,88,90,91,94,98,99,101,102,107,109,113,115,116,119
";
const REQUIRED_ACCEPTED: u64 = 27952;
const FORBIDDEN_TEXT: &str = "flowckpt v1
edges=120
proposal=current
steps=30000
accepted=14381
rng=11568690635134113604,6053311946579741479,9243972782944078232,18063560311687594822
active=2,4,5,12,13,17,24,28,29,32,33,34,35,37,38,40,43,45,47,48,53,55,58,62,65,66,71,76,77,78,80,81,84,85,90,91,97,98,99,101,102,103,104,107,109,111,112,115,117,118,119
";
const FORBIDDEN_ACCEPTED: u64 = 14381;
const MIXED_TEXT: &str = "flowckpt v1
edges=120
proposal=resulting
steps=30000
accepted=27563
rng=9305974245645449473,17843863919807858761,4013483877534597427,5579443872718592530
active=2,3,6,9,11,13,14,15,16,19,20,25,26,27,28,29,31,37,38,39,46,47,50,53,54,59,63,65,67,69,71,75,78,79,80,81,82,83,84,86,89,90,91,96,98,101,103,104,105,108,109,113,116,117,118
";
const MIXED_ACCEPTED: u64 = 27563;
const SHARED_TEXT: &str = "flowckpt v1
edges=120
proposal=resulting
steps=30000
accepted=27083
rng=13953932015876843022,11997738129345598662,11219040779204934480,10235798908730172599
active=1,2,4,6,9,10,14,15,21,27,28,31,33,34,40,41,52,55,59,63,65,72,77,79,81,82,84,85,88,90,91,96,98,101,102,103,104,109,110,111,113,114,115,117,119
";
const SHARED_ACCEPTED: u64 = 27083;
