//! Helpers shared by the golden-execution suites (`tests/determinism.rs`
//! pins the fresh-build lifecycle, `tests/recycle_equivalence.rs` the
//! recycled one — both against the same pre-refactor digests, defined once
//! here so the two suites can never assert different truths). The row-text
//! pins of `tests/feasibility_map.rs` and `tests/model_check.rs` digest with
//! the same [`fnv`].

use dynring_analysis::scenario::{AdversaryKind, Scenario, SchedulerKind};
use dynring_core::Algorithm;
use dynring_engine::sim::StopCondition;

/// FNV-1a over the debug rendering of the full execution record. The debug
/// representation covers every field of every round record, so two runs
/// digest equal iff they are observably identical.
pub fn fnv(rendered: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in rendered.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One golden scenario per algorithm family, with the digest captured from
/// the pre-refactor engine (commit 4e7f7a2). These values must never change.
pub fn golden_scenarios() -> Vec<(&'static str, Scenario, u64)> {
    vec![
        (
            "fsync/known-bound/static",
            Scenario::fsync(8, Algorithm::KnownBound { upper_bound: 8 }).with_trace(),
            0xb810_8681_4748_0790,
        ),
        (
            "fsync/known-bound/sticky",
            Scenario::fsync(9, Algorithm::KnownBound { upper_bound: 9 })
                .with_adversary(AdversaryKind::Sticky {
                    min_hold: 1,
                    max_hold: 9,
                    present: 0.25,
                    seed: 11,
                })
                .with_trace(),
            0xe591_03e1_1672_c14c,
        ),
        (
            "fsync/landmark-no-chirality/alternating",
            Scenario::fsync(8, Algorithm::LandmarkNoChirality)
                .with_adversary(AdversaryKind::Alternating { first: 0, second: 4 })
                .with_trace(),
            0x01ff_9322_8fe0_be38,
        ),
        (
            "fsync/unconscious/prevent-meeting",
            Scenario::fsync(9, Algorithm::Unconscious)
                .with_adversary(AdversaryKind::PreventMeeting)
                .with_stop(StopCondition::Explored)
                .with_trace(),
            0x9b1c_7bdf_1a2f_18db,
        ),
        // Prediction-on goldens: the omniscient `PreventMeeting` adversary
        // forces the engine to predict every agent's decision each round, so
        // these digests pin the probe-pool / prediction-fusion path (state
        // copies into reused probes) bit-for-bit against the pre-refactor
        // engine.
        (
            "fsync/known-bound/prevent-meeting",
            Scenario::fsync(9, Algorithm::KnownBound { upper_bound: 9 })
                .with_adversary(AdversaryKind::PreventMeeting)
                .with_trace(),
            0xf643_235d_5ffb_91d7,
        ),
        (
            "ssync/pt-bound-chirality/prevent-meeting",
            Scenario::ssync(6, Algorithm::PtBoundChirality { upper_bound: 6 }, 5)
                .with_adversary(AdversaryKind::PreventMeeting)
                .with_trace(),
            0x92bb_8aa1_3ca5_f4c7,
        ),
        (
            "ssync/pt-bound-chirality/sticky",
            Scenario::ssync(6, Algorithm::PtBoundChirality { upper_bound: 6 }, 11).with_trace(),
            0x8f9e_3137_e44b_8c69,
        ),
        (
            "ssync/pt-landmark-no-chirality/round-robin",
            Scenario::ssync(6, Algorithm::PtLandmarkNoChirality, 3)
                .with_scheduler(SchedulerKind::RoundRobin)
                .with_trace(),
            0x80d6_cbe2_ff60_d755,
        ),
        (
            "ssync/et-bound/et-fair",
            Scenario::ssync(6, Algorithm::EtBoundNoChirality { ring_size: 6 }, 7).with_trace(),
            0xdc1b_c68d_4d7f_db97,
        ),
    ]
}
