//! Property tests for the protocol state copy backing the engine's probe
//! pool, and for the termination contract the round loop relies on.
//!
//! The omniscient-adversary path refreshes a per-agent *probe* through
//! `CatalogProtocol::clone_from` (an in-place state copy) instead of cloning
//! afresh every round, and checkpoint slots and trace labels copy programs
//! the same way. That is only sound if the copy is indistinguishable from a
//! fresh clone for every protocol in the catalogue, whatever states the live
//! instance and the stale probe are in — which is exactly what these
//! properties pin down.

use dynring_core::{Algorithm, CatalogProtocol};
use dynring_model::{
    Decision, LocalDirection, LocalPosition, NodeOccupancy, PriorOutcome, Protocol, Snapshot,
};
use proptest::prelude::*;

/// Deterministically derives a plausible Look snapshot from `bits` (a
/// SplitMix-style scramble keeps consecutive rounds diverse).
fn snapshot_from(bits: u64, round: u64) -> Snapshot {
    let mut z = bits ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    let prior = match z % 5 {
        0 => PriorOutcome::Idle,
        1 => PriorOutcome::Moved,
        2 => PriorOutcome::BlockedOnPort,
        3 => PriorOutcome::PortAcquisitionFailed,
        _ => PriorOutcome::Transported,
    };
    let position = match (z >> 3) % 3 {
        0 => LocalPosition::InNode,
        1 => LocalPosition::OnPort(LocalDirection::Left),
        _ => LocalPosition::OnPort(LocalDirection::Right),
    };
    Snapshot {
        position,
        is_landmark: (z >> 5).is_multiple_of(4),
        occupancy: NodeOccupancy {
            in_node: ((z >> 7) % 3) as usize,
            on_left_port: ((z >> 9) % 2) as usize,
            on_right_port: ((z >> 11) % 2) as usize,
        },
        prior,
        round_hint: if (z >> 13).is_multiple_of(2) { Some(round) } else { None },
    }
}

/// Drives `protocol` through `rounds` scrambled snapshots (skipping once it
/// terminates, as the engine would).
fn drive(protocol: &mut CatalogProtocol, seed: u64, rounds: u64) {
    for round in 1..=rounds {
        if protocol.has_terminated() {
            break;
        }
        let _ = protocol.decide(&snapshot_from(seed, round));
    }
}

/// The full catalogue instantiated for a small ring.
fn catalog() -> Vec<CatalogProtocol> {
    Algorithm::full_catalog(8).iter().map(Algorithm::instantiate).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For every pair of catalogue protocols, of the same variant or not:
    /// copying a live instance's state into a stale probe (driven through an
    /// unrelated history) leaves the probe indistinguishable from a fresh
    /// `clone` — same labels, same debug state, and identical behaviour on
    /// every subsequent activation.
    #[test]
    fn clone_from_matches_a_fresh_clone(
        live_seed in 0u64..1 << 48,
        probe_seed in 0u64..1 << 48,
        live_rounds in 0u64..60,
        probe_rounds in 0u64..60,
        future_seed in 0u64..1 << 48,
    ) {
        for mut live in catalog() {
            drive(&mut live, live_seed, live_rounds);
            for mut probe in catalog() {
                drive(&mut probe, probe_seed, probe_rounds);
                probe.clone_from(&live);
                let mut fresh = live.clone();

                prop_assert_eq!(probe.state_label(), fresh.state_label());
                prop_assert_eq!(format!("{probe:?}"), format!("{fresh:?}"));
                prop_assert_eq!(probe.has_terminated(), fresh.has_terminated());

                // The copy and the fresh clone stay in lock-step forever after.
                for round in 1..=40u64 {
                    if fresh.has_terminated() {
                        break;
                    }
                    let snapshot = snapshot_from(future_seed, round);
                    prop_assert_eq!(
                        probe.decide(&snapshot),
                        fresh.decide(&snapshot),
                        "{} diverged at round {round}",
                        probe.name()
                    );
                    prop_assert_eq!(probe.state_label(), fresh.state_label());
                    prop_assert_eq!(probe.has_terminated(), fresh.has_terminated());
                }
            }
        }
    }

    /// Every catalogue protocol enters its terminal state exactly on the
    /// activation that returns `Decision::Terminate`, and on no other: the
    /// engine terminates agents on that decision alone.
    #[test]
    fn has_terminated_turns_true_exactly_on_terminate(
        seed in 0u64..1 << 48,
        rounds in 0u64..200,
    ) {
        for mut protocol in catalog() {
            prop_assert!(!protocol.has_terminated(), "{} starts terminated", protocol.name());
            for round in 1..=rounds {
                let decision = protocol.decide(&snapshot_from(seed, round));
                prop_assert_eq!(
                    protocol.has_terminated(),
                    decision == Decision::Terminate,
                    "{} decided {:?} at round {}",
                    protocol.name(),
                    decision,
                    round
                );
                if decision == Decision::Terminate {
                    break;
                }
            }
        }
    }
}

/// A same-variant copy goes through the concrete protocol's own
/// `clone_from`: the state lands in the probe's existing storage (the boxed
/// `LandmarkNoChirality` state stays where it was) rather than a new clone.
#[test]
fn every_catalog_protocol_supports_in_place_copies() {
    for (live, mut probe) in catalog().into_iter().zip(catalog()) {
        drive(&mut probe, 7, 30);
        let boxed_at = match &probe {
            CatalogProtocol::LandmarkNoChirality(state) => Some(std::ptr::from_ref(&**state)),
            _ => None,
        };
        probe.clone_from(&live);
        assert_eq!(format!("{probe:?}"), format!("{live:?}"), "{}", live.name());
        if let CatalogProtocol::LandmarkNoChirality(state) = &probe {
            assert_eq!(Some(std::ptr::from_ref(&**state)), boxed_at, "{}", live.name());
        }
    }
}
