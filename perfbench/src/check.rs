//! The correctness gate every run passes: the canonical stats
//! fingerprint against the workload's recorded reference, packet
//! conservation checked from outside the world, and the workload's own
//! expectations (traffic moved, the adaptive fleet switched).

use campaign::{CellResult, Protocol};
use netsim::WorldStats;

use crate::workload::{Outcome, Scale, Spec, Workload};

/// Recorded fingerprint digests, one `workload seed digest` line each.
/// Regenerate with `perfbench --record <first-seed> <last-seed>` after a
/// change that deliberately alters simulated behaviour.
const REFERENCES: &str = include_str!("../references.txt");

/// The deterministic fingerprint of a run: the campaign engine's cell
/// fingerprint of the measured window (everything except wall-clock).
pub fn fingerprint(spec: &Spec, stats: &WorldStats) -> String {
    CellResult {
        index: 0,
        protocol: spec.protocol.name(),
        scenario: spec.workload.name().to_string(),
        traffic: "scenario".to_string(),
        phy: spec.phy.label(),
        fault: spec.fault.label(),
        seed: spec.seed,
        stats: stats.clone(),
        dispatch_micros: 0,
    }
    .fingerprint()
}

/// FNV-1a over the fingerprint: the digest the reference file stores.
pub fn digest(fingerprint: &str) -> u64 {
    fingerprint.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The recorded digest for `workload` at `seed`, if one was recorded.
pub fn reference(workload: Workload, seed: u64) -> Option<u64> {
    REFERENCES.lines().find_map(|line| {
        let mut fields = line.split_whitespace();
        let (name, s, d) = (fields.next()?, fields.next()?, fields.next()?);
        (name == workload.name() && s.parse() == Ok(seed))
            .then(|| u64::from_str_radix(d, 16).ok())
            .flatten()
    })
}

/// Packet conservation: every datagram sent in the window was delivered,
/// dropped for a counted reason, corrupted, or is still in flight.
pub fn conservation(stats: &WorldStats, outstanding: usize) -> Result<(), String> {
    let settled = stats.data_delivered
        + stats.data_dropped_ttl
        + stats.data_dropped_link
        + stats.data_dropped_buffer
        + stats.data_dropped_crash
        + stats.data_corrupted;
    if stats.data_sent == settled + outstanding as u64 {
        Ok(())
    } else {
        Err(format!(
            "conservation: sent {} != settled {settled} + in flight {outstanding}",
            stats.data_sent
        ))
    }
}

/// The workload's own expectations of a healthy run.
fn expectations(spec: &Spec, outcome: &Outcome) -> Result<(), String> {
    let s = &outcome.stats;
    if s.data_sent == 0 || s.data_delivered == 0 {
        return Err(format!(
            "no traffic moved (sent {}, delivered {})",
            s.data_sent, s.data_delivered
        ));
    }
    match spec.protocol {
        Protocol::Geo if s.control_frames != 0 => Err(format!(
            "agentless run sent {} control frames",
            s.control_frames
        )),
        Protocol::MkitOlsr if outcome.totals.agent_counter("tc_processed") == 0 => {
            Err("OLSR processed no TC".to_string())
        }
        Protocol::Adaptive
            if outcome.switches == 0 || outcome.final_stack.is_none_or(|s| !s.is_reactive()) =>
        {
            Err(format!(
                "the fleet never switched to a reactive stack ({} switches, ended on {:?})",
                outcome.switches, outcome.final_stack
            ))
        }
        _ => Ok(()),
    }
}

/// Checks one run; `Ok` carries its fingerprint digest.
pub fn check(spec: &Spec, outcome: &Outcome) -> Result<u64, String> {
    let recorded = match spec.scale {
        Scale::Full => reference(spec.workload, spec.seed),
        Scale::Small => None,
    };
    check_against(spec, outcome, recorded)
}

/// Checks one run against `recorded`, a reference digest if any; `Ok`
/// carries its fingerprint digest.
pub fn check_against(spec: &Spec, outcome: &Outcome, recorded: Option<u64>) -> Result<u64, String> {
    conservation(&outcome.stats, outcome.outstanding)?;
    expectations(spec, outcome)?;
    let got = digest(&fingerprint(spec, &outcome.stats));
    match recorded {
        Some(want) if want != got => Err(format!(
            "fingerprint {got:016x} differs from the recorded {want:016x}"
        )),
        _ => Ok(got),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{timed_run, Scale};

    #[test]
    fn every_workload_passes_and_its_fingerprint_survives_a_double_run() {
        for workload in Workload::ALL {
            let spec = workload.spec(3, Scale::Small);
            let (first, _) = timed_run(&spec);
            let (second, _) = timed_run(&spec);
            let a = check(&spec, &first).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
            let b = check(&spec, &second).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
            assert_eq!(
                a,
                b,
                "{}: fingerprint changed between runs",
                workload.name()
            );
        }
    }

    #[test]
    fn conservation_fails_on_a_corrupted_snapshot() {
        let spec = Workload::PhyContended.spec(3, Scale::Small);
        let (outcome, _) = timed_run(&spec);
        assert!(conservation(&outcome.stats, outcome.outstanding).is_ok());

        let mut lost = outcome.stats.clone();
        lost.data_dropped_buffer -= 1;
        assert!(conservation(&lost, outcome.outstanding).is_err());

        let mut invented = outcome.stats.clone();
        invented.data_delivered += 1;
        assert!(conservation(&invented, outcome.outstanding).is_err());

        let mut corrupted = outcome.clone();
        corrupted.stats.data_sent += 1;
        assert!(check(&spec, &corrupted).is_err());
    }

    #[test]
    fn a_recorded_reference_is_enforced() {
        let spec = Workload::GeoCity.spec(3, Scale::Small);
        let (mut outcome, _) = timed_run(&spec);
        let digest = check(&spec, &outcome).expect("a healthy run");
        assert_eq!(check_against(&spec, &outcome, Some(digest)), Ok(digest));
        // One changed latency sample changes the fingerprint.
        outcome.stats.delivery_latencies_us[0] += 1;
        assert!(check_against(&spec, &outcome, Some(digest)).is_err());
    }

    #[test]
    fn the_reference_file_names_known_workloads_only() {
        for line in REFERENCES.lines() {
            let fields: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(fields.len(), 3, "malformed reference line {line:?}");
            let workload = Workload::parse(fields[0]).expect("a known workload");
            let seed: u64 = fields[1].parse().expect("a seed");
            assert!(reference(workload, seed).is_some());
        }
    }
}
