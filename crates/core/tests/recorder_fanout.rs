//! The fan-out recorder `(A, B)` on real runs: each half ends with
//! exactly what it records alone on the same run, even when its sibling
//! makes the engine deliver events the half alone would have declined,
//! and recording into a pair never changes the report.

use gms_core::{
    ClusterReport, ClusterSim, FaultPlan, FetchPolicy, MemoryConfig, ReplicationConfig, SimConfig,
};
use gms_mem::SubpageSize;
use gms_obs::{Event, FlightRecorder, HeatMap, MemoryRecorder, Recorder};
use gms_trace::apps;
use gms_units::Duration;

/// A serial adaptive run (prefetch and policy-decision events) and a
/// replicated five-node cluster under loss, an idle-node crash and a
/// degraded link (retries, failovers, repairs).
fn cases() -> Vec<(SimConfig, usize)> {
    let serial = SimConfig::builder()
        .policy(FetchPolicy::leap(SubpageSize::S1K))
        .memory(MemoryConfig::Half)
        .build();
    let horizon = serial.exec_time(apps::gdb().scaled(0.1).target_refs());
    let plan = FaultPlan::parse(
        "loss=0.02,crash=n3@25%,degrade=n4@10%..50%x4,seed=9",
        Some(horizon),
    )
    .expect("valid plan");
    let cluster = SimConfig::builder()
        .policy(FetchPolicy::eager(SubpageSize::S1K))
        .memory(MemoryConfig::Half)
        .cluster_nodes(5)
        .replication(ReplicationConfig {
            replicas: 2,
            ..ReplicationConfig::default()
        })
        .fault_plan(plan)
        .build();
    vec![(serial, 1), (cluster, 2)]
}

fn run<R: Recorder>(config: &SimConfig, active: usize, rec: &mut R) -> ClusterReport {
    let apps = vec![apps::gdb().scaled(0.1); active];
    ClusterSim::new(config.clone()).run_recorded(&apps, rec)
}

fn flight() -> FlightRecorder {
    FlightRecorder::new(3).with_window(Duration::from_millis(5))
}

/// Everything a flight recorder reports.
fn view(f: &FlightRecorder) -> (u64, usize, Vec<Event>) {
    (f.dropped(), f.retained(), f.exemplar_events())
}

#[test]
fn memory_and_heat_halves_match_their_solo_runs() {
    for (config, active) in cases() {
        let mut memory = MemoryRecorder::new();
        let solo_report = run(&config, active, &mut memory);
        // Alone, the heat map declines background occupancies.
        let mut heat = HeatMap::new().with_region_pages(16);
        assert_eq!(run(&config, active, &mut heat), solo_report);

        let mut pair = (MemoryRecorder::new(), HeatMap::new().with_region_pages(16));
        assert_eq!(run(&config, active, &mut pair), solo_report);
        assert_eq!(pair.0.into_events(), memory.into_events());
        assert_eq!(pair.1, heat);
    }
}

#[test]
fn flight_and_memory_halves_match_their_solo_runs() {
    for (config, active) in cases() {
        let mut memory = MemoryRecorder::new();
        let solo_report = run(&config, active, &mut memory);
        // Alone, the flight recorder declines background occupancies
        // and the last occupancies of windows it will drop.
        let mut solo = flight();
        assert_eq!(run(&config, active, &mut solo), solo_report);

        let mut pair = (flight(), MemoryRecorder::new());
        assert_eq!(run(&config, active, &mut pair), solo_report);
        assert_eq!(view(&pair.0), view(&solo));
        assert_eq!(pair.1.into_events(), memory.into_events());
    }
}

#[test]
fn absent_halves_record_nothing_and_change_nothing() {
    for (config, active) in cases() {
        let mut heat = HeatMap::new();
        let solo_report = run(&config, active, &mut heat);
        let mut pair: (Option<MemoryRecorder>, Option<HeatMap>) = (None, Some(HeatMap::new()));
        assert_eq!(run(&config, active, &mut pair), solo_report);
        assert_eq!(pair.1.as_ref(), Some(&heat));
        assert!(pair.0.is_none());
    }
}
