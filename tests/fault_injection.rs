//! PR 9 — deterministic fault injection and graceful degradation.
//!
//! Three properties are pinned here:
//!
//! 1. **Faults off is free.** An empty [`FaultPlan`] and a disabled
//!    [`DegradationConfig`] must leave every golden-legacy mission
//!    bit-identical to the default configuration — the injector compiles to
//!    `None` and every degradation hook takes the historical branch verbatim.
//! 2. **Fault traces are schedule-independent.** With a seeded fault plan the
//!    reliability-sweep aggregates (and the per-class breakdown) hash to the
//!    same SHA-256 digest at 1, 2, 4 and 8 worker threads: every injector
//!    draw is a pure function of `(seed, site, counter)`, never of worker
//!    identity or wall-clock interleaving.
//! 3. **Degradation pays for itself.** Partial-trajectory splicing recovers
//!    from injected planner timeouts in less mission time than discarding
//!    the whole plan, on a pinned ensemble of replanning-heavy scenarios.

use mav_compute::{ApplicationId, CloudConfig};
use mav_core::experiments::quick_config;
use mav_core::reliability::reliability_sweep_classified_observed;
use mav_core::{
    run_mission, DegradationConfig, FaultPlan, MissionConfig, MissionReport, ReplanMode,
    ResolutionPolicy, ScenarioGenerator, SweepRunner,
};
use mav_types::{sha256_hex, ToJson};

/// The eight mission configurations pinned by `tests/golden_legacy.rs`, in
/// the same order. Kept in sync by hand: if golden_legacy gains a fixture,
/// add it here so the faults-off invariance covers it too.
fn golden_configs() -> Vec<(&'static str, MissionConfig)> {
    let mut scanning = MissionConfig::fast_test(ApplicationId::Scanning).with_seed(3);
    scanning.environment.extent = 30.0;
    let mut delivery = MissionConfig::fast_test(ApplicationId::PackageDelivery).with_seed(9);
    delivery.environment.extent = 30.0;
    delivery.environment.obstacle_density = 1.0;
    let mut mapping = MissionConfig::fast_test(ApplicationId::Mapping3D).with_seed(4);
    mapping.environment.extent = 25.0;
    let mut sar = MissionConfig::fast_test(ApplicationId::SearchAndRescue).with_seed(6);
    sar.environment.extent = 25.0;
    sar.environment.people = 6;
    let mut photo = MissionConfig::fast_test(ApplicationId::AerialPhotography).with_seed(8);
    photo.environment.extent = 40.0;
    photo.environment.obstacle_density = 0.2;
    photo.time_budget_secs = 60.0;
    let mut dynres = MissionConfig::fast_test(ApplicationId::PackageDelivery)
        .with_seed(13)
        .with_resolution_policy(ResolutionPolicy::dynamic_default());
    dynres.environment.extent = 30.0;
    dynres.environment.obstacle_density = 1.0;
    let mut cloud = MissionConfig::fast_test(ApplicationId::Mapping3D)
        .with_seed(4)
        .with_cloud(CloudConfig::planning_offload());
    cloud.environment.extent = 25.0;
    let mut noise = MissionConfig::fast_test(ApplicationId::PackageDelivery)
        .with_seed(1000)
        .with_depth_noise(1.0);
    noise.environment.extent = 30.0;
    noise.environment.obstacle_density = 1.0;
    vec![
        ("scanning seed 3", scanning),
        ("package delivery seed 9", delivery),
        ("mapping seed 4", mapping),
        ("search and rescue seed 6", sar),
        ("aerial photography seed 8", photo),
        ("delivery dynamic resolution seed 13", dynres),
        ("mapping cloud offload seed 4", cloud),
        ("delivery noise 1.0 seed 1000", noise),
    ]
}

fn assert_reports_bit_identical(label: &str, baseline: &MissionReport, probed: &MissionReport) {
    let metrics = [
        (
            "mission_time_secs",
            baseline.mission_time_secs,
            probed.mission_time_secs,
        ),
        (
            "hover_time_secs",
            baseline.hover_time_secs,
            probed.hover_time_secs,
        ),
        ("distance_m", baseline.distance_m, probed.distance_m),
        ("velocity_cap", baseline.velocity_cap, probed.velocity_cap),
        (
            "total_energy_j",
            baseline.total_energy.as_joules(),
            probed.total_energy.as_joules(),
        ),
        (
            "battery_remaining_pct",
            baseline.battery_remaining_pct,
            probed.battery_remaining_pct,
        ),
        (
            "mapped_volume",
            baseline.mapped_volume,
            probed.mapped_volume,
        ),
        (
            "tracking_error",
            baseline.tracking_error,
            probed.tracking_error,
        ),
    ];
    for (metric, want, got) in metrics {
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{label}: {metric} drifted with an empty fault plan (got {got}, want {want})"
        );
    }
    assert_eq!(
        baseline, probed,
        "{label}: report drifted with an empty fault plan"
    );
}

/// Property 1: an explicitly-empty fault plan plus disabled degradation is
/// structurally the same mission as the default configuration, bit for bit,
/// for every fixture golden_legacy pins — and no degraded summary appears.
#[test]
fn empty_fault_plan_leaves_every_golden_mission_bit_identical() {
    for (label, config) in golden_configs() {
        let baseline = run_mission(config.clone());
        let probed = run_mission(
            config
                .with_fault_plan(FaultPlan::none())
                .with_degradation(DegradationConfig::off()),
        );
        assert!(
            baseline.degraded.is_none() && probed.degraded.is_none(),
            "{label}: faults-off mission must not emit a degraded summary"
        );
        assert_reports_bit_identical(label, &baseline, &probed);
    }
}

/// Property 2: with a seeded fault plan, the sweep aggregates and the
/// per-class breakdown are SHA-256-identical at every worker-thread count.
#[test]
fn seeded_fault_sweep_hashes_identically_across_threads() {
    let plan = FaultPlan::parse(
        "cam-drop=0.2@3,noise-burst=0.25,kernel-spike=0.2@3,plan-timeout=2x,\
         topic-drop=0.05,battery-fade=0.2",
    )
    .expect("fault plan parses");
    let generator = ScenarioGenerator::new(ApplicationId::PackageDelivery, 77)
        .with_fault_plans(vec![FaultPlan::none(), plan.scaled(0.5), plan])
        .with_degradation(DegradationConfig::defensive());
    let mut digests = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let runner = SweepRunner::new().with_threads(threads);
        let (stats, classes) =
            reliability_sweep_classified_observed(&runner, &generator, 64, 16, &|_| {});
        let mut fingerprint = stats.to_json().to_string_compact();
        for (class, class_stats) in &classes {
            fingerprint.push_str(class);
            fingerprint.push_str(&class_stats.to_json().to_string_compact());
        }
        digests.push((threads, sha256_hex(fingerprint.as_bytes())));
    }
    let (_, reference) = digests[0].clone();
    for (threads, digest) in &digests {
        assert_eq!(
            digest, &reference,
            "fault-sweep aggregate digest diverged at {threads} threads"
        );
    }
    // The digest must also fingerprint a sweep that actually injected faults:
    // the cohort labels prove all three fault plans were exercised.
    let (_, classes) = reliability_sweep_classified_observed(
        &SweepRunner::new().with_threads(2),
        &generator,
        64,
        16,
        &|_| {},
    );
    let labels: Vec<&str> = classes.keys().map(|k| k.as_str()).collect();
    assert!(
        labels.iter().any(|l| l.ends_with("+faults:none")),
        "expected a fault-free cohort, got {labels:?}"
    );
    assert!(
        labels.iter().any(|l| l.contains("cam-drop")),
        "expected a faulted cohort, got {labels:?}"
    );
}

/// Injected faults must actually perturb the mission — otherwise property 1
/// would hold vacuously.
#[test]
fn injected_faults_perturb_the_mission() {
    let (_, config) = golden_configs().remove(1);
    let baseline = run_mission(config.clone());
    let faulted = run_mission(
        config.with_fault_plan(
            FaultPlan::parse("cam-drop=0.5@4,kernel-spike=0.5@4,battery-fade=0.3")
                .expect("fault plan parses"),
        ),
    );
    assert_ne!(
        baseline, faulted,
        "a heavy fault plan left the mission untouched — injector hooks are dead"
    );
}

/// Property 3 (satellite: partial-trajectory splicing): with the planner
/// stretched 3× by an injected plan-timeout fault, grafting the fresh
/// segment onto the still-valid prefix of the stale plan recovers in less
/// total mission time than replacing the whole trajectory. Direction-tested
/// over a pinned replanning-heavy ensemble (the `replan_scenario` shape at
/// thirty seeds) so one lucky seed can't decide it.
#[test]
fn plan_splicing_shortens_recovery_under_planner_timeouts() {
    let plan = FaultPlan::parse("plan-timeout=3x").expect("fault plan parses");
    let policy = DegradationConfig::off()
        .with_watchdog()
        .with_plan_timeout(1.0);
    let mission = |seed: u64, splice: bool| -> MissionReport {
        let mut cfg = quick_config(MissionConfig::new(ApplicationId::PackageDelivery))
            .with_seed(seed)
            .with_replan_mode(ReplanMode::PlanInMotion)
            .with_fault_plan(plan);
        cfg.environment.extent = 70.0;
        cfg.environment.obstacle_density = 3.0;
        let degradation = if splice {
            policy.with_plan_splicing()
        } else {
            policy
        };
        run_mission(cfg.with_degradation(degradation))
    };
    let mut discard_total = 0.0;
    let mut splice_total = 0.0;
    for seed in 1u64..=30 {
        discard_total += mission(seed, false).mission_time_secs;
        splice_total += mission(seed, true).mission_time_secs;
    }
    assert!(
        splice_total < discard_total,
        "plan splicing should shorten recovery under planner timeouts: \
         spliced ensemble {splice_total:.2} s vs discard {discard_total:.2} s"
    );
}
