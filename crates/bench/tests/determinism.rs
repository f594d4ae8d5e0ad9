//! Sweep determinism: the scenario engine must produce artifacts that are
//! byte-identical regardless of worker count, and a scenario-built run must
//! bit-match the same configuration assembled by hand (the legacy direct
//! `RunConfig` path the benches used before the registry existed).

use churn::gnutella::GnutellaParams;
use harness::scenario::{base_config, Scale, MIN};
use harness::{run, run_json, run_sweep, sweep_csv, sweep_json, SweepConfig};
use topology::TopologyKind;

/// A hand-assembled copy of the `smoke` scenario's only point at seed index
/// 0 — the recipe every bench used to spell out inline.
fn legacy_smoke_config() -> harness::RunConfig {
    let trace = churn::gnutella::trace(&GnutellaParams {
        population_scale: 0.03,
        duration_us: 30 * MIN,
        seed: 101,
    });
    let mut cfg = base_config(Scale::Quick, trace);
    cfg.topology = TopologyKind::GaTechSmall;
    // Seed index 0 leaves the run seed at its base value.
    cfg
}

#[test]
fn scenario_run_bit_matches_the_legacy_direct_path() {
    let registry = bench::scenarios();
    let points = registry
        .get("smoke")
        .expect("registered scenario")
        .expand(Scale::Quick);
    let from_scenario = run((points[0].build)(0));
    let from_legacy = run(legacy_smoke_config());
    assert_eq!(run_json(&from_scenario), run_json(&from_legacy));
}

/// `smoke` has the standard metrics only; `exp_replication` adds
/// figure-specific metrics computed from each run's delivery log.
#[test]
fn sweep_artifacts_are_byte_identical_across_worker_counts() {
    let registry = bench::scenarios();
    for name in ["smoke", "exp_replication"] {
        let scenario = registry.get(name).expect("registered scenario");
        let mut cfg = SweepConfig::new(Scale::Quick);
        cfg.seeds = 2;
        cfg.jobs = 1;
        let serial = run_sweep(scenario, &cfg);
        cfg.jobs = 3;
        let parallel = run_sweep(scenario, &cfg);
        let json = sweep_json(&serial);
        assert_eq!(json, sweep_json(&parallel), "{name}");
        assert_eq!(sweep_csv(&serial), sweep_csv(&parallel), "{name}");
        assert!(json.contains("\"windows\":[[{\"start_us\":"), "{name}");
        if name == "exp_replication" {
            assert!(json.contains("\"k1_hit_rate\":{\"mean\":"));
        }
    }
}
