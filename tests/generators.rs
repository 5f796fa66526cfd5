//! Goldens and invariants of the two syzlang-logging generators, through
//! the public API only.
//!
//! `fixtures/fuzzer_1_20_12.syz` is the log of `SyzFuzzerSim::new(1, 20,
//! 12)` on a default `TestEnv`: 20 programs, 170 calls. It was cut from
//! the build before the fuzzer, the feedback campaign and the errno
//! probes shared one logged executor, so it pins that their logs did not
//! move.

use std::path::Path;

use iocov::AnalysisReport;
use iocov_workloads::profile::xfstests_profile;
use iocov_workloads::{campaign_config, CampaignConfig, FeedbackCampaign, SyzFuzzerSim, TestEnv};

#[test]
fn fuzzer_log_matches_its_golden() {
    let golden = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/fuzzer_1_20_12.syz"),
    )
    .expect("fuzzer golden");
    let env = TestEnv::new();
    let log = SyzFuzzerSim::new(1, 20, 12).run(&env);
    assert_eq!(log, golden, "fixtures/fuzzer_1_20_12.syz");
    // One log line per traced call.
    let calls = log.lines().filter(|l| !l.starts_with('#')).count();
    assert_eq!(calls, 170);
    assert_eq!(env.take_trace().len(), calls);
}

#[test]
fn every_staged_probe_of_a_campaign_hits() {
    let env = TestEnv::new().with_config(campaign_config());
    let config = CampaignConfig {
        seed: 42,
        max_rounds: 3,
        ..CampaignConfig::default()
    };
    let outcome =
        FeedbackCampaign::new(xfstests_profile(), config).run(&env, &AnalysisReport::default());
    assert_eq!(outcome.rounds.len(), 3);
    for r in &outcome.rounds {
        assert!(r.probes_staged > 0, "round {} staged no probe", r.round);
        assert_eq!(
            r.probes_hit, r.probes_staged,
            "round {}: {}/{} probes hit",
            r.round, r.probes_hit, r.probes_staged
        );
    }
}
