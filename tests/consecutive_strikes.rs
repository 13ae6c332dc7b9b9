//! `QuarantineConfig::strikes` counts *consecutive* faults: a stream that
//! fails, then offers a complete closure again, starts over. Every
//! execution mode forgives the same way because every mode runs the same
//! round engine (DESIGN.md D16 rule 3).

use pg_pipeline::concurrent::ConcurrentConfig;
use pg_pipeline::gate::DecodeAll;
use pg_pipeline::{
    ConcurrentPipeline, DecodeWorkModel, FaultPlan, QuarantineConfig, RoundSimulator, SimConfig,
};
use pg_scene::TaskKind;

#[test]
fn two_decoder_stalls_twenty_rounds_apart_do_not_quarantine() {
    let quarantine = QuarantineConfig::new(8, 2);
    let plan = FaultPlan::new(7)
        .with_decoder_stall(0, 5)
        .with_decoder_stall(0, 25);
    let unlimited = SimConfig {
        budget_per_round: 1e9,
        ..SimConfig::default()
    };

    let lockstep = RoundSimulator::uniform(TaskKind::PersonCounting, 4, 3, unlimited)
        .with_faults(plan.clone())
        .with_quarantine(quarantine)
        .run(&mut DecodeAll, 40);
    assert_eq!(lockstep.faults.len(), 2, "{:?}", lockstep.faults);
    assert_eq!(lockstep.health.streams_ever_quarantined, 0);

    let threaded = ConcurrentPipeline::new(ConcurrentConfig {
        streams: 4,
        rounds: 40,
        budget_per_round: 1e9,
        work: DecodeWorkModel::spin(100),
        quarantine,
        faults: plan,
        ..ConcurrentConfig::default()
    })
    .run(&mut DecodeAll);
    assert_eq!(threaded.faults.len(), 2, "{:?}", threaded.faults);
    assert_eq!(threaded.health.streams_ever_quarantined, 0);
}
