//! System-level integration: the cycle-accurate streaming pipeline, the
//! snapshot counters and the RTL generator all agree with the
//! transaction-level unit they wrap.

use dsp_cam::cam::unit::UnitSnapshot;
use dsp_cam::prelude::*;
use dsp_cam::sim::Clocked;

fn case_study_config() -> UnitConfig {
    UnitConfig::builder()
        .data_width(32)
        .block_size(128)
        .num_blocks(16)
        .bus_width(512)
        .build()
        .expect("case-study config")
}

#[test]
fn streaming_pipeline_reproduces_transaction_results() {
    let config = case_study_config();
    let mut streaming = StreamingCam::new(config).unwrap();
    let mut reference = CamUnit::new(config).unwrap();

    let values: Vec<u64> = (0..48).map(|i| i * 13 + 5).collect();
    // Stream updates one beat at a time.
    for beat in values.chunks(16) {
        streaming
            .issue(Op::Update(beat.to_vec()))
            .expect("slot free");
        streaming.tick();
        reference.update(beat).unwrap();
    }
    streaming.drain();
    streaming.drain_retired();

    // Stream a mixed probe set and compare every retired result with the
    // transaction-level answer.
    let probes: Vec<u64> = (0..96).map(|i| i * 7 + 1).collect();
    for &p in &probes {
        streaming.issue(Op::Search(p)).expect("slot free");
        streaming.tick();
    }
    streaming.drain();
    let retired = streaming.drain_retired();
    assert_eq!(retired.len(), probes.len());
    for (&probe, (_, completion)) in probes.iter().zip(&retired) {
        match completion {
            Completion::Search(hit) => {
                let expect = reference.search(probe);
                assert_eq!(hit.is_match(), expect.is_match(), "probe {probe}");
                assert_eq!(hit.first_address(), expect.first_address(), "probe {probe}");
            }
            other => panic!("unexpected completion {other:?}"),
        }
    }
}

#[test]
fn phase_change_with_snapshot_accounting() {
    let mut cam = StreamingCam::new(case_study_config()).unwrap();
    // Phase 1: single group, bulk load of two beats.
    cam.issue(Op::Update((0..16).collect())).expect("slot");
    cam.drain();
    cam.issue(Op::Update((16..32).collect())).expect("slot");
    cam.drain();
    let snap1: UnitSnapshot = cam.unit().snapshot();
    assert_eq!(snap1.groups, 1);
    assert_eq!(snap1.entries, 32);

    // Phase 2: reconfigure to 8 groups (clears contents), reload, and use
    // the multi-query path through the wrapped unit.
    cam.unit_mut().configure_groups(8).unwrap();
    cam.issue(Op::Update(vec![100, 200])).expect("slot");
    cam.drain();
    cam.drain_retired();
    let hits = cam.unit_mut().search_multi(&[100, 200, 300]);
    assert!(hits[0].is_match());
    assert!(hits[1].is_match());
    assert!(!hits[2].is_match());

    let snap2 = cam.unit().snapshot();
    assert_eq!(snap2.groups, 8);
    assert_eq!(snap2.entries, 2);
    assert_eq!(snap2.capacity, 256, "2048 cells / 8 groups");
    assert!(snap2.fill_fraction() < snap1.fill_fraction());
    // Replication: 2 entries in each of 8 groups.
    assert_eq!(snap2.block_occupancy.iter().sum::<usize>(), 16);
}

#[test]
fn rtl_defines_match_the_behavioural_configuration() {
    let config = case_study_config();
    let unit = CamUnit::new(config).unwrap();
    let rtl = RtlBundle::generate(&config).unwrap();
    let defines = rtl.file("dsp_cam_defines.vh").unwrap();

    // Every number the RTL bakes in must agree with the simulated unit.
    assert!(defines.contains(&format!(
        "`define CAM_TOTAL_CELLS  {}",
        config.total_cells()
    )));
    assert!(defines.contains(&format!("`define CAM_NUM_BLOCKS   {}", config.num_blocks)));
    assert!(defines.contains(&format!(
        "`define CAM_BLOCK_SIZE   {}",
        config.block.block_size
    )));
    assert!(defines.contains(&format!(
        "`define CAM_ENCODER_BUF  {}",
        u8::from(config.block.encoder_buffer)
    )));
    // The encoder buffer flag is what sets the 8-cycle search latency.
    assert_eq!(config.search_latency(), 8);
    assert_eq!(unit.capacity(), 2048);
}

#[test]
fn delete_and_masked_update_through_the_streaming_wrapper() {
    let config = UnitConfig::builder()
        .kind(CamKind::Ternary)
        .data_width(16)
        .block_size(16)
        .num_blocks(2)
        .bus_width(64)
        .build()
        .unwrap();
    let mut cam = StreamingCam::new(config).unwrap();
    cam.unit_mut().update_masked(0xAB00, 0x00FF).unwrap();
    cam.issue(Op::Search(0xABCD)).expect("slot");
    cam.drain();
    let retired = cam.drain_retired();
    assert!(matches!(&retired[0].1,
        Completion::Search(hit) if hit.is_match()));

    assert!(cam.unit_mut().delete_first(0xAB11));
    cam.issue(Op::Search(0xABCD)).expect("slot");
    cam.drain();
    let retired = cam.drain_retired();
    assert!(matches!(&retired[0].1,
        Completion::Search(hit) if !hit.is_match()));
}
