//! Criterion microbenchmarks of the cycle-accurate streaming pipeline —
//! host-side simulation rates for issuing searches and for idle ticks.

use criterion::{criterion_group, criterion_main, Criterion};
use dsp_cam_core::prelude::*;
use dsp_cam_sim::Clocked;
use std::hint::black_box;

fn bench_streaming(c: &mut Criterion) {
    let mut group = c.benchmark_group("streaming_cam");
    group.bench_function("search_issue_tick", |b| {
        let config = UnitConfig::builder()
            .data_width(32)
            .block_size(128)
            .num_blocks(4)
            .build()
            .expect("valid");
        let mut cam = StreamingCam::new(config).expect("constructible");
        cam.issue(Op::Update(vec![42])).expect("slot");
        cam.drain();
        cam.drain_retired();
        let mut key = 0u64;
        b.iter(|| {
            key = (key + 1) % 100;
            cam.issue(Op::Search(black_box(key))).expect("slot");
            cam.tick();
            black_box(cam.drain_retired())
        });
    });
    group.bench_function("idle_tick", |b| {
        let config = UnitConfig::builder()
            .data_width(32)
            .block_size(128)
            .num_blocks(4)
            .build()
            .expect("valid");
        let mut cam = StreamingCam::new(config).expect("constructible");
        b.iter(|| {
            cam.tick();
            black_box(cam.cycle())
        });
    });
    group.finish();
}

criterion_group!(benches, bench_streaming);
criterion_main!(benches);
