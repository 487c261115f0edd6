//! Criterion microbenchmarks of the CAM hierarchy simulation: block and
//! unit update/search rates at several geometries, and the baseline CAM
//! implementations for comparison.

use criterion::{criterion_group, BenchmarkId, Criterion};
use dsp_cam_baselines::{Cam, DspCascadeCam, LutCam, LutramCam};
use dsp_cam_core::prelude::*;
use std::hint::black_box;

fn block_of(size: usize) -> CamBlock {
    let mut block =
        CamBlock::new(BlockConfig::standalone(CellConfig::binary(32), size, 512)).expect("valid");
    let words: Vec<u64> = (0..size as u64).collect();
    for chunk in words.chunks(16) {
        block.update(chunk).expect("fits");
    }
    block
}

fn bench_block_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("cam_block_search");
    for size in [32usize, 128, 512] {
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, &size| {
            let mut block = block_of(size);
            let mut key = 0u64;
            b.iter(|| {
                key = (key + 7) % size as u64;
                black_box(block.search(black_box(key)))
            });
        });
    }
    group.finish();
}

fn bench_unit_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("cam_unit");
    group.sample_size(20);
    for (blocks, m) in [(4usize, 1usize), (4, 4), (16, 16)] {
        let id = format!("search_{}blk_{}groups", blocks, m);
        group.bench_function(&id, |b| {
            let mut unit = CamUnit::new(
                UnitConfig::builder()
                    .data_width(32)
                    .block_size(128)
                    .num_blocks(blocks)
                    .build()
                    .expect("valid"),
            )
            .expect("constructible");
            unit.configure_groups(m).expect("divides");
            let words: Vec<u64> = (0..unit.capacity() as u64).collect();
            unit.update(&words).expect("fits");
            let keys: Vec<u64> = (0..m as u64).collect();
            b.iter(|| black_box(unit.search_multi(black_box(&keys))));
        });
    }
    group.bench_function("update_beat_16x32b", |b| {
        let mut unit = CamUnit::new(
            UnitConfig::builder()
                .data_width(32)
                .block_size(128)
                .num_blocks(4)
                .build()
                .expect("valid"),
        )
        .expect("constructible");
        let words: Vec<u64> = (0..16).collect();
        b.iter(|| {
            unit.reset();
            unit.update(black_box(&words)).expect("fits");
        });
    });
    group.finish();
}

fn bench_fidelity_tiers(c: &mut Criterion) {
    let mut group = c.benchmark_group("cam_unit_search_tier");
    group.sample_size(10);
    for (label, fidelity) in [
        ("bit_accurate", FidelityMode::BitAccurate),
        ("turbo", FidelityMode::Turbo),
    ] {
        for entries in [512usize, 2048] {
            let id = format!("{label}_{entries}");
            group.bench_function(&id, |b| {
                let mut unit = CamUnit::new(
                    UnitConfig::builder()
                        .data_width(32)
                        .block_size(256)
                        .num_blocks(entries / 256)
                        .bus_width(512)
                        .fidelity(fidelity)
                        .build()
                        .expect("valid"),
                )
                .expect("constructible");
                let words: Vec<u64> = (0..entries as u64).collect();
                unit.update(&words).expect("fits");
                let mut key = 0u64;
                b.iter(|| {
                    key = (key + 7) % (2 * entries as u64);
                    black_box(unit.search(black_box(key)))
                });
            });
        }
    }
    group.finish();
}

fn bench_baseline_cams(c: &mut Criterion) {
    let mut group = c.benchmark_group("baseline_cam_search");
    let entries = 1024usize;
    let fill = |cam: &mut dyn Cam| {
        for v in 0..entries as u64 {
            cam.insert(v).expect("fits");
        }
    };
    group.bench_function("lut_register", |b| {
        let mut cam = LutCam::new(entries, 32);
        fill(&mut cam);
        b.iter(|| black_box(cam.search(black_box(777))));
    });
    group.bench_function("lutram_transposed", |b| {
        let mut cam = LutramCam::new(entries, 32);
        fill(&mut cam);
        b.iter(|| black_box(cam.search(black_box(777))));
    });
    group.bench_function("dsp_cascade", |b| {
        let mut cam = DspCascadeCam::new(entries, 32);
        fill(&mut cam);
        b.iter(|| black_box(cam.search(black_box(777))));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_block_search,
    bench_unit_ops,
    bench_fidelity_tiers,
    bench_baseline_cams
);

fn main() {
    benches();
    // Machine-readable per-tier rates, tracked across PRs.
    dsp_cam_bench::search_rates::emit_bench_search_json("micro_cam_ops");
}
