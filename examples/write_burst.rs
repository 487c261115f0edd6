//! Write-burst drill: a fixed-seed, write-heavy session against the
//! CAM-fronted update queue, end to end through the streaming pipeline.
//!
//! The drill demonstrates the update queue's three roles on the
//! cycle-accurate [`StreamingCam`] wrapper:
//!
//! 1. **capture** — a burst of single-word updates issues at initiation
//!    interval 1; every insert is absorbed into the bounded staging
//!    buffer in O(1) instead of paying the replicated-group write;
//! 2. **match** — searches stay read-your-writes-consistent: probing an
//!    in-flight key flushes the overlap first, staged tombstones shadow
//!    their physical entries, and untouched keys never disturb the
//!    buffer;
//! 3. **drain** — idle pipeline cycles retire staged ops toward the
//!    main unit within the configured per-tick budget until the buffer
//!    reaches quiescence, and the shadow audit proves the drained state
//!    coherent.
//!
//! With `--features obs` the drill also publishes the `unit/wbuf`
//! counters and cross-checks them against the architectural report.
//!
//! Run with: `cargo run --example write_burst` (optionally `--features obs`)

use dsp_cam::prelude::*;
use dsp_cam_sim::Clocked;

const SEED: u64 = 0x57A6_ED01;
const BURST: usize = 48;

/// Deterministic xorshift64 key stream, far above the prefill range so
/// burst keys never collide with the resident table.
struct KeyStream(u64);

impl KeyStream {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (1 << 30) + (self.0 % (1 << 20))
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = UnitConfig::builder()
        .data_width(32)
        .block_size(64)
        .num_blocks(8)
        .bus_width(512)
        .fidelity(FidelityMode::Turbo)
        .write_buffer(WriteBufferConfig {
            capacity: 64,
            drain_per_tick: 4,
            bypass: false,
        })
        .build()?;
    let mut cam = StreamingCam::new(config)?;
    #[cfg(feature = "obs")]
    let sink = std::sync::Arc::new(dsp_cam_obs::ObsSink::with_trace_capacity(1 << 12));
    #[cfg(feature = "obs")]
    cam.attach_observer(&sink);

    // Prefill the resident table, then drain so the burst starts from a
    // quiescent buffer.
    let resident: Vec<u64> = (0..96).map(|i| i * 3).collect();
    cam.issue_batch(resident.chunks(8).map(|c| Op::Update(c.to_vec())));
    cam.drain();
    cam.unit_mut().flush_write_buffer();
    println!(
        "resident table loaded: {} entries, buffer quiescent (depth {})",
        cam.unit().len(),
        cam.buffer_depth()
    );

    // ---- capture: absorb a back-to-back write burst at II = 1 ---------
    let mut keys = KeyStream(SEED);
    let burst: Vec<u64> = (0..BURST).map(|_| keys.next()).collect();
    cam.issue_batch(burst.iter().map(|&k| Op::Update(vec![k])));
    println!(
        "burst absorbed: {} single-word updates staged at II=1, buffer depth {}",
        BURST,
        cam.buffer_depth()
    );
    assert_eq!(
        cam.buffer_depth(),
        BURST,
        "every busy cycle staged, none drained"
    );

    // ---- drain: idle cycles retire the backlog within budget ----------
    let mut idle_ticks = 0u64;
    while cam.buffer_depth() > 0 {
        cam.tick();
        idle_ticks += 1;
        assert!(idle_ticks <= 4096, "drain must converge");
    }
    println!("quiescence after {idle_ticks} idle ticks (4 staged ops retired per tick)");
    assert_eq!(
        idle_ticks,
        (BURST as u64).div_ceil(4),
        "drain honours its budget"
    );

    // ---- match: staged keys are read-your-writes-consistent -----------
    let tail: Vec<u64> = (0..8).map(|_| keys.next()).collect();
    cam.issue_batch(tail.iter().map(|&k| Op::Update(vec![k])));
    let staged_before = cam.buffer_depth();
    cam.issue(Op::Search(tail[3])).expect("free slot");
    cam.drain();
    let mut retired = Vec::new();
    cam.drain_retired(&mut retired);
    let Some((_, Completion::Search(hit))) = retired.last() else {
        unreachable!("search retires last");
    };
    assert!(hit.is_match(), "in-flight key must be visible to search");
    let flushes = cam.unit().write_buffer_report().search_flushes;
    println!(
        "in-flight key {:#x} searched at depth {}: match at {:?}, \
         read-your-writes via {} overlap flush(es)",
        tail[3],
        staged_before,
        hit.first_address(),
        flushes
    );
    assert!(flushes >= 1, "touched-key search must flush the overlap");

    // A tombstone shadows its physical entry until the drain retires it.
    assert!(
        cam.unit_mut().delete_first(burst[7]),
        "resident key deletes"
    );
    let staged = cam.buffer_depth();
    assert!(
        !cam.unit_mut().search(burst[7]).is_match(),
        "staged tombstone must shadow the physical entry"
    );
    println!(
        "tombstone staged for {:#x} (depth {staged}): search misses",
        burst[7]
    );

    // An untouched resident key never disturbs the staging buffer.
    cam.issue(Op::Update(vec![(1 << 29) + 1]))
        .expect("free slot");
    cam.tick();
    let staged = cam.buffer_depth();
    assert!(
        cam.unit_mut().search(15).is_match(),
        "resident key 5*3 hits"
    );
    assert_eq!(
        cam.buffer_depth(),
        staged,
        "untouched-key search must not flush"
    );
    println!("untouched resident key searched: buffer left alone at depth {staged}");

    cam.drain();
    cam.unit_mut().flush_write_buffer();
    assert_eq!(cam.audit_shadows(), 0, "drained state must stay coherent");

    let report = cam.unit().write_buffer_report();
    println!(
        "write-buffer report: absorbed {} updates ({} words) + {} deletes, drained {} ops \
         ({} words), {} overflows, {} search flushes",
        report.absorbed_updates,
        report.absorbed_words,
        report.absorbed_deletes,
        report.drained_ops,
        report.drained_words,
        report.overflows,
        report.search_flushes,
    );
    assert_eq!(report.depth, 0, "report agrees the buffer is quiescent");
    assert!(
        report.absorbed_updates >= BURST as u64,
        "the burst was absorbed, not applied inline"
    );

    // The drained table answers exactly like the burst demanded: every
    // burst key present except the tombstoned one.
    let results = cam.unit_mut().search_stream(&burst);
    let missing: Vec<u64> = burst
        .iter()
        .zip(&results)
        .filter(|(_, r)| !r.is_match())
        .map(|(&k, _)| k)
        .collect();
    assert!(
        missing.iter().all(|&k| k == burst[7]),
        "only the deleted key may miss, got {missing:?}"
    );
    println!(
        "post-drain sweep: {}/{} burst keys resident, deleted key absent",
        results.iter().filter(|r| r.is_match()).count(),
        BURST
    );

    #[cfg(feature = "obs")]
    {
        cam.unit().publish_metrics();
        let snap = sink.snapshot();
        for name in [
            "absorbed_updates",
            "absorbed_deletes",
            "drained_ops",
            "search_flushes",
        ] {
            println!(
                "  obs unit/wbuf/{name} = {}",
                snap.registry.counter("unit/wbuf", name)
            );
        }
        assert_eq!(
            snap.registry.counter("unit/wbuf", "drained_ops"),
            report.drained_ops,
            "published counters mirror the architectural report"
        );
    }

    println!("write-burst drill complete.");
    Ok(())
}
