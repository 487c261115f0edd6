//! Streaming duplicate suppression with a cycle-accurate CAM pipeline:
//! a network-telemetry-style workload where every arriving flow ID is
//! checked against the recently-seen set at line rate, using
//! [`StreamingCam`] — one operation per clock, results retiring
//! `search_latency` cycles later, exactly as the hardware would behave.
//!
//! ```sh
//! cargo run --example stream_dedup
//! ```

use dsp_cam::prelude::*;
use dsp_cam::sim::Clocked;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = UnitConfig::builder()
        .data_width(32)
        .block_size(128)
        .num_blocks(4)
        .bus_width(512)
        .build()?;
    let mut cam = StreamingCam::new(config)?;
    println!(
        "Dedup filter: {}-entry CAM, search latency {} cycles, II = 1.",
        cam.unit().capacity(),
        config.search_latency()
    );

    // A synthetic flow trace with deliberate repeats.
    let trace: Vec<u64> = (0..400u64)
        .map(|i| {
            let base = i % 37; // repeats every 37 packets
            0x0A00_0000 + base * 131
        })
        .collect();

    // Phase 1: drive searches at line rate; collect which packets missed
    // (first-seen) and need inserting.
    let start = cam.cycle();
    let mut first_seen = Vec::new();
    let mut inserted = std::collections::HashSet::new();
    let mut idx = 0usize;
    let mut retired = Vec::new();
    while idx < trace.len() || cam.in_flight() {
        if idx < trace.len() {
            let flow = trace[idx];
            // Interleave: unseen flows get an update cycle, everything
            // gets a search cycle. (A real filter would use a small
            // insert queue; one-op-per-cycle is the hardware constraint.)
            if !inserted.contains(&flow) {
                inserted.insert(flow);
                cam.issue(Op::Update(vec![flow])).expect("free slot");
                cam.tick();
            }
            cam.issue(Op::Search(flow)).expect("free slot");
            idx += 1;
        }
        cam.tick();
        cam.drain_retired(&mut retired);
        for (_, completion) in retired.drain(..) {
            if let Completion::Search(hit) = completion {
                if !hit.is_match() {
                    first_seen.push(hit);
                }
            }
        }
    }
    let cycles = cam.cycle() - start;

    let unique_flows = inserted.len();
    let duplicates = trace.len() - unique_flows;
    println!(
        "Processed {} packets ({} unique flows, {} duplicates) in {} cycles.",
        trace.len(),
        unique_flows,
        duplicates,
        cycles
    );
    println!(
        "At 300 MHz that is {:.2} Mpkt/s sustained.",
        trace.len() as f64 * 300.0 / cycles as f64
    );
    // Every flow was inserted before its search issued, so no search
    // misses: the misses we'd see in a pure-search design are exactly the
    // first-seen set, which here was handled by the insert interleave.
    assert!(first_seen.is_empty());

    // Phase 2: demonstrate retirement timing — one isolated search.
    let mut probe = StreamingCam::new(config)?;
    probe.issue(Op::Update(vec![42])).expect("free slot");
    probe.drain();
    probe.drain_retired(&mut Vec::new());
    let issue_at = probe.cycle();
    probe.issue(Op::Search(42)).expect("free slot");
    probe.drain();
    probe.drain_retired(&mut retired);
    let retire_cycle = retired[0].0.retired;
    println!(
        "Timing check: search issued at cycle {issue_at}, retired at cycle \
         {retire_cycle} — latency {} cycles as Table VIII specifies.",
        retire_cycle - issue_at + 1
    );
    Ok(())
}
