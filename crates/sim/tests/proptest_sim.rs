//! Property tests for the simulation kernel: pipeline delay exactness
//! and DDR cost monotonicity.

use dsp_cam_sim::memory::MemRequest;
use dsp_cam_sim::{DdrChannel, Pipe};
use proptest::prelude::*;

proptest! {
    #[test]
    fn pipe_delays_every_item_by_depth(
        depth in 1usize..16,
        items in proptest::collection::vec(proptest::option::of(0u32..1000), 1..100),
    ) {
        let mut pipe = Pipe::new(depth);
        let mut outputs = Vec::new();
        for item in &items {
            outputs.push(pipe.shift(*item));
        }
        // Drain.
        for _ in 0..depth {
            outputs.push(pipe.shift(None));
        }
        // Every input appears exactly `depth` shifts later.
        for (i, item) in items.iter().enumerate() {
            prop_assert_eq!(outputs[i + depth], *item, "index {}", i);
        }
    }

    #[test]
    fn pipe_occupancy_matches_live_items(
        items in proptest::collection::vec(proptest::option::of(0u8..10), 1..40),
    ) {
        let mut pipe = Pipe::new(8);
        let mut live = 0usize;
        for item in items {
            let came_out = pipe.shift(item).is_some();
            if item.is_some() {
                live += 1;
            }
            if came_out {
                live -= 1;
            }
            prop_assert_eq!(pipe.occupancy(), live);
        }
    }

    #[test]
    fn ddr_access_cost_monotone_in_bytes(addr in 0u64..1_000_000, bytes in 1u64..10_000) {
        let ch = DdrChannel::default();
        let small = ch.access_cycles(MemRequest { addr, bytes });
        let bigger = ch.access_cycles(MemRequest { addr, bytes: bytes + 64 });
        prop_assert!(bigger >= small);
        prop_assert!(small >= ch.config().random_latency);
    }

    #[test]
    fn ddr_clocked_completions_in_issue_order(
        sizes in proptest::collection::vec(1u64..2_000, 1..10),
    ) {
        let mut ch = DdrChannel::default();
        for (tag, &bytes) in sizes.iter().enumerate() {
            ch.request(tag as u64, MemRequest { addr: tag as u64 * 4096, bytes });
        }
        let mut done = Vec::new();
        let mut guard = 0;
        while !ch.is_idle() {
            dsp_cam_sim::Clocked::tick(&mut ch);
            done.extend(ch.take_completed());
            guard += 1;
            prop_assert!(guard < 1_000_000, "channel wedged");
        }
        let expect: Vec<u64> = (0..sizes.len() as u64).collect();
        prop_assert_eq!(done, expect);
    }
}
