//! Property tests for the simulation kernel: DDR cost monotonicity and
//! in-order completion.

use dsp_cam_sim::memory::MemRequest;
use dsp_cam_sim::DdrChannel;
use proptest::prelude::*;

proptest! {
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
