//! Property tests: the simulated CAM hierarchy against the functional
//! reference model, under random operation sequences and configurations.

use dsp_cam_core::prelude::*;
use proptest::prelude::*;

/// A random op against both models.
#[derive(Debug, Clone)]
enum Op {
    Insert(u64),
    Search(u64),
    Reset,
}

fn op_strategy(width: u32) -> impl Strategy<Value = Op> {
    let limit = (1u64 << width) - 1;
    prop_oneof![
        4 => (0..=limit).prop_map(Op::Insert),
        4 => (0..=limit).prop_map(Op::Search),
        1 => Just(Op::Reset),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn unit_matches_reference_under_random_ops(
        ops in proptest::collection::vec(op_strategy(16), 1..60),
        blocks in 1usize..=4,
    ) {
        let config = UnitConfig::builder()
            .data_width(16)
            .block_size(8)
            .num_blocks(blocks)
            .bus_width(64)
            .build()
            .unwrap();
        let mut cam = CamUnit::new(config).unwrap();
        let mut oracle = RefCam::new(cam.capacity(), 16, 0);

        for op in ops {
            match op {
                Op::Insert(v) => {
                    let fits = !oracle.is_full();
                    let got = cam.update(&[v]);
                    prop_assert_eq!(got.is_ok(), fits, "capacity divergence on {}", v);
                    if fits {
                        oracle.insert(v);
                    }
                }
                Op::Search(k) => {
                    let hit = cam.search(k);
                    let expect = oracle.search(k);
                    prop_assert_eq!(hit.is_match(), expect.is_some(), "match divergence on {}", k);
                    // Single group: fill order is global, so the priority
                    // address must agree exactly.
                    prop_assert_eq!(hit.first_address(), expect, "address divergence on {}", k);
                }
                Op::Reset => {
                    cam.reset();
                    oracle.clear();
                }
            }
        }
    }

    #[test]
    fn multi_group_replication_answers_everywhere(
        values in proptest::collection::vec(0u64..0xFFFF, 1..16),
        m in prop_oneof![Just(1usize), Just(2), Just(4)],
    ) {
        let config = UnitConfig::builder()
            .data_width(16)
            .block_size(8)
            .num_blocks(4)
            .bus_width(64)
            .build()
            .unwrap();
        let mut cam = CamUnit::new(config).unwrap();
        cam.configure_groups(m).unwrap();
        let take = values.len().min(cam.capacity());
        cam.update(&values[..take]).unwrap();
        for &v in &values[..take] {
            for g in 0..m {
                prop_assert!(cam.search_group(g, v).unwrap().is_match(),
                    "group {} missed replicated value {}", g, v);
            }
        }
        // And multi-query over all groups at once agrees.
        let keys: Vec<u64> = (0..m as u64).map(|i| values[i as usize % take]).collect();
        let hits = cam.search_multi(&keys);
        for hit in hits {
            prop_assert!(hit.is_match());
        }
    }

    #[test]
    fn ternary_unit_matches_reference(
        stored in proptest::collection::vec(0u64..0xFFFF, 1..8),
        keys in proptest::collection::vec(0u64..0xFFFF, 1..16),
        dont_care in 0u64..0xFF,
    ) {
        let config = UnitConfig::builder()
            .kind(CamKind::Ternary)
            .ternary_mask(dont_care)
            .data_width(16)
            .block_size(8)
            .num_blocks(1)
            .bus_width(64)
            .build()
            .unwrap();
        let mut cam = CamUnit::new(config).unwrap();
        let mut oracle = RefCam::new(8, 16, dont_care);
        for &v in &stored {
            cam.update(&[v]).unwrap();
            oracle.insert(v);
        }
        for &k in &keys {
            prop_assert_eq!(
                cam.search(k).first_address(),
                oracle.search(k),
                "ternary divergence at key {:#x} mask {:#x}", k, dont_care
            );
        }
    }

    #[test]
    fn range_unit_matches_reference(
        batches in proptest::collection::vec(
            proptest::collection::vec(
                (prop_oneof![7 => 0u64..0x1000, 1 => 0x1_0000u64..0x2_0000], 0u32..8),
                1..5,
            ),
            1..8,
        ),
        keys in proptest::collection::vec(0u64..0x2000, 1..16),
    ) {
        let config = UnitConfig::builder()
            .kind(CamKind::RangeMatching)
            .data_width(16)
            .block_size(8)
            .num_blocks(4)
            .bus_width(64)
            .build()
            .unwrap();
        let mut cam = CamUnit::new(config).unwrap();
        cam.configure_groups(2).unwrap();
        let capacity = cam.capacity();
        let mut oracle = RefCam::new(capacity, 16, 0);
        for batch in batches {
            let specs: Vec<RangeSpec> = batch
                .iter()
                .map(|&(base, log2)| RangeSpec::new(base & !((1u64 << log2) - 1), log2).unwrap())
                .collect();
            // Capacity is checked before width; a rejected batch lands nothing.
            let expected = if oracle.len() + specs.len() > capacity {
                Err(CamError::Full {
                    rejected: oracle.len() + specs.len() - capacity,
                    group: Some(0),
                })
            } else if let Some(wide) = specs.iter().find(|s| s.base >> 16 != 0) {
                Err(CamError::ValueTooWide { value: wide.base, data_width: 16 })
            } else {
                Ok(())
            };
            let before = cam.snapshot();
            prop_assert_eq!(cam.update_ranges(&specs), expected.clone());
            if expected.is_ok() {
                for &spec in &specs {
                    oracle.insert_range(spec);
                }
            } else {
                prop_assert_eq!(cam.snapshot(), before, "rejected batch must leave no trace");
            }
            for &k in &keys {
                for g in 0..2 {
                    prop_assert_eq!(
                        cam.search_group(g, k).unwrap().first_address(),
                        oracle.search(k),
                        "group {} range divergence at key {:#x}", g, k
                    );
                }
            }
        }
    }

    #[test]
    fn match_count_agrees_with_reference(
        stored in proptest::collection::vec(0u64..16, 1..16),
        keys in proptest::collection::vec(0u64..16, 1..8),
    ) {
        let config = UnitConfig::builder()
            .data_width(8)
            .block_size(16)
            .num_blocks(1)
            .bus_width(64)
            .encoding(Encoding::MatchCount)
            .build()
            .unwrap();
        let mut cam = CamUnit::new(config).unwrap();
        let mut oracle = RefCam::new(16, 8, 0);
        for &v in &stored {
            cam.update(&[v]).unwrap();
            oracle.insert(v);
        }
        for &k in &keys {
            prop_assert_eq!(
                cam.search(k).match_count(),
                Some(oracle.match_count(k))
            );
        }
    }

    #[test]
    fn batched_and_single_updates_equivalent(
        values in proptest::collection::vec(0u64..0xFFFF, 1..32),
    ) {
        let build = || {
            CamUnit::new(
                UnitConfig::builder()
                    .data_width(16)
                    .block_size(8)
                    .num_blocks(4)
                    .bus_width(128)
                    .build()
                    .unwrap(),
            )
            .unwrap()
        };
        let mut batched = build();
        batched.update(&values).unwrap();
        let mut single = build();
        for &v in &values {
            single.update(&[v]).unwrap();
        }
        for &v in &values {
            prop_assert_eq!(
                batched.search(v).first_address(),
                single.search(v).first_address()
            );
        }
    }
}
