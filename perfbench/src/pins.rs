//! Digests `repro` prints for the benchmark's scenario seeds, recorded with
//! `repro budget --scale small --seed S --shards 1` (the crawl, equal at
//! every shard count) and `repro workload-replay --scale tiny --seed S`
//! (the four phase digests; the last is the final digest).
//!
//! The benchmark's `--seed n` selects scenario seed `32 + n % 16`, so every
//! run is gated against a recorded digest; the default seed 42 maps to
//! itself. A change to the simulated model changes these digests and must
//! re-record them with the commands above.

/// Recorded digests for one scenario seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pin {
    /// The seed `repro` takes on its command line.
    pub seed: u64,
    /// Final trace digest of the `Scale::Small` crawl campaign.
    pub crawl: u64,
    /// Trace digests of the `Scale::Tiny` replay at the end of bootstrap,
    /// pre-flash, flash and cooldown.
    pub replay: [u64; 4],
}

pub const PINS: [Pin; 16] = [
    Pin {
        seed: 32,
        crawl: 0x8e89_6356_04be_0409,
        replay: [
            0x1978_fe2a_c696_378f,
            0x6b7a_dc52_7758_03df,
            0x31d9_d9e1_b19b_5f78,
            0x47d3_b5f4_d8be_5524,
        ],
    },
    Pin {
        seed: 33,
        crawl: 0x8384_65b4_7ae4_0044,
        replay: [
            0x4265_505f_25d0_ebef,
            0x78ed_bd2b_bddc_b3c4,
            0x8858_6301_d532_c69b,
            0x78de_71e3_a0df_992a,
        ],
    },
    Pin {
        seed: 34,
        crawl: 0xd9e4_f1ef_13d0_1e31,
        replay: [
            0x04b7_16aa_1d68_ac12,
            0x937d_f7c2_0760_847d,
            0xb959_28c7_6c6a_0a56,
            0x80d2_688c_07e8_77f3,
        ],
    },
    Pin {
        seed: 35,
        crawl: 0xecb2_ed64_bf56_4002,
        replay: [
            0x86b7_f935_3f1e_3723,
            0x745e_4bc1_6751_6290,
            0xe10f_065c_16e8_a458,
            0x9b95_45e9_c506_178a,
        ],
    },
    Pin {
        seed: 36,
        crawl: 0x1595_3f9a_15ae_7638,
        replay: [
            0xb97b_12ae_2199_083c,
            0x5506_a668_9bf7_af85,
            0x3812_8788_1a8f_9405,
            0xf5c3_9d03_5bbc_a154,
        ],
    },
    Pin {
        seed: 37,
        crawl: 0xb305_9aa9_5296_f930,
        replay: [
            0x2211_1652_6a05_18a0,
            0x5c38_4da0_d8e2_da22,
            0x2d37_001d_5758_b4c9,
            0x1bc8_0133_0ccc_de62,
        ],
    },
    Pin {
        seed: 38,
        crawl: 0x8f5b_abd7_6a38_7137,
        replay: [
            0x0e0b_6c40_3d07_8216,
            0xe811_7de6_556f_27db,
            0xb411_c313_5347_f0a6,
            0x126b_a70a_cf1b_7772,
        ],
    },
    Pin {
        seed: 39,
        crawl: 0x201f_f515_560c_e307,
        replay: [
            0x17c7_a580_0c2b_8729,
            0x7ff1_c8a7_17f1_ddd2,
            0x41b1_c6ca_b327_431d,
            0x64b6_d0fc_dbec_b823,
        ],
    },
    Pin {
        seed: 40,
        crawl: 0xcad0_f1c2_07fa_0f55,
        replay: [
            0xa6e8_6c79_c2bc_9b12,
            0x3c75_b751_6997_ffe7,
            0x8a95_061d_1cc1_3537,
            0xf248_23cb_7e20_ecab,
        ],
    },
    Pin {
        seed: 41,
        crawl: 0x0b1f_dad5_b335_0e65,
        replay: [
            0x6c8a_b105_f084_ad7b,
            0x11ef_a438_cabe_0ae0,
            0xa695_a7e6_470e_c319,
            0x08b4_511d_07bf_74d6,
        ],
    },
    Pin {
        seed: 42,
        crawl: 0xa1d7_a5b4_003c_3897,
        replay: [
            0x2d09_332c_a748_dc65,
            0xcc71_deb8_8cc6_37d4,
            0xd1c4_1e2e_698c_b1be,
            0xee9d_a969_ba7c_1961,
        ],
    },
    Pin {
        seed: 43,
        crawl: 0x171c_e596_a65e_34a6,
        replay: [
            0x4031_c9ac_8295_ab7b,
            0xfb6f_39a5_d8c9_ab80,
            0xff19_3aa4_fb8c_ff29,
            0x1066_599a_a36b_0b52,
        ],
    },
    Pin {
        seed: 44,
        crawl: 0x8bf6_0864_5458_2521,
        replay: [
            0x06bd_40bc_f500_6b4c,
            0x9044_379e_d8bb_917b,
            0xca9b_d827_ca9a_2cc2,
            0xae3e_d2fc_6deb_2084,
        ],
    },
    Pin {
        seed: 45,
        crawl: 0xa4a8_e903_3fd4_db1c,
        replay: [
            0x86dc_84c0_340d_2670,
            0xabfc_79da_9be3_d14f,
            0x0eff_234a_9a1c_9cbc,
            0x3ca1_ed9b_178c_ac36,
        ],
    },
    Pin {
        seed: 46,
        crawl: 0x06b9_7a12_cc8f_1409,
        replay: [
            0xd702_5fc1_5b9d_2db9,
            0xe56f_843d_2ed9_7593,
            0xbb32_3976_e336_b967,
            0x1091_ed51_768c_448f,
        ],
    },
    Pin {
        seed: 47,
        crawl: 0x4169_eca0_fbde_f525,
        replay: [
            0xd2b9_4316_dca3_fa51,
            0x5928_82e6_0d4f_4913,
            0xd662_72be_bc2e_37d8,
            0x2fc9_fc5a_75bf_408d,
        ],
    },
];

/// The pin for the benchmark's `--seed`.
pub fn for_seed(seed: u64) -> Pin {
    PINS[(seed % PINS.len() as u64) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIRST_SEED: u64 = 32;

    #[test]
    fn table_covers_consecutive_seeds_and_the_default_maps_to_itself() {
        for (i, p) in PINS.iter().enumerate() {
            assert_eq!(p.seed, FIRST_SEED + i as u64);
        }
        assert_eq!(for_seed(42).seed, 42);
        assert_eq!(for_seed(42).crawl, 0xa1d7_a5b4_003c_3897);
        assert_eq!(for_seed(0).seed, 32);
        assert_eq!(for_seed(u64::MAX).seed, FIRST_SEED + u64::MAX % 16);
    }
}
