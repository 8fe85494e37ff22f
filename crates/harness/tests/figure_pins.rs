//! Pins every figure's bytes: one FNV-1a over the `to_ascii()` of each
//! figure's tables, figs 4–18 at `--quick`, one round and the default
//! seed. A change that moves a figure fails here; re-bless a pin only
//! for a change meant to move that figure, and name the figure.

use harness::artifact::fnv1a;
use harness::figures::{by_number, FigOpts, RunTable};

const PINS: [(u32, u64); 15] = [
    (4, 0x9747_3302_5f35_3d2b),
    (5, 0xb4ba_134e_4b9e_6632),
    (6, 0x665b_4f69_ec77_a7e4),
    (7, 0xb3af_bcf3_fbc8_6a8e),
    (8, 0x3655_b436_62da_8d76),
    (9, 0x1508_b8fb_5654_e243),
    (10, 0xafea_0071_927d_034e),
    (11, 0xb782_df2b_f3dc_d78c),
    (12, 0x43d3_70b7_2cbc_9cb3),
    (13, 0x0c49_f03f_4829_3959),
    (14, 0xaf32_d4e6_8a41_05ce),
    (15, 0x29bd_4b99_5df3_875d),
    (16, 0x3473_104a_b717_cc08),
    (17, 0xf0b6_d308_462a_1d86),
    (18, 0x01ea_d662_743a_75c7),
];

fn opts() -> FigOpts {
    FigOpts {
        rounds: 1,
        quick: true,
        ..FigOpts::default()
    }
}

fn fingerprint(n: u32, runs: &mut RunTable) -> u64 {
    let tables = by_number(n, runs).expect("figures 4-18 exist");
    let text: String = tables.iter().map(harness::Table::to_ascii).collect();
    fnv1a(text.as_bytes())
}

#[test]
fn each_figure_alone_prints_its_pinned_bytes() {
    for (n, pin) in PINS {
        let got = fingerprint(n, &mut RunTable::new(opts()));
        assert_eq!(got, pin, "fig {n}: fnv1a:{got:016x}");
    }
}

#[test]
fn figures_on_one_shared_table_print_the_same_bytes() {
    let mut runs = RunTable::new(opts());
    for (n, pin) in PINS {
        let got = fingerprint(n, &mut runs);
        assert_eq!(got, pin, "fig {n}: fnv1a:{got:016x}");
    }
}
