//! Every `-- csv --` block an experiment binary prints is well-formed
//! RFC 4180: all of a block's records have one field count.
//!
//! The test runs all 15 experiment binaries with `--fast`, which takes
//! about a minute under release codegen and many minutes in debug, so it
//! is ignored by default. Run it with
//! `cargo test --release -p robustify_bench --test csv_blocks -- --ignored`.

use std::process::Command;

/// The field count of each record in `block`, which runs until the first
/// blank line outside quotes. Panics on a quote-state error: an
/// unterminated quoted field, or a quote inside an unquoted field.
fn record_widths(block: &str) -> Vec<usize> {
    let mut widths = Vec::new();
    let mut chars = block.chars().peekable();
    let (mut fields, mut field_len, mut quoted) = (1, 0, false);
    while let Some(c) = chars.next() {
        match (quoted, c) {
            (true, '"') if chars.peek() == Some(&'"') => {
                chars.next();
                field_len += 1;
            }
            (true, '"') => quoted = false,
            (true, _) => field_len += 1,
            (false, '"') => {
                assert_eq!(field_len, 0, "quote inside an unquoted field");
                quoted = true;
            }
            (false, ',') => {
                fields += 1;
                field_len = 0;
            }
            (false, '\n') => {
                if fields == 1 && field_len == 0 {
                    return widths;
                }
                widths.push(fields);
                (fields, field_len) = (1, 0);
            }
            (false, _) => field_len += 1,
        }
    }
    assert!(!quoted, "unterminated quoted field");
    if fields > 1 || field_len > 0 {
        widths.push(fields);
    }
    widths
}

#[test]
fn record_widths_follow_rfc_4180() {
    assert_eq!(record_widths("a,b\n1,2\n\nrest"), [2, 2]);
    assert_eq!(record_widths("\"x,y\",b\n\"say \"\"hi\"\"\",2\n"), [2, 2]);
    assert_eq!(record_widths("SGD+AS,LS,b\n1,2\n"), [3, 2]);
}

#[test]
#[ignore = "runs all 15 experiment binaries; about a minute in release, many in debug"]
fn every_csv_block_has_one_field_count() {
    let binaries = [
        env!("CARGO_BIN_EXE_ablation_fault_model"),
        env!("CARGO_BIN_EXE_ablation_guard"),
        env!("CARGO_BIN_EXE_ch7_flop_overhead"),
        env!("CARGO_BIN_EXE_energy_campaign"),
        env!("CARGO_BIN_EXE_fault_model_campaign"),
        env!("CARGO_BIN_EXE_fig5_1_fault_distribution"),
        env!("CARGO_BIN_EXE_fig5_2_voltage_error"),
        env!("CARGO_BIN_EXE_fig6_1_sorting"),
        env!("CARGO_BIN_EXE_fig6_2_least_squares"),
        env!("CARGO_BIN_EXE_fig6_3_iir"),
        env!("CARGO_BIN_EXE_fig6_4_matching"),
        env!("CARGO_BIN_EXE_fig6_5_matching_variants"),
        env!("CARGO_BIN_EXE_fig6_6_cg_accuracy"),
        env!("CARGO_BIN_EXE_fig6_7_cg_energy"),
        env!("CARGO_BIN_EXE_tab6_2_momentum"),
    ];
    let mut ragged = Vec::new();
    for bin in binaries {
        let out = Command::new(bin)
            .arg("--fast")
            .output()
            .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
        assert!(out.status.success(), "{bin} exited {}", out.status);
        let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
        let blocks: Vec<&str> = stdout.split("\n-- csv --\n").skip(1).collect();
        assert!(!blocks.is_empty(), "{bin} printed no csv block");
        for (i, block) in blocks.into_iter().enumerate() {
            let mut widths = record_widths(block);
            assert!(widths.len() > 1, "{bin} csv block {i} has no rows");
            widths.dedup();
            if widths.len() != 1 {
                ragged.push(format!("{bin} csv block {i}: field counts {widths:?}"));
            }
        }
    }
    assert!(
        ragged.is_empty(),
        "ragged csv blocks:\n{}",
        ragged.join("\n")
    );
}
