//! The bins' input contract: a flag value out of the simulator's range is
//! rejected with `error:` on stderr and exit status 2, never a panic or a
//! run that silently uses another value than the one its manifest records.

use std::process::{Command, Stdio};

/// Runs `cmd` and asserts that it exits 2 with `error:` on stderr.
fn assert_rejected(cmd: &mut Command, what: &str) {
    let out = cmd.output().expect("the bin starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{what}: expected exit 2, got {:?}; stderr:\n{stderr}",
        out.status.code()
    );
    assert!(
        stderr.starts_with("error: "),
        "{what}: stderr does not start with `error:`:\n{stderr}"
    );
}

#[test]
fn out_of_range_flag_values_exit_2_with_an_error() {
    let cases: [&[&str]; 10] = [
        &["--ms", "0"],
        &["--ms", "-1"],
        &["--ms", "nan"],
        &["--ms", "inf"],
        &["--cell", "0"],
        &["--cell", "-50"],
        &["--cell", "nan"],
        &["--scale", "cALU", "0"],
        &["--scale", "cALU", "inf"],
        &["--ic-area", "0.5"],
    ];
    for flags in cases {
        assert_rejected(
            Command::new(env!("CARGO_BIN_EXE_hotgauge"))
                .args(["--benchmark", "gcc"])
                .args(flags)
                .env("HOTGAUGE_SMOKE", "1"),
            &format!("{flags:?}"),
        );
    }
}

/// `--batch` takes 1..=16 on the sweep bins and on `hotgauge sweep`.
#[test]
fn batch_width_outside_its_range_exits_2_with_an_error() {
    for width in ["0", "17"] {
        assert_rejected(
            Command::new(env!("CARGO_BIN_EXE_fig11_tuh_percore"))
                .args(["--batch", width, "--quiet"])
                .env("HOTGAUGE_SMOKE", "1"),
            &format!("fig11_tuh_percore --batch {width}"),
        );
        assert_rejected(
            Command::new(env!("CARGO_BIN_EXE_hotgauge"))
                .args(["sweep", "--batch", width, "--quiet"])
                .env("HOTGAUGE_SMOKE", "1")
                .stdin(Stdio::null()),
            &format!("hotgauge sweep --batch {width}"),
        );
    }
}
