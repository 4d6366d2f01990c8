//! The `hotgauge` binary's input contract: a flag value out of the
//! simulator's range is rejected with `error:` on stderr and exit status 2,
//! never a panic or a run that silently uses another value than the one its
//! manifest records.

use std::process::Command;

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
        let out = Command::new(env!("CARGO_BIN_EXE_hotgauge"))
            .args(["--benchmark", "gcc"])
            .args(flags)
            .env("HOTGAUGE_SMOKE", "1")
            .output()
            .expect("hotgauge starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{flags:?}: expected exit 2, got {:?}; stderr:\n{stderr}",
            out.status.code()
        );
        assert!(
            stderr.starts_with("error: "),
            "{flags:?}: stderr does not start with `error:`:\n{stderr}"
        );
    }
}
