//! The experiment binaries reject a bad command line with their usage and
//! exit status 2, before doing any work.

use std::process::Command;

fn exp_stress(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_exp_stress"))
        .args(args)
        .output()
        .expect("exp_stress runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn an_unknown_flag_prints_usage_and_exits_2() {
    let (code, stderr) = exp_stress(&["--oracle-batch", "4"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.starts_with("error: unknown flag \"--oracle-batch\""),
        "{stderr}"
    );
    assert!(stderr.contains("usage: exp_stress"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn a_malformed_value_prints_usage_and_exits_2() {
    let (code, stderr) = exp_stress(&["--rows", "many"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.starts_with("error: --rows: cannot parse \"many\""),
        "{stderr}"
    );
    assert!(stderr.contains("usage: exp_stress"), "{stderr}");
    let (code, stderr) = exp_stress(&["--json"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.starts_with("error: --json: missing value"),
        "{stderr}"
    );
}
