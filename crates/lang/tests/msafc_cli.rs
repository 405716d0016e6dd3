//! `msafc` must exit non-zero with rendered, span-pointing diagnostics
//! when elaboration fails mid-hierarchy — never a panic, never a
//! success exit over a broken source.

use std::process::Command;

fn run_msafc_on(name: &str, src: &str) -> std::process::Output {
    let path = std::env::temp_dir().join(name);
    std::fs::write(&path, src).expect("write temp source");
    let out = Command::new(env!("CARGO_BIN_EXE_msafc"))
        .arg(&path)
        .output()
        .expect("msafc runs");
    let _ = std::fs::remove_file(&path);
    out
}

#[test]
fn broken_hierarchy_exits_nonzero_with_rendered_diags() {
    // Parses fine; dies in expansion: `inner` is instantiated with a
    // mismatched port width two levels down the hierarchy.
    let out = run_msafc_on(
        "msafc_cli_broken.msa",
        "\
module inner(W)(input d[W]; output q[W]) {
  q = d;
}
module outer(W)(input d[W]; output q[W]) {
  let t = inner<8>(d);
  q = t;
}
pipeline p {
  input x[4];
  output y[4];
  stage s {
    let t = outer<4>(x);
    y = t;
  }
}
",
    );
    assert!(!out.status.success(), "must exit non-zero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error:"), "stderr: {stderr}");
    assert!(
        stderr.contains("argument 1 of 'inner' has width 4, but port 'd' expects width 8"),
        "stderr: {stderr}"
    );
    // Rendered spans: line:col position plus a caret underline.
    assert!(stderr.contains("at 5:20"), "stderr: {stderr}");
    assert!(stderr.contains('^'), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn recursive_hierarchy_exits_nonzero_with_the_cycle() {
    let out = run_msafc_on(
        "msafc_cli_recursive.msa",
        "\
module a(W)(input d[W]; output q[W]) {
  let t = a<W>(d);
  q = t;
}
pipeline p {
  input x[4];
  output y[4];
  stage s {
    let t = a<4>(x);
    y = t;
  }
}
",
    );
    assert!(!out.status.success(), "must exit non-zero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("recursive instantiation of module 'a'"),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn trace_flag_writes_a_wellformed_chrome_trace() {
    let src_path = std::env::temp_dir().join("msafc_cli_trace.msa");
    let out_path = std::env::temp_dir().join("msafc_cli_trace.json");
    std::fs::write(
        &src_path,
        "\
pipeline p {
  input x[4];
  output y[4];
  stage s {
    y = x;
  }
}
",
    )
    .expect("write temp source");
    let out = Command::new(env!("CARGO_BIN_EXE_msafc"))
        .arg(&src_path)
        .args(["--style", "qdi", "--trace"])
        .arg(&out_path)
        .output()
        .expect("msafc runs");
    let _ = std::fs::remove_file(&src_path);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&out_path).expect("trace written");
    let _ = std::fs::remove_file(&out_path);
    // Structural validation: parses as JSON, every B has its E on the
    // same lane in LIFO order, per-lane timestamps never go backwards.
    let stats = msaf_trace::chrome::validate(&json).expect("well-formed trace");
    assert!(stats.spans > 0, "no spans: {stats}");
    for name in [
        "msafc.style",
        "flow.techmap",
        "flow.pack",
        "flow.place",
        "flow.rrg",
        "flow.bind",
        "flow.route",
        "flow.bitgen",
        "route.iteration",
        "place.temperature",
        "timing.sweep",
    ] {
        assert!(stats.names.contains(name), "missing '{name}' in {stats}");
    }
}

#[test]
fn good_source_still_exits_zero() {
    let out = run_msafc_on(
        "msafc_cli_good.msa",
        "\
module buf(W)(input d[W]; output q[W]) {
  q = d;
}
pipeline p {
  input x[4];
  output y[4];
  stage s {
    let t = buf<4>(x);
    y = t;
  }
}
",
    );
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}
