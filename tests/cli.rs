//! CLI error-path regression tests: `melody diff` / `melody report`
//! given a directory or an empty file must exit 2 with a clear message,
//! not surface a raw deserialize error.

use std::process::Command;

fn melody() -> Command {
    Command::new(env!("CARGO_BIN_EXE_melody"))
}

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("melody-cli-{name}-{}", std::process::id()));
    p
}

#[test]
fn diff_rejects_directories_with_exit_2() {
    let dir = tmp("diff-dir");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let out = melody()
        .args([
            "diff",
            dir.to_str().expect("utf8"),
            dir.to_str().expect("utf8"),
        ])
        .output()
        .expect("run melody");
    assert_eq!(
        out.status.code(),
        Some(2),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("is a directory"),
        "unclear message: {stderr}"
    );
    assert!(
        stderr.contains(dir.to_str().expect("utf8")),
        "message names the path: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn diff_rejects_empty_files_with_exit_2() {
    let a = tmp("diff-empty-a.json");
    let b = tmp("diff-empty-b.json");
    std::fs::write(&a, "").expect("write");
    std::fs::write(&b, "  \n").expect("write");
    let out = melody()
        .args(["diff", a.to_str().expect("utf8"), b.to_str().expect("utf8")])
        .output()
        .expect("run melody");
    assert_eq!(
        out.status.code(),
        Some(2),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("empty file"), "unclear message: {stderr}");
    let _ = std::fs::remove_file(&a);
    let _ = std::fs::remove_file(&b);
}

#[test]
fn diff_still_reports_missing_files_with_exit_2() {
    let out = melody()
        .args([
            "diff",
            "/nonexistent/melody-a.json",
            "/nonexistent/melody-b.json",
        ])
        .output()
        .expect("run melody");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot read"), "{stderr}");
}

#[test]
fn unknown_scale_exits_2_listing_the_scales() {
    let out = melody()
        .args(["tiering", "--scale", "bogus"])
        .output()
        .expect("run melody");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing simulated");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("smoke|quick|full"), "{stderr}");
}

#[test]
fn report_rejects_directories_with_exit_2() {
    let dir = tmp("report-dir");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let out = melody()
        .args(["report", dir.to_str().expect("utf8")])
        .output()
        .expect("run melody");
    assert_eq!(
        out.status.code(),
        Some(2),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("is a directory"),
        "unclear message: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn report_rejects_empty_files_with_exit_2() {
    let p = tmp("report-empty.json");
    std::fs::write(&p, "\n\n").expect("write");
    let out = melody()
        .args(["report", p.to_str().expect("utf8")])
        .output()
        .expect("run melody");
    assert_eq!(
        out.status.code(),
        Some(2),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("empty file"), "unclear message: {stderr}");
    let _ = std::fs::remove_file(&p);
}

#[test]
fn campaign_requires_a_spec_and_validates_shards() {
    let out = melody().args(["campaign"]).output().expect("run melody");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("spec"));

    let spec = tmp("campaign-spec.json");
    std::fs::write(
        &spec,
        r#"{"name":"t","platforms":["emr2s"],"devices":["cxl-a"],"workloads":["541.leela"],"mem_refs":2000}"#,
    )
    .expect("write spec");
    let out = melody()
        .args([
            "campaign",
            spec.to_str().expect("utf8"),
            "--shard",
            "3/2",
            "--no-cache",
        ])
        .output()
        .expect("run melody");
    assert_eq!(
        out.status.code(),
        Some(2),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("--shard"));
    let _ = std::fs::remove_file(&spec);
}

#[test]
fn campaign_no_cache_runs_and_renders() {
    let spec = tmp("campaign-smoke.json");
    std::fs::write(
        &spec,
        r#"{"name":"smoke","platforms":["emr2s"],"devices":["cxl-a"],"workloads":["541.leela"],"mem_refs":2000}"#,
    )
    .expect("write spec");
    let out = melody()
        .args(["campaign", spec.to_str().expect("utf8"), "--no-cache"])
        .output()
        .expect("run melody");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("campaign smoke"), "{stdout}");
    assert!(stdout.contains("541.leela"), "{stdout}");
    let _ = std::fs::remove_file(&spec);
}

// --- `melody submit` / `melody status` client error paths -----------
//
// The server-mode clients follow the same convention as the rest of
// the CLI: usage and connectivity problems exit 2 with a one-line,
// human-readable message on stderr.

#[test]
fn submit_requires_a_spec_file_with_exit_2() {
    let out = melody().arg("submit").output().expect("run melody");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("requires a spec file"), "{stderr}");
}

#[test]
fn submit_validates_the_spec_before_dialing_the_server() {
    let spec = tmp("submit-bad-spec.json");
    std::fs::write(&spec, "{\"definitely\":\"not a spec\"}").expect("write");
    // `--server` points nowhere: the local validation must fire first.
    let out = melody()
        .args([
            "submit",
            spec.to_str().expect("utf8"),
            "--server",
            "127.0.0.1:9",
        ])
        .output()
        .expect("run melody");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("not a campaign spec"), "{stderr}");
    let _ = std::fs::remove_file(&spec);
}

#[test]
fn submit_reports_unreachable_servers_with_exit_2() {
    let spec = tmp("submit-unreachable.json");
    std::fs::write(
        &spec,
        r#"{"name":"u","platforms":["emr2s"],"devices":["cxl-a"],"workloads":["541.leela"],"mem_refs":2000}"#,
    )
    .expect("write");
    let out = melody()
        .args([
            "submit",
            spec.to_str().expect("utf8"),
            "--server",
            "127.0.0.1:9",
        ])
        .output()
        .expect("run melody");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot reach melody server"), "{stderr}");
    let _ = std::fs::remove_file(&spec);
}

#[test]
fn status_reports_unreachable_servers_with_exit_2() {
    let out = melody()
        .args(["status", "--server", "127.0.0.1:9"])
        .output()
        .expect("run melody");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot reach melody server"), "{stderr}");
}

#[test]
fn status_reports_malformed_responses_with_exit_2() {
    use std::io::{Read as _, Write as _};

    // A fake "server" that answers valid HTTP framing with a body that
    // is not the expected JSON shape.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let t = std::thread::spawn(move || {
        if let Ok((mut conn, _)) = listener.accept() {
            let mut buf = [0u8; 4096];
            let _ = conn.read(&mut buf);
            let _ = conn.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 8\r\n\r\nnot-json");
        }
    });
    let out = melody()
        .args(["status", "--server", &addr])
        .output()
        .expect("run melody");
    t.join().expect("fake server thread");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("malformed server response"), "{stderr}");
}

#[test]
fn status_reports_unknown_job_ids_with_exit_2() {
    use std::io::{BufRead as _, BufReader};
    use std::process::Stdio;

    let state = tmp("status-unknown-state");
    let mut child = melody()
        .args([
            "serve",
            "--port",
            "0",
            "--state-dir",
            state.to_str().expect("utf8"),
            "--no-cache",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn melody serve");
    let mut banner = String::new();
    BufReader::new(child.stdout.take().expect("stdout"))
        .read_line(&mut banner)
        .expect("read banner");
    let addr = banner
        .trim()
        .strip_prefix("melody-serve: listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {banner:?}"))
        .to_string();

    let out = melody()
        .args(["status", "job-999999", "--server", &addr])
        .output()
        .expect("run melody");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown job"), "{stderr}");
    assert!(stderr.contains("job-999999"), "{stderr}");

    // `melody drain` shuts it down cleanly.
    let drained = melody()
        .args(["drain", "--server", &addr])
        .output()
        .expect("run melody drain");
    assert_eq!(
        drained.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&drained.stderr)
    );
    let status = child.wait().expect("server exits");
    assert!(status.success(), "{status:?}");
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn campaign_resume_warns_about_torn_journal_tails_and_still_matches() {
    let spec = tmp("torn-resume-spec.json");
    let journal = tmp("torn-resume.jsonl");
    std::fs::write(
        &spec,
        r#"{"name":"torn","platforms":["emr2s"],"devices":["cxl-a","numa"],"workloads":["541.leela"],"mem_refs":2000}"#,
    )
    .expect("write spec");
    let _ = std::fs::remove_file(&journal);
    let first = melody()
        .args([
            "campaign",
            spec.to_str().expect("utf8"),
            "--json",
            "--no-cache",
            "--journal",
            journal.to_str().expect("utf8"),
        ])
        .output()
        .expect("run melody");
    assert_eq!(
        first.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&first.stderr)
    );

    // Simulate a crash mid-append: a torn, unterminated half-record.
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&journal)
        .expect("open journal");
    f.write_all(b"{\"cell\":17,\"truncated")
        .expect("append torn tail");
    drop(f);

    let resumed = melody()
        .args([
            "campaign",
            spec.to_str().expect("utf8"),
            "--json",
            "--no-cache",
            "--journal",
            journal.to_str().expect("utf8"),
            "--resume",
        ])
        .output()
        .expect("run melody");
    assert_eq!(
        resumed.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        stderr.contains("dropped 1 torn trailing record"),
        "counted warning on --resume: {stderr}"
    );
    assert_eq!(
        String::from_utf8_lossy(&first.stdout),
        String::from_utf8_lossy(&resumed.stdout),
        "torn tail does not change the report bytes"
    );
    let _ = std::fs::remove_file(&spec);
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn campaign_json_with_telemetry_carries_exec_retry_counters() {
    let spec = tmp("telemetry-counters-spec.json");
    std::fs::write(
        &spec,
        r#"{"name":"tc","platforms":["emr2s"],"devices":["cxl-a"],"workloads":["541.leela"],"mem_refs":2000}"#,
    )
    .expect("write spec");
    let out = melody()
        .args([
            "campaign",
            spec.to_str().expect("utf8"),
            "--json",
            "--no-cache",
            "--telemetry",
            "metrics",
        ])
        .output()
        .expect("run melody");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The telemetry document wraps the report and carries the retry,
    // deadline, and cancellation counters from the execution layer.
    assert!(stdout.contains("\"report\""), "{stdout}");
    assert!(stdout.contains("exec.cell_retries_total"), "{stdout}");
    assert!(stdout.contains("exec.cell_deadlines_total"), "{stdout}");
    assert!(stdout.contains("exec.cells_cancelled_total"), "{stdout}");
    let _ = std::fs::remove_file(&spec);
}

/// A numeric flag whose value does not parse exits 2 naming the flag and
/// the value, instead of silently running with the flag's default.
#[test]
fn unparseable_numeric_flags_exit_2() {
    let path = tmp("numeric-flag.json");
    std::fs::write(&path, "{\"a\": 1}").expect("write json");
    let json = path.to_str().expect("utf8");
    let spec_path = tmp("numeric-flag-spec.json");
    std::fs::write(
        &spec_path,
        r#"{"name":"n","platforms":["emr2s"],"devices":["cxl-a"],"workloads":["541.leela"],"mem_refs":2000}"#,
    )
    .expect("write spec");
    let spec = spec_path.to_str().expect("utf8");
    let cases: [(&[&str], &str); 6] = [
        (
            &["run", "605.mcf", "cxl-b", "--refs", "8k"],
            "--refs expects an integer, got 8k",
        ),
        (
            &["serve", "--port", "abc"],
            "--port expects a port number, got abc",
        ),
        (
            &["serve", "--deadline-ms", "soon", "--port", "0"],
            "--deadline-ms expects an integer, got soon",
        ),
        (
            &[
                "submit",
                spec,
                "--server",
                "127.0.0.1:9",
                "--deadline-ms",
                "soon",
            ],
            "--deadline-ms expects an integer, got soon",
        ),
        (
            &["diff", json, json, "--rel-tol", "bogus"],
            "--rel-tol expects a number, got bogus",
        ),
        (
            &[
                "run",
                "605.mcf",
                "cxl-b",
                "--policy",
                "lru-hotness",
                "--page-bytes",
                "4k",
            ],
            "--page-bytes expects an integer, got 4k",
        ),
    ];
    for (args, message) in cases {
        let out = melody().args(args).output().expect("run melody");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&spec_path);
}

/// A flag `melody` does not know, a flag the command does not read, and
/// a flag missing its value each exit 2 naming the flag, instead of
/// running a different experiment than the one asked for.
#[test]
fn misspelled_unread_and_valueless_flags_exit_2() {
    let cache = tmp("unread-cache");
    let out_path = tmp("unread-trace.json");
    let cases: [(&[&str], &str); 4] = [
        (&["run", "605.mcf", "cxl-b", "--ref", "8000"], "--ref"),
        (&["run", "605.mcf", "cxl-b", "--refs"], "--refs"),
        (&["probe", "cxl-b", "--fauls", "crc-storm"], "--fauls"),
        (
            &[
                "trace",
                "cxl-b",
                "--cache",
                cache.to_str().expect("utf8"),
                "--out",
                out_path.to_str().expect("utf8"),
            ],
            "--cache",
        ),
    ];
    for (args, flag) in cases {
        let out = melody().args(args).output().expect("run melody");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?} must name {flag}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
    let _ = std::fs::remove_dir_all(&cache);
    let _ = std::fs::remove_file(&out_path);
}

/// `serve` runs every spec as written, so it takes no `--fidelity`: the
/// flag exits 2 instead of silently changing what each unset spec means.
#[test]
fn serve_rejects_fidelity_with_exit_2() {
    use std::io::{BufRead as _, BufReader, Read as _};
    use std::process::Stdio;

    let state = tmp("serve-fidelity-state");
    let mut child = melody()
        .args([
            "serve",
            "--fidelity",
            "sampled",
            "--port",
            "0",
            "--state-dir",
            state.to_str().expect("utf8"),
            "--no-cache",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn melody serve");
    let mut banner = String::new();
    BufReader::new(child.stdout.take().expect("stdout"))
        .read_line(&mut banner)
        .expect("read banner");
    if let Some(addr) = banner.trim().strip_prefix("melody-serve: listening on ") {
        // The server started: shut it down before failing, so the test
        // never leaves it running.
        let _ = melody().args(["drain", "--server", addr]).output();
        let _ = child.wait();
        let _ = std::fs::remove_dir_all(&state);
        panic!("serve accepted --fidelity and started on {addr}");
    }
    let status = child.wait().expect("serve exits");
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    let _ = std::fs::remove_dir_all(&state);
    assert_eq!(status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--fidelity"), "{stderr}");
}

/// On `campaign`, `--fidelity` fills only what the spec leaves unset: a
/// spec without a fidelity run with `--fidelity fast` is byte-identical
/// to the same spec with `"fidelity": "fast"` written in.
#[test]
fn campaign_fidelity_flag_equals_the_spec_field() {
    let plain = tmp("fidelity-flag-plain.json");
    let written = tmp("fidelity-flag-written.json");
    let grid = r#""platforms":["emr2s"],"devices":["cxl-a","cxl-b"],"workloads":["605.mcf","541.leela"],"mem_refs":4000"#;
    std::fs::write(&plain, format!(r#"{{"name":"fid",{grid}}}"#)).expect("write spec");
    std::fs::write(
        &written,
        format!(r#"{{"name":"fid",{grid},"fidelity":"fast"}}"#),
    )
    .expect("write spec");
    let run = |spec: &std::path::Path, extra: &[&str]| {
        let out = melody()
            .args([
                "campaign",
                spec.to_str().expect("utf8"),
                "--no-cache",
                "--json",
            ])
            .args(extra)
            .output()
            .expect("run melody");
        assert_eq!(
            out.status.code(),
            Some(0),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let by_flag = run(&plain, &["--fidelity", "fast"]);
    let by_spec = run(&written, &[]);
    assert!(!by_flag.is_empty());
    assert_eq!(
        String::from_utf8_lossy(&by_flag),
        String::from_utf8_lossy(&by_spec)
    );
    // The spec wins over the flag: a written fidelity is not overridden.
    assert_eq!(
        String::from_utf8_lossy(&run(&written, &["--fidelity", "detailed"])),
        String::from_utf8_lossy(&by_spec)
    );
    let _ = std::fs::remove_file(&plain);
    let _ = std::fs::remove_file(&written);
}

/// `--page-bytes` and `--migrate-budget-gbps` on `campaign` fill only
/// what the spec leaves unset, as `--fidelity` does: a spec that writes
/// its tiering knobs runs as written, and the flags equal writing them.
#[test]
fn campaign_tiering_knob_flags_fill_only_unset_fields() {
    let plain = tmp("knob-flag-plain.json");
    let written = tmp("knob-flag-written.json");
    let grid = r#""platforms":["emr2s"],"devices":["cxl-b"],"workloads":["605.mcf"],"mem_refs":4000,"policies":["lru-hotness"]"#;
    std::fs::write(&plain, format!(r#"{{"name":"knob",{grid}}}"#)).expect("write spec");
    std::fs::write(
        &written,
        format!(r#"{{"name":"knob",{grid},"page_bytes":65536,"migrate_budget_gbps":0.5}}"#),
    )
    .expect("write spec");
    let run = |spec: &std::path::Path, extra: &[&str]| {
        let out = melody()
            .args([
                "campaign",
                spec.to_str().expect("utf8"),
                "--no-cache",
                "--json",
            ])
            .args(extra)
            .output()
            .expect("run melody");
        assert_eq!(
            out.status.code(),
            Some(0),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let by_spec = run(&written, &[]);
    assert_ne!(
        run(&plain, &[]),
        by_spec,
        "the knobs must change the result"
    );
    let knobs = ["--page-bytes", "65536", "--migrate-budget-gbps", "0.5"];
    assert_eq!(run(&plain, &knobs), by_spec);
    let defaults = ["--page-bytes", "4096", "--migrate-budget-gbps", "8"];
    assert_eq!(run(&written, &defaults), by_spec, "the spec wins");
    let _ = std::fs::remove_file(&plain);
    let _ = std::fs::remove_file(&written);
}

/// An unknown `<device>` keyword exits 2 naming it and listing the device
/// classes and suffixes, on every command that takes one.
#[test]
fn unknown_device_keyword_exits_2_listing_the_classes() {
    let out_path = tmp("unknown-device-trace.json");
    let out_path = out_path.to_str().expect("utf8");
    let cases: [&[&str]; 6] = [
        &["run", "605.mcf", "cxl-z", "--refs", "1000"],
        &["probe", "cxl-z"],
        &["mio", "cxl-z"],
        &["mlc", "cxl-z"],
        &["trace", "cxl-z", "--out", out_path],
        &["cpmu", "cxl-z"],
    ];
    for args in cases {
        let out = melody().args(args).output().expect("run melody");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        for name in ["cxl-z", "cxl-b", "skx-410", "+numa", "+switch", "-x2"] {
            assert!(stderr.contains(name), "{args:?} must list {name}: {stderr}");
        }
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
}
