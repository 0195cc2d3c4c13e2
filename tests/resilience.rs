//! End-to-end resilience: panic isolation across a sweep, and
//! checkpoint/resume reproducing an uninterrupted run byte-for-byte.

use melody::exec::CellPolicy;
use melody::experiments::degraded;
use melody::experiments::Scale;
use melody::journal::Journal;

fn scratch_path(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("melody-resilience-tests");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(format!("{tag}-{}.jsonl", std::process::id()))
}

fn small_sweep() -> Vec<(String, String)> {
    vec![
        ("cxl-a".into(), "none".into()),
        ("cxl-b".into(), "crc-storm".into()),
        ("cxl-c".into(), "retrain".into()),
        ("cxl-d".into(), "poison".into()),
    ]
}

#[test]
fn interrupted_sweep_resumes_byte_identical() {
    let cells = small_sweep();

    // Reference: one uninterrupted run.
    let uninterrupted = degraded::run_with(
        Scale::Smoke,
        &cells,
        &mut Journal::in_memory(),
        None,
        None,
        &CellPolicy::default(),
    );
    let reference = serde_json::to_string(&uninterrupted).expect("serialize reference");

    // Interrupted run: finish only 2 cells, then drop the journal —
    // simulating a killed process whose checkpoint file survives.
    let path = scratch_path("resume");
    let _ = std::fs::remove_file(&path);
    {
        let mut journal = Journal::open(&path).expect("open journal");
        let partial = degraded::run_with(
            Scale::Smoke,
            &cells,
            &mut journal,
            None,
            Some(2),
            &CellPolicy::default(),
        );
        assert_eq!(partial.cells.len(), 2, "limit caps attempted cells");
        assert_eq!(journal.len(), 2);
    }

    // Resume: reopen the journal; finished cells are restored, the rest
    // computed, and the final artifact matches byte-for-byte.
    let mut journal = Journal::open(&path).expect("reopen journal");
    assert_eq!(journal.len(), 2, "checkpoints survive the restart");
    let resumed = degraded::run_with(
        Scale::Smoke,
        &cells,
        &mut journal,
        None,
        None,
        &CellPolicy::default(),
    );
    assert_eq!(journal.len(), cells.len());
    assert_eq!(
        reference,
        serde_json::to_string(&resumed).expect("serialize resumed"),
        "resumed sweep must match the uninterrupted run byte-for-byte"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn panicking_cell_leaves_the_rest_of_the_sweep_intact() {
    // One deliberately broken cell (unknown regime → panic inside the
    // cell closure) must surface as a structured CellError while every
    // other cell completes.
    let mut cells = small_sweep();
    cells.insert(2, ("cxl-b".into(), "definitely-broken".into()));
    let report = degraded::run_with(
        Scale::Smoke,
        &cells,
        &mut Journal::in_memory(),
        None,
        None,
        &CellPolicy::default(),
    );
    assert_eq!(report.cells.len(), 4, "all healthy cells complete");
    assert_eq!(report.errors.len(), 1);
    let e = &report.errors[0];
    assert_eq!(e.index, 2);
    assert_eq!(e.kind, melody::exec::CellErrorKind::Panicked);
    assert!(
        e.message.contains("definitely-broken"),
        "panic payload is preserved: {}",
        e.message
    );
    assert!(e.attempts >= 1);
    // And the failure is visible in the rendered report.
    assert!(report.render().contains("failed cells"));
}

#[test]
fn retry_policy_is_applied_per_cell() {
    // With max_attempts 3 a permanently-broken cell is attempted exactly
    // 3 times and still reports a structured error.
    let cells = vec![
        ("cxl-a".into(), "none".into()),
        ("cxl-a".into(), "still-broken".into()),
    ];
    let report = degraded::run_with(
        Scale::Smoke,
        &cells,
        &mut Journal::in_memory(),
        None,
        None,
        &CellPolicy::default().with_attempts(3),
    );
    assert_eq!(report.cells.len(), 1);
    assert_eq!(report.errors.len(), 1);
    assert_eq!(report.errors[0].attempts, 3);
}
