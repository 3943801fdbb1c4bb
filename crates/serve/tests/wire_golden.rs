//! Wire-protocol freeze: every `Request`, `Response`, and `ServeError`
//! variant round-trips through serde and renders to bytes pinned under
//! `tests/golden/wire.txt`. Any accidental wire-format change shows up
//! as a reviewable diff. Regenerate after an *intentional* change with
//!
//! ```text
//! cargo test -p hc-serve --test wire_golden -- --ignored regenerate
//! ```

use hc_core::jobs::{JobGoal, JobState};
use hc_core::{Answer, JobId, Label, PlayerId, SessionId, Stimulus, TaskId, TaskState};
use hc_serve::{
    AggregateRow, ExportedLabel, Request, Response, RoundOutcome, ServeError, SessionPhase,
};
use hc_sim::SimTime;
use std::path::PathBuf;

fn request_fixtures() -> Vec<Request> {
    vec![
        Request::RegisterWorker,
        Request::PublishBatch {
            name: "dresden-scans-vol2".into(),
            goal: JobGoal::OutputsPerTask(3),
            stimuli: vec![
                Stimulus::Image(11),
                Stimulus::Word("archive".into()),
                Stimulus::TextSnippet("ye olde print".into()),
            ],
        },
        Request::PublishGold {
            stimulus: Stimulus::Image(42),
            accepted: vec![Label::new("cat"), Label::new("kitten")],
        },
        Request::OpenSession {
            player: PlayerId::new(4),
            at: SimTime::from_secs(10),
        },
        Request::PollSession {
            player: PlayerId::new(4),
        },
        Request::RequestTask {
            session: SessionId::new(2),
            player: PlayerId::new(4),
            at: SimTime::from_secs(11),
        },
        Request::SubmitAnswer {
            session: SessionId::new(2),
            player: PlayerId::new(4),
            answer: Answer::text("tabby"),
            at: SimTime::from_secs(12),
        },
        Request::SubmitAnswer {
            session: SessionId::new(2),
            player: PlayerId::new(5),
            answer: Answer::Pass,
            at: SimTime::from_secs(13),
        },
        Request::CloseSession {
            session: SessionId::new(2),
            at: SimTime::from_secs(14),
        },
        Request::JobStatus { job: JobId::new(0) },
        Request::TaskStatus {
            task: TaskId::new(9),
        },
        Request::CancelJob {
            job: JobId::new(0),
            at: SimTime::from_secs(15),
        },
        Request::ExportResults { job: JobId::new(0) },
        Request::Aggregate {
            job: JobId::new(0),
            threshold: 2,
        },
        Request::Metrics,
    ]
}

fn error_fixtures() -> Vec<ServeError> {
    vec![
        ServeError::UnknownTask {
            task: TaskId::new(9),
        },
        ServeError::UnknownJob { job: JobId::new(1) },
        ServeError::UnknownPlayer {
            player: PlayerId::new(3),
        },
        ServeError::UnknownSession {
            session: SessionId::new(8),
        },
        ServeError::NotInSession {
            session: SessionId::new(8),
            player: PlayerId::new(3),
        },
        ServeError::AlreadyWaiting {
            player: PlayerId::new(3),
        },
        ServeError::AlreadyInSession {
            player: PlayerId::new(3),
            session: SessionId::new(8),
        },
        ServeError::NoTaskAvailable {
            session: SessionId::new(8),
        },
        ServeError::NoAssignment {
            session: SessionId::new(8),
        },
        ServeError::DuplicateAnswer {
            session: SessionId::new(8),
            player: PlayerId::new(3),
        },
        ServeError::TabooLabel {
            label: Label::new("cat"),
        },
        ServeError::AnswerKindMismatch {
            expected: "text or pass".into(),
            got: "verdict".into(),
        },
        ServeError::SessionOver {
            session: SessionId::new(8),
        },
        ServeError::EmptyBatch,
        ServeError::InvalidRequest {
            reason: "empty label after normalization".into(),
        },
    ]
}

fn response_fixtures() -> Vec<Response> {
    let mut out = vec![
        Response::WorkerRegistered {
            player: PlayerId::new(4),
        },
        Response::BatchPublished {
            job: JobId::new(0),
            tasks: vec![TaskId::new(0), TaskId::new(1), TaskId::new(2)],
        },
        Response::GoldPublished {
            task: TaskId::new(3),
        },
        Response::SessionQueued {
            player: PlayerId::new(4),
            waiting: 1,
        },
        Response::SessionOpened {
            session: SessionId::new(2),
            players: [PlayerId::new(4), PlayerId::new(5)],
        },
        Response::SessionStatus {
            player: PlayerId::new(4),
            phase: SessionPhase::Idle,
        },
        Response::SessionStatus {
            player: PlayerId::new(4),
            phase: SessionPhase::Waiting,
        },
        Response::SessionStatus {
            player: PlayerId::new(4),
            phase: SessionPhase::Seated {
                session: SessionId::new(2),
            },
        },
        Response::TaskAssigned {
            session: SessionId::new(2),
            round: 1,
            task: TaskId::new(0),
            stimulus: Stimulus::Image(11),
            taboo: vec![Label::new("cat")],
        },
        Response::AnswerRecorded {
            session: SessionId::new(2),
            round: 1,
            outcome: RoundOutcome::Waiting,
        },
        Response::AnswerRecorded {
            session: SessionId::new(2),
            round: 1,
            outcome: RoundOutcome::Matched {
                label: Label::new("tabby"),
                promoted: true,
            },
        },
        Response::AnswerRecorded {
            session: SessionId::new(2),
            round: 2,
            outcome: RoundOutcome::Mismatched,
        },
        Response::AnswerRecorded {
            session: SessionId::new(2),
            round: 3,
            outcome: RoundOutcome::Passed,
        },
        Response::SessionClosed {
            session: SessionId::new(2),
            rounds: 3,
            matched: 1,
            points: [100, 100],
        },
        Response::JobStatusReport {
            job: JobId::new(0),
            state: JobState::Active,
            tasks: 3,
            outputs: 1,
            progress_pct: 11,
        },
        Response::TaskStatusReport {
            task: TaskId::new(0),
            state: TaskState::InProgress,
            times_served: 2,
            verified: 1,
            taboo: vec![Label::new("tabby")],
        },
        Response::JobCancelled { job: JobId::new(0) },
        Response::ResultsExported {
            job: JobId::new(0),
            labels: vec![ExportedLabel {
                task: TaskId::new(0),
                label: Label::new("tabby"),
                at: SimTime::from_secs(13),
            }],
        },
        Response::Aggregated {
            job: JobId::new(0),
            rows: vec![
                AggregateRow {
                    task: TaskId::new(0),
                    label: Some(Label::new("tabby")),
                    support: 2,
                    answers: 2,
                },
                AggregateRow {
                    task: TaskId::new(1),
                    label: None,
                    support: 0,
                    answers: 1,
                },
            ],
        },
        Response::MetricsReport {
            players: 2,
            waiting: 0,
            live_sessions: 1,
            sessions_recorded: 3,
            verified_labels: 5,
            rejected_agreements: 1,
        },
    ];
    out.extend(
        error_fixtures()
            .into_iter()
            .map(|error| Response::Error { error }),
    );
    out
}

/// Renders every fixture as `kind<TAB>json`, one per line — the frozen
/// wire image.
fn render_all() -> String {
    let mut out = String::new();
    for req in request_fixtures() {
        out.push_str(req.kind_name());
        out.push('\t');
        out.push_str(&serde_json::to_string(&req).expect("request encodes"));
        out.push('\n');
    }
    for resp in response_fixtures() {
        out.push_str(resp.kind_name());
        out.push('\t');
        out.push_str(&serde_json::to_string(&resp).expect("response encodes"));
        out.push('\n');
    }
    out
}

#[test]
fn every_request_variant_is_covered() {
    let kinds: Vec<&str> = request_fixtures().iter().map(|r| r.kind_name()).collect();
    let expected = [
        "register_worker",
        "publish_batch",
        "publish_gold",
        "open_session",
        "poll_session",
        "request_task",
        "submit_answer",
        "close_session",
        "job_status",
        "task_status",
        "cancel_job",
        "export_results",
        "aggregate",
        "metrics",
    ];
    for kind in expected {
        assert!(kinds.contains(&kind), "missing request fixture for {kind}");
    }
}

#[test]
fn every_response_variant_is_covered() {
    let kinds: Vec<&str> = response_fixtures().iter().map(|r| r.kind_name()).collect();
    let expected = [
        "worker_registered",
        "batch_published",
        "gold_published",
        "session_queued",
        "session_opened",
        "session_status",
        "task_assigned",
        "answer_recorded",
        "session_closed",
        "job_status_report",
        "task_status_report",
        "job_cancelled",
        "results_exported",
        "aggregated",
        "metrics_report",
        "error",
    ];
    for kind in expected {
        assert!(kinds.contains(&kind), "missing response fixture for {kind}");
    }
    // All 15 error variants ride along as Response::Error fixtures.
    let errors = response_fixtures().iter().filter(|r| r.is_error()).count();
    assert_eq!(errors, 15);
}

#[test]
fn requests_round_trip_through_strings_and_values() {
    for req in request_fixtures() {
        let s = serde_json::to_string(&req).expect("encodes");
        let back: Request = serde_json::from_str(&s).expect("decodes");
        assert_eq!(back, req, "string round-trip changed {}", req.kind_name());
        let v = serde_json::to_value(&req).expect("to_value");
        let back: Request = serde_json::from_value(v).expect("from_value");
        assert_eq!(back, req, "value round-trip changed {}", req.kind_name());
    }
}

#[test]
fn responses_round_trip_through_strings_and_values() {
    for resp in response_fixtures() {
        let s = serde_json::to_string(&resp).expect("encodes");
        let back: Response = serde_json::from_str(&s).expect("decodes");
        assert_eq!(back, resp, "string round-trip changed {}", resp.kind_name());
        let v = serde_json::to_value(&resp).expect("to_value");
        let back: Response = serde_json::from_value(v).expect("from_value");
        assert_eq!(back, resp, "value round-trip changed {}", resp.kind_name());
    }
}

/// Labels arriving as text normalize on decode, exactly as
/// `Label::new` would: the service never sees raw player spelling.
#[test]
fn text_labels_normalize_on_decode() {
    let answer: Answer = serde_json::from_str(r#"{"Text":"  CAT! "}"#).expect("decodes");
    assert_eq!(answer, Answer::text("cat"));
    let line =
        r#"{"SubmitAnswer":{"session":2,"player":4,"answer":{"Text":"Tabbies!"},"at":12000000}}"#;
    let request: Request = serde_json::from_str(line).expect("decodes");
    assert_eq!(
        request,
        Request::SubmitAnswer {
            session: SessionId::new(2),
            player: PlayerId::new(4),
            answer: Answer::text("tabby"),
            at: SimTime::from_secs(12),
        }
    );
}

#[test]
fn wire_image_matches_golden() {
    assert_eq!(
        render_all(),
        include_str!("golden/wire.txt"),
        "wire format drifted; regenerate the golden file if intentional"
    );
}

/// Rewrites the golden file. Run explicitly after intentional changes:
/// `cargo test -p hc-serve --test wire_golden -- --ignored regenerate`.
#[test]
#[ignore = "regenerates golden files; run explicitly"]
fn regenerate() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("wire.txt");
    std::fs::create_dir_all(path.parent().expect("has parent")).expect("mkdir");
    std::fs::write(&path, render_all()).expect("write golden");
}
