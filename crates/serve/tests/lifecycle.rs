//! End-to-end lifecycle coverage: publish → pair → play → export,
//! plus the typed-error surface.

use hc_core::jobs::{JobGoal, JobState};
use hc_core::{Answer, Label, PlayerId, SessionId, Stimulus, TaskId};
use hc_serve::{Request, Response, RoundOutcome, ServeError, Service, ServiceConfig, SessionPhase};
use hc_sim::SimTime;

fn svc() -> Service {
    Service::new(ServiceConfig::default()).expect("default config is valid")
}

fn register(svc: &mut Service) -> PlayerId {
    match svc.handle(&Request::RegisterWorker) {
        Response::WorkerRegistered { player } => player,
        other => panic!("unexpected: {other:?}"),
    }
}

fn publish(svc: &mut Service, n: u64) -> (hc_core::JobId, Vec<TaskId>) {
    let stimuli: Vec<Stimulus> = (0..n).map(Stimulus::Image).collect();
    match svc.handle(&Request::PublishBatch {
        name: "batch".into(),
        goal: JobGoal::OutputsPerTask(1),
        stimuli,
    }) {
        Response::BatchPublished { job, tasks } => (job, tasks),
        other => panic!("unexpected: {other:?}"),
    }
}

/// Queues one player then pairs a second, returning the session.
fn seat_pair(svc: &mut Service, a: PlayerId, b: PlayerId, at: SimTime) -> SessionId {
    match svc.handle(&Request::OpenSession { player: a, at }) {
        Response::SessionQueued { waiting, .. } => assert_eq!(waiting, 1),
        other => panic!("unexpected: {other:?}"),
    }
    match svc.handle(&Request::OpenSession { player: b, at }) {
        Response::SessionOpened { session, players } => {
            assert_eq!(players, [a, b], "earlier arrival takes the left seat");
            session
        }
        other => panic!("unexpected: {other:?}"),
    }
}

#[test]
fn full_lifecycle_produces_verified_labels() {
    let mut svc = svc();
    let (job, tasks) = publish(&mut svc, 3);
    assert_eq!(tasks.len(), 3);
    let a = register(&mut svc);
    let b = register(&mut svc);

    let t0 = SimTime::from_secs(1);
    let session = seat_pair(&mut svc, a, b, t0);

    // Both seats poll the same assignment.
    let assigned = svc.handle(&Request::RequestTask {
        session,
        player: a,
        at: t0,
    });
    let Response::TaskAssigned {
        round, task, taboo, ..
    } = assigned.clone()
    else {
        panic!("unexpected: {assigned:?}");
    };
    assert_eq!(round, 1);
    assert!(taboo.is_empty());
    let again = svc.handle(&Request::RequestTask {
        session,
        player: b,
        at: t0,
    });
    assert_eq!(
        assigned, again,
        "second asker sees the identical assignment"
    );

    // Agreement on "cat" promotes at the default threshold of 1.
    let r1 = svc.handle(&Request::SubmitAnswer {
        session,
        player: a,
        answer: Answer::text("Cat"),
        at: SimTime::from_secs(2),
    });
    assert!(matches!(
        r1,
        Response::AnswerRecorded {
            outcome: RoundOutcome::Waiting,
            ..
        }
    ));
    let r2 = svc.handle(&Request::SubmitAnswer {
        session,
        player: b,
        answer: Answer::text("cat"),
        at: SimTime::from_secs(3),
    });
    match r2 {
        Response::AnswerRecorded {
            outcome: RoundOutcome::Matched { label, promoted },
            ..
        } => {
            assert_eq!(label, Label::new("cat"));
            assert!(promoted);
        }
        other => panic!("unexpected: {other:?}"),
    }

    // The promoted label is now taboo on that task.
    match svc.handle(&Request::TaskStatus { task }) {
        Response::TaskStatusReport {
            verified, taboo, ..
        } => {
            assert_eq!(verified, 1);
            assert_eq!(taboo, vec![Label::new("cat")]);
        }
        other => panic!("unexpected: {other:?}"),
    }

    let closed = svc.handle(&Request::CloseSession {
        session,
        at: SimTime::from_secs(4),
    });
    match closed {
        Response::SessionClosed {
            rounds, matched, ..
        } => {
            assert_eq!(rounds, 1);
            assert_eq!(matched, 1);
        }
        other => panic!("unexpected: {other:?}"),
    }

    match svc.handle(&Request::JobStatus { job }) {
        Response::JobStatusReport { outputs, tasks, .. } => {
            assert_eq!(outputs, 1);
            assert_eq!(tasks, 3);
        }
        other => panic!("unexpected: {other:?}"),
    }

    match svc.handle(&Request::ExportResults { job }) {
        Response::ResultsExported { labels, .. } => {
            assert_eq!(labels.len(), 1);
            assert_eq!(labels[0].task, task);
            assert_eq!(labels[0].label, Label::new("cat"));
        }
        other => panic!("unexpected: {other:?}"),
    }

    match svc.handle(&Request::Aggregate { job, threshold: 1 }) {
        Response::Aggregated { rows, .. } => {
            assert_eq!(rows.len(), 3);
            let hit = rows.iter().find(|r| r.task == task).expect("row for task");
            assert_eq!(hit.label, Some(Label::new("cat")));
            assert_eq!(hit.support, 2);
            assert_eq!(hit.answers, 2);
        }
        other => panic!("unexpected: {other:?}"),
    }

    match svc.handle(&Request::Metrics) {
        Response::MetricsReport {
            players,
            waiting,
            live_sessions,
            sessions_recorded,
            verified_labels,
            ..
        } => {
            assert_eq!(players, 2);
            assert_eq!(waiting, 0);
            assert_eq!(live_sessions, 0);
            assert_eq!(sessions_recorded, 1);
            assert_eq!(verified_labels, 1);
        }
        other => panic!("unexpected: {other:?}"),
    }
}

#[test]
fn poll_session_tracks_phases() {
    let mut svc = svc();
    publish(&mut svc, 1);
    let a = register(&mut svc);
    let b = register(&mut svc);
    let phase = |svc: &mut Service, p| match svc.handle(&Request::PollSession { player: p }) {
        Response::SessionStatus { phase, .. } => phase,
        other => panic!("unexpected: {other:?}"),
    };
    assert_eq!(phase(&mut svc, a), SessionPhase::Idle);
    svc.handle(&Request::OpenSession {
        player: a,
        at: SimTime::ZERO,
    });
    assert_eq!(phase(&mut svc, a), SessionPhase::Waiting);
    let session = match svc.handle(&Request::OpenSession {
        player: b,
        at: SimTime::ZERO,
    }) {
        Response::SessionOpened { session, .. } => session,
        other => panic!("unexpected: {other:?}"),
    };
    assert_eq!(phase(&mut svc, a), SessionPhase::Seated { session });
    svc.handle(&Request::CloseSession {
        session,
        at: SimTime::from_secs(1),
    });
    assert_eq!(phase(&mut svc, a), SessionPhase::Idle);
    assert_eq!(phase(&mut svc, b), SessionPhase::Idle);
}

#[test]
fn mismatch_pass_and_taboo_paths() {
    let mut svc = svc();
    publish(&mut svc, 2);
    let a = register(&mut svc);
    let b = register(&mut svc);
    let session = seat_pair(&mut svc, a, b, SimTime::ZERO);
    let task = match svc.handle(&Request::RequestTask {
        session,
        player: a,
        at: SimTime::ZERO,
    }) {
        Response::TaskAssigned { task, .. } => task,
        other => panic!("unexpected: {other:?}"),
    };

    // Round 1: disagreement.
    svc.handle(&Request::SubmitAnswer {
        session,
        player: a,
        answer: Answer::text("dog"),
        at: SimTime::from_secs(1),
    });
    let r = svc.handle(&Request::SubmitAnswer {
        session,
        player: b,
        answer: Answer::text("fish"),
        at: SimTime::from_secs(1),
    });
    assert!(matches!(
        r,
        Response::AnswerRecorded {
            outcome: RoundOutcome::Mismatched,
            ..
        }
    ));
    match svc.handle(&Request::TaskStatus { task }) {
        Response::TaskStatusReport { verified, .. } => assert_eq!(verified, 0),
        other => panic!("unexpected: {other:?}"),
    }

    // Round 2: both pass.
    svc.handle(&Request::RequestTask {
        session,
        player: a,
        at: SimTime::from_secs(2),
    });
    svc.handle(&Request::SubmitAnswer {
        session,
        player: a,
        answer: Answer::Pass,
        at: SimTime::from_secs(2),
    });
    let r = svc.handle(&Request::SubmitAnswer {
        session,
        player: b,
        answer: Answer::Pass,
        at: SimTime::from_secs(2),
    });
    assert!(matches!(
        r,
        Response::AnswerRecorded {
            outcome: RoundOutcome::Passed,
            ..
        }
    ));
}

#[test]
fn typed_errors_cover_misuse() {
    let mut svc = svc();
    let err = |resp: Response| -> ServeError {
        match resp {
            Response::Error { error } => error,
            other => panic!("expected an error, got {other:?}"),
        }
    };

    // Unknown entities.
    assert!(matches!(
        err(svc.handle(&Request::PollSession {
            player: PlayerId::new(99)
        })),
        ServeError::UnknownPlayer { .. }
    ));
    assert!(matches!(
        err(svc.handle(&Request::JobStatus {
            job: hc_core::JobId::new(7)
        })),
        ServeError::UnknownJob { .. }
    ));
    assert!(matches!(
        err(svc.handle(&Request::TaskStatus {
            task: TaskId::new(7)
        })),
        ServeError::UnknownTask { .. }
    ));
    assert!(matches!(
        err(svc.handle(&Request::CloseSession {
            session: SessionId::new(3),
            at: SimTime::ZERO,
        })),
        ServeError::UnknownSession { .. }
    ));

    // Empty batch and empty gold.
    assert!(matches!(
        err(svc.handle(&Request::PublishBatch {
            name: "empty".into(),
            goal: JobGoal::OutputsPerTask(1),
            stimuli: vec![],
        })),
        ServeError::EmptyBatch
    ));
    assert!(matches!(
        err(svc.handle(&Request::PublishGold {
            stimulus: Stimulus::Image(0),
            accepted: vec![],
        })),
        ServeError::InvalidRequest { .. }
    ));

    // Double-open and in-session misuse.
    publish(&mut svc, 1);
    let a = register(&mut svc);
    let b = register(&mut svc);
    let c = register(&mut svc);
    svc.handle(&Request::OpenSession {
        player: a,
        at: SimTime::ZERO,
    });
    assert!(matches!(
        err(svc.handle(&Request::OpenSession {
            player: a,
            at: SimTime::ZERO,
        })),
        ServeError::AlreadyWaiting { .. }
    ));
    let session = match svc.handle(&Request::OpenSession {
        player: b,
        at: SimTime::ZERO,
    }) {
        Response::SessionOpened { session, .. } => session,
        other => panic!("unexpected: {other:?}"),
    };
    assert!(matches!(
        err(svc.handle(&Request::OpenSession {
            player: b,
            at: SimTime::ZERO,
        })),
        ServeError::AlreadyInSession { .. }
    ));
    assert!(matches!(
        err(svc.handle(&Request::RequestTask {
            session,
            player: c,
            at: SimTime::ZERO,
        })),
        ServeError::NotInSession { .. }
    ));

    // Answer without an assignment, then answer-kind and duplicate checks.
    assert!(matches!(
        err(svc.handle(&Request::SubmitAnswer {
            session,
            player: a,
            answer: Answer::text("x"),
            at: SimTime::ZERO,
        })),
        ServeError::NoAssignment { .. }
    ));
    svc.handle(&Request::RequestTask {
        session,
        player: a,
        at: SimTime::ZERO,
    });
    assert!(matches!(
        err(svc.handle(&Request::SubmitAnswer {
            session,
            player: a,
            answer: Answer::Choice(2),
            at: SimTime::ZERO,
        })),
        ServeError::AnswerKindMismatch { .. }
    ));
    svc.handle(&Request::SubmitAnswer {
        session,
        player: a,
        answer: Answer::text("x"),
        at: SimTime::ZERO,
    });
    assert!(matches!(
        err(svc.handle(&Request::SubmitAnswer {
            session,
            player: a,
            answer: Answer::text("y"),
            at: SimTime::ZERO,
        })),
        ServeError::DuplicateAnswer { .. }
    ));
}

#[test]
fn taboo_label_is_rejected_on_resubmission() {
    let mut svc = svc();
    publish(&mut svc, 1);
    let a = register(&mut svc);
    let b = register(&mut svc);
    let session = seat_pair(&mut svc, a, b, SimTime::ZERO);
    svc.handle(&Request::RequestTask {
        session,
        player: a,
        at: SimTime::ZERO,
    });
    svc.handle(&Request::SubmitAnswer {
        session,
        player: a,
        answer: Answer::text("sun"),
        at: SimTime::ZERO,
    });
    svc.handle(&Request::SubmitAnswer {
        session,
        player: b,
        answer: Answer::text("sun"),
        at: SimTime::ZERO,
    });
    // Same task comes back only to a fresh pair; instead drive a second
    // pair onto the single (now-tabooed) task.
    let c = register(&mut svc);
    let d = register(&mut svc);
    let s2 = seat_pair(&mut svc, c, d, SimTime::from_secs(5));
    let taboo = match svc.handle(&Request::RequestTask {
        session: s2,
        player: c,
        at: SimTime::from_secs(5),
    }) {
        Response::TaskAssigned { taboo, .. } => taboo,
        other => panic!("unexpected: {other:?}"),
    };
    assert_eq!(taboo, vec![Label::new("sun")]);
    let r = svc.handle(&Request::SubmitAnswer {
        session: s2,
        player: c,
        answer: Answer::text("Sun"),
        at: SimTime::from_secs(6),
    });
    match r {
        Response::Error {
            error: ServeError::TabooLabel { label },
        } => assert_eq!(label, Label::new("sun")),
        other => panic!("unexpected: {other:?}"),
    }
}

/// Raw wire spellings normalize before the service compares them: a
/// re-cased, re-punctuated taboo word is refused, and differently cased
/// answers agree.
#[test]
fn wire_spellings_normalize_before_taboo_and_agreement() {
    let mut svc = svc();
    publish(&mut svc, 1);
    let a = register(&mut svc);
    let b = register(&mut svc);
    let s1 = seat_pair(&mut svc, a, b, SimTime::ZERO);
    let line = |svc: &mut Service, json: String| -> Response {
        serde_json::from_str(&hc_serve::front::handle_line(&json, svc)).expect("a response")
    };
    let submit = |session: SessionId, player: PlayerId, text: &str, secs: u64| {
        format!(
            r#"{{"SubmitAnswer":{{"session":{},"player":{},"answer":{{"Text":{text:?}}},"at":{}}}}}"#,
            session.raw(),
            player.raw(),
            SimTime::from_secs(secs).ticks()
        )
    };
    svc.handle(&Request::RequestTask {
        session: s1,
        player: a,
        at: SimTime::ZERO,
    });
    line(&mut svc, submit(s1, a, "  SUN! ", 1));
    match line(&mut svc, submit(s1, b, "sun", 2)) {
        Response::AnswerRecorded {
            outcome: RoundOutcome::Matched { label, promoted },
            ..
        } => {
            assert_eq!(label, Label::new("sun"));
            assert!(promoted);
        }
        other => panic!("differently cased answers must agree: {other:?}"),
    }
    // A fresh pair on the now-tabooed task.
    let c = register(&mut svc);
    let d = register(&mut svc);
    let s2 = seat_pair(&mut svc, c, d, SimTime::from_secs(5));
    svc.handle(&Request::RequestTask {
        session: s2,
        player: c,
        at: SimTime::from_secs(5),
    });
    for spelling in ["Sun!", "  SUNS ", "sun."] {
        match line(&mut svc, submit(s2, c, spelling, 6)) {
            Response::Error {
                error: ServeError::TabooLabel { label },
            } => assert_eq!(label, Label::new("sun")),
            other => panic!("taboo spelling {spelling:?} must be refused: {other:?}"),
        }
    }
}

#[test]
fn cancel_job_stops_it_and_is_idempotent() {
    let mut svc = svc();
    let (job, _) = publish(&mut svc, 2);
    let r = svc.handle(&Request::CancelJob {
        job,
        at: SimTime::from_secs(9),
    });
    assert!(matches!(r, Response::JobCancelled { .. }));
    match svc.handle(&Request::JobStatus { job }) {
        Response::JobStatusReport { state, .. } => assert_eq!(state, JobState::Cancelled),
        other => panic!("unexpected: {other:?}"),
    }
    // Second cancel is a no-op, not an error.
    let r = svc.handle(&Request::CancelJob {
        job,
        at: SimTime::from_secs(10),
    });
    assert!(matches!(r, Response::JobCancelled { .. }));
}
