//! The streaming codec against the tree codec it replaced.
//!
//! `oracle` keeps the old path (parse to a `Value` tree, convert the
//! tree, render per `char`). Over arbitrary `Request`/`Response` values
//! and over mutations of every line of `golden/wire.txt`, this suite
//! checks that
//!
//! 1. the typed encode equals the oracle's render, byte for byte;
//! 2. the typed decode and the oracle decode are both `Err`, or both
//!    `Ok` with equal values;
//! 3. nothing panics.

#[macro_use]
mod oracle;

use hc_core::jobs::{JobGoal, JobState};
use hc_core::{
    Answer, JobId, Label, PlayerId, Region, SessionId, Stimulus, TaskId, TaskState, Verdict,
};
use hc_serve::{
    AggregateRow, ExportedLabel, Request, Response, RoundOutcome, ServeError, SessionPhase,
};
use hc_sim::SimTime;
use oracle::Tree;
use proptest::prelude::*;
use serde_json::{Number, Value};

tree_newtype!(PlayerId, u64, PlayerId::new, |id| id.raw());
tree_newtype!(SessionId, u64, SessionId::new, |id| id.raw());
tree_newtype!(TaskId, u64, TaskId::new, |id| id.raw());
tree_newtype!(JobId, u64, JobId::new, |id| id.raw());
tree_newtype!(SimTime, u64, SimTime::from_ticks, |t| t.ticks());
// `Label`'s constructor normalizes; the old derive wrapped the string
// as-is, which the leaf reproduces through a plain JSON string.
tree_newtype!(Label, String, raw_label, |l| l.as_str().to_string());

fn raw_label(s: String) -> Label {
    serde_json::from_str(&serde_json::to_string(&s).expect("encodes")).expect("a string is a label")
}

tree_struct!(Region { x, y, w, h });
tree_struct!(ExportedLabel { task, label, at });
tree_struct!(AggregateRow {
    task,
    label,
    support,
    answers
});

tree_enum!(Verdict; unit: Same, Different; newtype: ; named: );
tree_enum!(JobState; unit: Active, Completed, Cancelled; newtype: ; named: );
tree_enum!(TaskState; unit: Fresh, InProgress, Completed, Retired; newtype: ; named: );
tree_enum!(JobGoal; unit: ; newtype: OutputsPerTask, TotalOutputs; named: );
tree_enum!(Stimulus; unit: ; newtype: Image, AudioClip, Word, TextSnippet, Custom; named: );
tree_enum!(Answer; unit: Pass; newtype: Text, Verdict, Region, Choice; named: );
tree_enum!(SessionPhase; unit: Idle, Waiting; newtype: ; named: Seated { session });
tree_enum!(RoundOutcome;
    unit: Waiting, Mismatched, Passed;
    newtype: ;
    named: Matched { label, promoted });
tree_enum!(Request;
    unit: RegisterWorker, Metrics;
    newtype: ;
    named:
        PublishBatch { name, goal, stimuli },
        PublishGold { stimulus, accepted },
        OpenSession { player, at },
        PollSession { player },
        RequestTask { session, player, at },
        SubmitAnswer { session, player, answer, at },
        CloseSession { session, at },
        JobStatus { job },
        TaskStatus { task },
        CancelJob { job, at },
        ExportResults { job },
        Aggregate { job, threshold });
tree_enum!(ServeError;
    unit: EmptyBatch;
    newtype: ;
    named:
        UnknownTask { task },
        UnknownJob { job },
        UnknownPlayer { player },
        UnknownSession { session },
        NotInSession { session, player },
        AlreadyWaiting { player },
        AlreadyInSession { player, session },
        NoTaskAvailable { session },
        NoAssignment { session },
        DuplicateAnswer { session, player },
        TabooLabel { label },
        AnswerKindMismatch { expected, got },
        SessionOver { session },
        InvalidRequest { reason });
tree_enum!(Response;
    unit: ;
    newtype: ;
    named:
        WorkerRegistered { player },
        BatchPublished { job, tasks },
        GoldPublished { task },
        SessionQueued { player, waiting },
        SessionOpened { session, players },
        SessionStatus { player, phase },
        TaskAssigned { session, round, task, stimulus, taboo },
        AnswerRecorded { session, round, outcome },
        SessionClosed { session, rounds, matched, points },
        JobStatusReport { job, state, tasks, outputs, progress_pct },
        TaskStatusReport { task, state, times_served, verified, taboo },
        JobCancelled { job },
        ResultsExported { job, labels },
        Aggregated { job, rows },
        MetricsReport { players, waiting, live_sessions, sessions_recorded, verified_labels,
            rejected_agreements },
        Error { error });

// ---------------------------------------------------------------------------
// Arbitrary wire values
// ---------------------------------------------------------------------------

/// A xorshift stream that builds one arbitrary value per seed.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Small numbers mostly, the extremes sometimes.
    fn u64(&mut self) -> u64 {
        match self.below(8) {
            0 => u64::MAX - self.below(3),
            1 => 0,
            2 => self.next(),
            _ => self.below(1000),
        }
    }

    fn u32(&mut self) -> u32 {
        match self.below(6) {
            0 => u32::MAX,
            _ => u32::try_from(self.below(1000)).expect("small"),
        }
    }

    /// Strings over an alphabet that exercises every escape class.
    fn string(&mut self) -> String {
        const ALPHABET: [&str; 14] = [
            "a",
            "Z",
            " ",
            "\"",
            "\\",
            "/",
            "\n",
            "\r",
            "\t",
            "\u{1}",
            "\u{1f}",
            "\u{7f}",
            "é",
            "\u{1F600}",
        ];
        let len = self.below(12);
        (0..len)
            .map(|_| ALPHABET[usize::try_from(self.below(14)).expect("small")])
            .collect()
    }

    fn label(&mut self) -> Label {
        raw_label(self.string())
    }

    fn labels(&mut self) -> Vec<Label> {
        (0..self.below(4)).map(|_| self.label()).collect()
    }

    fn stimulus(&mut self) -> Stimulus {
        match self.below(5) {
            0 => Stimulus::Image(self.u64()),
            1 => Stimulus::AudioClip(self.u64()),
            2 => Stimulus::Word(self.string()),
            3 => Stimulus::TextSnippet(self.string()),
            _ => Stimulus::Custom(self.u64()),
        }
    }

    fn answer(&mut self) -> Answer {
        match self.below(5) {
            0 => Answer::Text(self.label()),
            1 => Answer::Verdict(if self.below(2) == 0 {
                Verdict::Same
            } else {
                Verdict::Different
            }),
            2 => Answer::Region(Region {
                x: self.u32(),
                y: self.u32(),
                w: self.u32(),
                h: self.u32(),
            }),
            3 => Answer::Choice(self.u32()),
            _ => Answer::Pass,
        }
    }

    fn player(&mut self) -> PlayerId {
        PlayerId::new(self.u64())
    }

    fn session(&mut self) -> SessionId {
        SessionId::new(self.u64())
    }

    fn task(&mut self) -> TaskId {
        TaskId::new(self.u64())
    }

    fn job(&mut self) -> JobId {
        JobId::new(self.u64())
    }

    fn at(&mut self) -> SimTime {
        SimTime::from_ticks(self.u64())
    }

    fn request(&mut self) -> Request {
        match self.below(14) {
            0 => Request::RegisterWorker,
            1 => Request::PublishBatch {
                name: self.string(),
                goal: if self.below(2) == 0 {
                    JobGoal::OutputsPerTask(self.u32())
                } else {
                    JobGoal::TotalOutputs(self.u64())
                },
                stimuli: (0..self.below(4)).map(|_| self.stimulus()).collect(),
            },
            2 => Request::PublishGold {
                stimulus: self.stimulus(),
                accepted: self.labels(),
            },
            3 => Request::OpenSession {
                player: self.player(),
                at: self.at(),
            },
            4 => Request::PollSession {
                player: self.player(),
            },
            5 => Request::RequestTask {
                session: self.session(),
                player: self.player(),
                at: self.at(),
            },
            6 => Request::SubmitAnswer {
                session: self.session(),
                player: self.player(),
                answer: self.answer(),
                at: self.at(),
            },
            7 => Request::CloseSession {
                session: self.session(),
                at: self.at(),
            },
            8 => Request::JobStatus { job: self.job() },
            9 => Request::TaskStatus { task: self.task() },
            10 => Request::CancelJob {
                job: self.job(),
                at: self.at(),
            },
            11 => Request::ExportResults { job: self.job() },
            12 => Request::Aggregate {
                job: self.job(),
                threshold: self.u32(),
            },
            _ => Request::Metrics,
        }
    }

    fn error(&mut self) -> ServeError {
        match self.below(15) {
            0 => ServeError::UnknownTask { task: self.task() },
            1 => ServeError::UnknownJob { job: self.job() },
            2 => ServeError::UnknownPlayer {
                player: self.player(),
            },
            3 => ServeError::UnknownSession {
                session: self.session(),
            },
            4 => ServeError::NotInSession {
                session: self.session(),
                player: self.player(),
            },
            5 => ServeError::AlreadyWaiting {
                player: self.player(),
            },
            6 => ServeError::AlreadyInSession {
                player: self.player(),
                session: self.session(),
            },
            7 => ServeError::NoTaskAvailable {
                session: self.session(),
            },
            8 => ServeError::NoAssignment {
                session: self.session(),
            },
            9 => ServeError::DuplicateAnswer {
                session: self.session(),
                player: self.player(),
            },
            10 => ServeError::TabooLabel {
                label: self.label(),
            },
            11 => ServeError::AnswerKindMismatch {
                expected: self.string(),
                got: self.string(),
            },
            12 => ServeError::SessionOver {
                session: self.session(),
            },
            13 => ServeError::EmptyBatch,
            _ => ServeError::InvalidRequest {
                reason: self.string(),
            },
        }
    }

    fn response(&mut self) -> Response {
        match self.below(16) {
            0 => Response::WorkerRegistered {
                player: self.player(),
            },
            1 => Response::BatchPublished {
                job: self.job(),
                tasks: (0..self.below(4)).map(|_| self.task()).collect(),
            },
            2 => Response::GoldPublished { task: self.task() },
            3 => Response::SessionQueued {
                player: self.player(),
                waiting: self.u32(),
            },
            4 => Response::SessionOpened {
                session: self.session(),
                players: [self.player(), self.player()],
            },
            5 => Response::SessionStatus {
                player: self.player(),
                phase: match self.below(3) {
                    0 => SessionPhase::Idle,
                    1 => SessionPhase::Waiting,
                    _ => SessionPhase::Seated {
                        session: self.session(),
                    },
                },
            },
            6 => Response::TaskAssigned {
                session: self.session(),
                round: self.u32(),
                task: self.task(),
                stimulus: self.stimulus(),
                taboo: self.labels(),
            },
            7 => Response::AnswerRecorded {
                session: self.session(),
                round: self.u32(),
                outcome: match self.below(4) {
                    0 => RoundOutcome::Waiting,
                    1 => RoundOutcome::Matched {
                        label: self.label(),
                        promoted: self.below(2) == 0,
                    },
                    2 => RoundOutcome::Mismatched,
                    _ => RoundOutcome::Passed,
                },
            },
            8 => Response::SessionClosed {
                session: self.session(),
                rounds: self.u32(),
                matched: self.u32(),
                points: [self.u64(), self.u64()],
            },
            9 => Response::JobStatusReport {
                job: self.job(),
                state: match self.below(3) {
                    0 => JobState::Active,
                    1 => JobState::Completed,
                    _ => JobState::Cancelled,
                },
                tasks: self.u32(),
                outputs: self.u64(),
                progress_pct: self.u32(),
            },
            10 => Response::TaskStatusReport {
                task: self.task(),
                state: match self.below(4) {
                    0 => TaskState::Fresh,
                    1 => TaskState::InProgress,
                    2 => TaskState::Completed,
                    _ => TaskState::Retired,
                },
                times_served: self.u32(),
                verified: self.u32(),
                taboo: self.labels(),
            },
            11 => Response::JobCancelled { job: self.job() },
            12 => Response::ResultsExported {
                job: self.job(),
                labels: (0..self.below(3))
                    .map(|_| ExportedLabel {
                        task: self.task(),
                        label: self.label(),
                        at: self.at(),
                    })
                    .collect(),
            },
            13 => Response::Aggregated {
                job: self.job(),
                rows: (0..self.below(3))
                    .map(|_| AggregateRow {
                        task: self.task(),
                        label: (self.below(2) == 0).then(|| self.label()),
                        support: self.u32(),
                        answers: self.u32(),
                    })
                    .collect(),
            },
            14 => Response::MetricsReport {
                players: self.u64(),
                waiting: self.u32(),
                live_sessions: self.u32(),
                sessions_recorded: self.u64(),
                verified_labels: self.u64(),
                rejected_agreements: self.u64(),
            },
            _ => Response::Error {
                error: self.error(),
            },
        }
    }
}

// ---------------------------------------------------------------------------
// The three checks
// ---------------------------------------------------------------------------

/// Check 1, plus a round trip through both decoders.
fn check_encode<T>(value: &T) -> Result<(), TestCaseError>
where
    T: serde::Serialize + serde::de::DeserializeOwned + Tree + PartialEq + std::fmt::Debug,
{
    let typed = serde_json::to_string(value).expect("encodes");
    prop_assert_eq!(&typed, &oracle::render(&value.to_tree()));
    let back: T = serde_json::from_str(&typed).expect("own output decodes");
    prop_assert_eq!(&back, value);
    check_decode::<T>(&typed)
}

/// Check 2 on one input, for one target type.
fn check_decode<T>(text: &str) -> Result<(), TestCaseError>
where
    T: serde::de::DeserializeOwned + Tree + PartialEq + std::fmt::Debug,
{
    let typed = serde_json::from_str::<T>(text);
    let old = oracle::parse(text).and_then(|v| T::from_tree(&v));
    match (typed, old) {
        (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "decoders disagree on {:?}", text),
        (Err(_), Err(_)) => {}
        (a, b) => {
            return Err(TestCaseError::fail(format!(
                "decoders disagree on {text:?}: streaming {a:?}, oracle {b:?}"
            )))
        }
    }
    Ok(())
}

/// Check 2 for both wire directions.
fn check_both(text: &str) {
    let run = |r: Result<(), TestCaseError>| {
        if let Err(e) = r {
            panic!("{e:?}");
        }
    };
    run(check_decode::<Request>(text));
    run(check_decode::<Response>(text));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_requests_encode_and_decode_like_the_oracle(seed in any::<u64>()) {
        let request = Gen(seed | 1).request();
        check_encode(&request)?;
    }

    #[test]
    fn arbitrary_responses_encode_and_decode_like_the_oracle(seed in any::<u64>()) {
        let response = Gen(seed | 1).response();
        check_encode(&response)?;
    }
}

// ---------------------------------------------------------------------------
// Mutations of the golden wire image
// ---------------------------------------------------------------------------

/// The JSON half of every `kind<TAB>json` golden line.
fn golden_lines() -> Vec<&'static str> {
    include_str!("golden/wire.txt")
        .lines()
        .map(|l| l.split_once('\t').expect("kind<TAB>json").1)
        .collect()
}

#[test]
fn golden_lines_decode_like_the_oracle() {
    for line in golden_lines() {
        check_both(line);
    }
}

#[test]
fn truncations_decode_like_the_oracle() {
    for line in golden_lines() {
        for end in 0..line.len() {
            if let Some(prefix) = line.get(..end) {
                check_both(prefix);
            }
        }
    }
}

#[test]
fn insertions_and_flips_decode_like_the_oracle() {
    const INSERTS: [u8; 8] = [b'"', b',', b'{', b']', b' ', b'\\', b'0', b'.'];
    for line in golden_lines() {
        let bytes = line.as_bytes();
        for at in 0..=bytes.len() {
            for b in INSERTS {
                let mut m = bytes.to_vec();
                m.insert(at, b);
                if let Ok(text) = String::from_utf8(m) {
                    check_both(&text);
                }
            }
            if at < bytes.len() {
                for mask in [0x01, 0x02, 0x20] {
                    let mut m = bytes.to_vec();
                    m[at] ^= mask;
                    if let Ok(text) = String::from_utf8(m) {
                        check_both(&text);
                    }
                }
            }
        }
    }
}

/// Every tree equal to `value` except that one node is replaced by one
/// of `edit(node)`.
fn each_node(value: &Value, edit: &dyn Fn(&Value) -> Vec<Value>) -> Vec<Value> {
    let mut out = edit(value);
    match value {
        Value::Array(items) => {
            for (i, item) in items.iter().enumerate() {
                for v in each_node(item, edit) {
                    let mut copy = items.clone();
                    copy[i] = v;
                    out.push(Value::Array(copy));
                }
            }
        }
        Value::Object(fields) => {
            for (i, (k, item)) in fields.iter().enumerate() {
                for v in each_node(item, edit) {
                    let mut copy = fields.clone();
                    copy[i] = (k.clone(), v);
                    out.push(Value::Object(copy));
                }
            }
        }
        _ => {}
    }
    out
}

/// `depth` nested empty arrays.
fn nested(depth: usize) -> Value {
    (0..depth).fold(Value::Array(Vec::new()), |inner, _| {
        Value::Array(vec![inner])
    })
}

/// Object edits: every key duplicated after and before itself (with its
/// own value and with a mismatched one), and unknown fields appended:
/// plain, and nested from just inside to just past the depth limit.
fn object_edits(value: &Value) -> Vec<Value> {
    let Value::Object(fields) = value else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for (i, (k, v)) in fields.iter().enumerate() {
        for dup in [v.clone(), Value::String("dup".into()), Value::Null] {
            let mut after = fields.clone();
            after.push((k.clone(), dup.clone()));
            out.push(Value::Object(after));
            let mut before = fields.clone();
            before.insert(i, (k.clone(), dup));
            out.push(Value::Object(before));
        }
    }
    let unknown = [
        Value::Null,
        Value::String("x".into()),
        Value::Object(vec![("a".into(), Value::Array(vec![Value::Bool(true)]))]),
    ];
    for extra in unknown.into_iter().chain((124..=130).map(nested)) {
        let mut with = fields.clone();
        with.push(("zz_unknown".into(), extra.clone()));
        out.push(Value::Object(with));
        let mut first = fields.clone();
        first.insert(0, ("aa_unknown".into(), extra));
        out.push(Value::Object(first));
    }
    out
}

/// Integers written as integral floats, and as out-of-range or
/// negative ones.
fn number_edits(value: &Value) -> Vec<Value> {
    match value {
        #[allow(clippy::cast_precision_loss)]
        Value::Number(Number::PosInt(x)) => vec![
            Value::Number(Number::Float(*x as f64)),
            Value::Number(Number::Float(*x as f64 + 0.5)),
            Value::Number(Number::NegInt(-1)),
            Value::Number(Number::PosInt(u64::MAX)),
        ],
        _ => Vec::new(),
    }
}

#[test]
fn tree_mutations_decode_like_the_oracle() {
    for line in golden_lines() {
        let tree = oracle::parse(line).expect("golden lines parse");
        for edit in [
            &object_edits as &dyn Fn(&Value) -> Vec<Value>,
            &number_edits,
        ] {
            for mutated in each_node(&tree, edit) {
                check_both(&oracle::render(&mutated));
            }
        }
    }
}

#[test]
fn unknown_field_values_are_validated_like_the_oracle() {
    // Rendered in place of the placeholder string, one token at a time:
    // malformed ones must fail both decoders, well-formed ones pass both.
    const PLACEHOLDER: &str = "\u{0}unknown";
    const TOKENS: [&str; 18] = [
        "x",
        "tru",
        "nul",
        "\"open",
        "\"\\q\"",
        "\"\\ud800\"",
        "[1,]",
        "{\"a\"}",
        "{\"a\":1,}",
        "-",
        "1e",
        "01",
        "1.",
        "-0",
        "1.5e3",
        "\"\\u00e9\\/\"",
        "[[],{}]",
        "{\"k\":[null,true]}",
    ];
    let add_unknown = |value: &Value| match value {
        Value::Object(fields) => {
            let mut with = fields.clone();
            with.push(("zz_unknown".into(), Value::String(PLACEHOLDER.into())));
            vec![Value::Object(with)]
        }
        _ => Vec::new(),
    };
    let placeholder = oracle::render(&Value::String(PLACEHOLDER.into()));
    for line in golden_lines() {
        let tree = oracle::parse(line).expect("golden lines parse");
        for mutated in each_node(&tree, &add_unknown) {
            let text = oracle::render(&mutated);
            for token in TOKENS {
                check_both(&text.replace(&placeholder, token));
            }
        }
    }
}

#[test]
fn integral_floats_are_accepted_for_integers() {
    let line = r#"{"Aggregate":{"job":7.0,"threshold":2.0}}"#;
    let request: Request = serde_json::from_str(line).expect("decodes");
    assert_eq!(
        request,
        Request::Aggregate {
            job: JobId::new(7),
            threshold: 2
        }
    );
    check_both(line);
}

#[test]
fn depth_limit_holds_inside_skipped_fields() {
    // `{"Aggregate":{...}}` opens two levels, so 126 more fit and 127 do not.
    let at = |depth: usize| {
        format!(
            r#"{{"Aggregate":{{"job":1,"threshold":2,"zz":{}}}}}"#,
            "[".repeat(depth) + &"]".repeat(depth)
        )
    };
    assert!(serde_json::from_str::<Request>(&at(126)).is_ok());
    assert!(serde_json::from_str::<Request>(&at(127)).is_err());
    check_both(&at(126));
    check_both(&at(127));
}
