//! Socket-front coverage: the line-JSON shim decodes requests, runs
//! the pure core, and encodes responses — including malformed input.

use hc_core::jobs::JobGoal;
use hc_core::Stimulus;
use hc_serve::front::{handle_line, render_response, Front};
use hc_serve::{Request, Response, Service, ServiceConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

#[test]
fn handle_line_round_trips_the_wire_path() {
    let mut svc = Service::new(ServiceConfig::default()).expect("config valid");
    let line = serde_json::to_string(&Request::RegisterWorker).expect("encodes");
    let reply = handle_line(&line, &mut svc);
    let parsed: Response = serde_json::from_str(&reply).expect("reply decodes");
    assert!(matches!(parsed, Response::WorkerRegistered { .. }));
}

#[test]
fn malformed_lines_become_invalid_request_responses() {
    let mut svc = Service::new(ServiceConfig::default()).expect("config valid");
    let reply = handle_line("{not json", &mut svc);
    let parsed: Response = serde_json::from_str(&reply).expect("reply decodes");
    assert!(parsed.is_error());
    // The broken line did not corrupt the service.
    let ok = handle_line(
        &serde_json::to_string(&Request::Metrics).expect("encodes"),
        &mut svc,
    );
    let parsed: Response = serde_json::from_str(&ok).expect("reply decodes");
    assert!(matches!(parsed, Response::MetricsReport { .. }));
}

#[test]
fn deeply_nested_lines_are_refused_not_fatal() {
    let mut svc = Service::new(ServiceConfig::default()).expect("config valid");
    let reply = handle_line(&"[".repeat(100_000), &mut svc);
    let parsed: Response = serde_json::from_str(&reply).expect("reply decodes");
    assert!(parsed.is_error());
    // The same service still answers a valid request.
    let ok = handle_line(
        &serde_json::to_string(&Request::RegisterWorker).expect("encodes"),
        &mut svc,
    );
    let parsed: Response = serde_json::from_str(&ok).expect("reply decodes");
    assert!(matches!(parsed, Response::WorkerRegistered { .. }));
}

#[test]
fn render_response_is_parseable_json() {
    let rendered = render_response(&Response::MetricsReport {
        players: 0,
        waiting: 0,
        live_sessions: 0,
        sessions_recorded: 0,
        verified_labels: 0,
        rejected_agreements: 0,
    });
    let parsed: Response = serde_json::from_str(&rendered).expect("decodes");
    assert!(matches!(parsed, Response::MetricsReport { .. }));
}

#[test]
fn tcp_front_serves_a_connection_to_eof() {
    let front = Front::bind("127.0.0.1:0").expect("bind");
    let addr = front.local_addr().expect("addr");
    let client = std::thread::spawn(move || {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let requests = [
            serde_json::to_string(&Request::RegisterWorker).expect("encodes"),
            serde_json::to_string(&Request::PublishBatch {
                name: "tcp".into(),
                goal: JobGoal::OutputsPerTask(1),
                stimuli: vec![Stimulus::Image(1)],
            })
            .expect("encodes"),
            "???".to_string(),
            serde_json::to_string(&Request::Metrics).expect("encodes"),
        ];
        for r in &requests {
            writeln!(writer, "{r}").expect("write");
        }
        // Half-close the write side so the server sees EOF.
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("shutdown");
        let reader = BufReader::new(stream);
        let replies: Vec<Response> = reader
            .lines()
            .map(|l| serde_json::from_str(&l.expect("read")).expect("decodes"))
            .collect();
        replies
    });

    let mut svc = Service::new(ServiceConfig::default()).expect("config valid");
    let handled = front.serve_one(&mut svc).expect("serve");
    assert_eq!(handled, 4);

    let replies = client.join().expect("client thread");
    assert_eq!(replies.len(), 4);
    assert!(matches!(replies[0], Response::WorkerRegistered { .. }));
    assert!(matches!(replies[1], Response::BatchPublished { .. }));
    assert!(replies[2].is_error());
    match &replies[3] {
        Response::MetricsReport { players, .. } => assert_eq!(*players, 1),
        other => panic!("unexpected: {other:?}"),
    }
}

#[test]
fn over_long_and_non_utf8_lines_get_one_error_and_the_stream_resynchronises() {
    use hc_serve::front::MAX_LINE_BYTES;
    use hc_serve::ServeError;

    let front = Front::bind("127.0.0.1:0").expect("bind");
    let addr = front.local_addr().expect("addr");
    let client = std::thread::spawn(move || {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let register = serde_json::to_string(&Request::RegisterWorker).expect("encodes");
        // Exactly at the cap: a valid request padded with whitespace.
        let at_cap = register.clone() + &" ".repeat(MAX_LINE_BYTES - register.len());
        // One byte over the cap: the same request plus one more space.
        let over_cap = format!("{at_cap} ");
        let metrics = serde_json::to_string(&Request::Metrics).expect("encodes");
        for line in [
            at_cap.as_bytes(),
            over_cap.as_bytes(),
            b"\xff\xfe",
            metrics.as_bytes(),
        ] {
            writer.write_all(line).expect("write");
            writer.write_all(b"\n").expect("write");
        }
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("shutdown");
        let reader = BufReader::new(stream);
        reader
            .lines()
            .map(|l| serde_json::from_str::<Response>(&l.expect("read")).expect("decodes"))
            .collect::<Vec<_>>()
    });

    let mut svc = Service::new(ServiceConfig::default()).expect("config valid");
    let handled = front.serve_one(&mut svc).expect("serve");
    assert_eq!(handled, 4);

    let replies = client.join().expect("client thread");
    assert_eq!(replies.len(), 4);
    assert!(matches!(replies[0], Response::WorkerRegistered { .. }));
    let reason = |reply: &Response| match reply {
        Response::Error {
            error: ServeError::InvalidRequest { reason },
        } => reason.clone(),
        other => panic!("unexpected: {other:?}"),
    };
    assert_eq!(
        reason(&replies[1]),
        format!("request line exceeds {MAX_LINE_BYTES} bytes")
    );
    assert_eq!(reason(&replies[2]), "request line is not UTF-8");
    // The over-long line registered nobody, and each later line was read
    // from its own start.
    match &replies[3] {
        Response::MetricsReport { players, .. } => assert_eq!(*players, 1),
        other => panic!("unexpected: {other:?}"),
    }
}
