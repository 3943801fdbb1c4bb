//! Micro-benchmarks: the serving wire codec on every fixture of the
//! frozen wire image (`crates/serve/tests/golden/wire.txt`). Each line
//! is timed twice — typed decode from its JSON text and typed encode
//! back to it — under the fixture's kind name, so a codec change reads
//! off per message shape.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hc_serve::{Request, Response};
use std::hint::black_box;

/// One golden fixture: its kind name, its JSON text, and the typed
/// value that text decodes to.
enum Fixture {
    Request(&'static str, &'static str, Request),
    Response(&'static str, &'static str, Response),
}

fn fixtures() -> Vec<Fixture> {
    include_str!("../../serve/tests/golden/wire.txt")
        .lines()
        .map(|line| {
            let (kind, json) = line.split_once('\t').expect("kind<TAB>json");
            match serde_json::from_str::<Request>(json) {
                Ok(request) => Fixture::Request(kind, json, request),
                Err(_) => Fixture::Response(
                    kind,
                    json,
                    serde_json::from_str(json).expect("golden lines decode"),
                ),
            }
        })
        .collect()
}

fn bench_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_decode");
    for (i, fixture) in fixtures().iter().enumerate() {
        match fixture {
            Fixture::Request(kind, json, _) => {
                group.bench_with_input(BenchmarkId::new(*kind, i), json, |b, json| {
                    b.iter(|| black_box(serde_json::from_str::<Request>(json).is_ok()));
                });
            }
            Fixture::Response(kind, json, _) => {
                group.bench_with_input(BenchmarkId::new(*kind, i), json, |b, json| {
                    b.iter(|| black_box(serde_json::from_str::<Response>(json).is_ok()));
                });
            }
        }
    }
    group.finish();
}

fn bench_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_encode");
    for (i, fixture) in fixtures().iter().enumerate() {
        match fixture {
            Fixture::Request(kind, json, value) => {
                assert_eq!(serde_json::to_string(value).expect("encodes"), *json);
                group.bench_with_input(BenchmarkId::new(*kind, i), value, |b, value| {
                    b.iter(|| black_box(serde_json::to_string(value).map(|s| s.len())));
                });
            }
            Fixture::Response(kind, json, value) => {
                assert_eq!(serde_json::to_string(value).expect("encodes"), *json);
                group.bench_with_input(BenchmarkId::new(*kind, i), value, |b, value| {
                    b.iter(|| black_box(serde_json::to_string(value).map(|s| s.len())));
                });
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_decode, bench_encode);
criterion_main!(benches);
