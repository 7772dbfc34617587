//! Criterion bench for `reap-serve`'s wire codec: encode and decode of
//! the four frames every served user-hour exchanges (`observe` →
//! `observed`, then `decide` → `decision`). Field values are typical of
//! a live fleet: full-precision floats, large sequence numbers and a
//! two-point blend, so float formatting and parsing are exercised at
//! their usual length.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use reap_serve::{Request, Response, WireShare};
use std::hint::black_box;

fn requests() -> [(&'static str, Request); 2] {
    [
        (
            "observe",
            Request::Observe {
                user: 1234,
                hour: 517,
                harvest_j: 0.731_234_567_890_123_4,
                activity: None,
                seq: Some(48_213),
            },
        ),
        ("decide", Request::Decide { user: 1234 }),
    ]
}

fn responses() -> [(&'static str, Response); 2] {
    [
        (
            "observed",
            Response::Observed {
                user: 1234,
                hour: 13,
                budget_j: 0.695_172_839_405_817_2,
            },
        ),
        (
            "decision",
            Response::Decision {
                user: 1234,
                budget_j: 0.695_172_839_405_817_2,
                accuracy: 0.812_345_678_901_234_5,
                active_s: 1_517.283_940_581_72,
                energy_j: 0.695_172_839_405_817_1,
                off_s: 2_082.716_059_418_28,
                shares: vec![
                    WireShare {
                        id: 2,
                        seconds: 911.051_234_567_89,
                    },
                    WireShare {
                        id: 3,
                        seconds: 606.232_706_013_83,
                    },
                ],
            },
        ),
    ]
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_codec");
    group.sample_size(50);
    for (name, req) in requests() {
        let line = req.encode();
        group.bench_with_input(BenchmarkId::new("encode", name), &req, |b, r| {
            b.iter(|| black_box(black_box(r).encode()));
        });
        group.bench_with_input(BenchmarkId::new("decode", name), &line, |b, l| {
            b.iter(|| black_box(Request::decode(black_box(l)).expect("valid frame")));
        });
    }
    for (name, resp) in responses() {
        let line = resp.encode();
        group.bench_with_input(BenchmarkId::new("encode", name), &resp, |b, r| {
            b.iter(|| black_box(black_box(r).encode()));
        });
        group.bench_with_input(BenchmarkId::new("decode", name), &line, |b, l| {
            b.iter(|| black_box(Response::decode(black_box(l)).expect("valid frame")));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
