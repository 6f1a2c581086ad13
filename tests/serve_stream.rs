//! End-to-end pins for the planning service (`rexec-serve`):
//!
//! * **stream determinism** — a fixed single-connection query stream
//!   must produce a byte-identical response stream regardless of the
//!   batch cap, worker-thread count, plan-cache state (cold, warm, or
//!   disabled) — a batch is whatever is queued when a worker frees up,
//!   capped at `batch_max`, and answers are pure functions of the
//!   query, never of batch shape or cache residency;
//! * **framing** — how the client splits its writes (one line over
//!   many 1-byte writes, hundreds of lines in one write) does not
//!   change the response stream;
//! * **graceful shutdown** — requests accepted before and during the
//!   drain are all answered, and the listener refuses new connections
//!   once the server has exited;
//! * **typed wire errors** — malformed or invalid requests come back as
//!   `{"err": ...}` responses with stable kinds, and the connection
//!   stays fully usable afterwards;
//! * **cache transparency** — a proptest that a cache-enabled service
//!   and a cache-disabled service render identical response lines for
//!   random valid query streams.

use proptest::prelude::*;
use rexec_serve::{PlanService, ServeOptions, Server, ServiceConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Starts an in-process server on an ephemeral port.
fn start(batch_max: usize, workers: usize, cache: usize) -> Server {
    Server::start(ServeOptions {
        addr: "127.0.0.1:0".into(),
        workers,
        batch_max,
        service: ServiceConfig {
            plan_cache_capacity: cache,
            ..ServiceConfig::default()
        },
        ..ServeOptions::default()
    })
    .expect("bind ephemeral port")
}

/// Sends `lines` over one connection, half-closes, and returns the raw
/// response bytes until EOF.
fn roundtrip(server: &Server, lines: &str) -> Vec<u8> {
    roundtrip_writes(server, [lines.as_bytes()])
}

/// [`roundtrip`] with the request bytes sent as the given writes, one
/// `write_all` each.
fn roundtrip_writes<'a>(server: &Server, writes: impl IntoIterator<Item = &'a [u8]>) -> Vec<u8> {
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).ok();
    let mut read_half = stream.try_clone().expect("clone stream");
    let mut write_half = stream;
    for chunk in writes {
        write_half.write_all(chunk).expect("send");
    }
    write_half
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut response = Vec::new();
    read_half
        .read_to_end(&mut response)
        .expect("read responses");
    response
}

/// xorshift64* — the loadgen's deterministic stream generator.
fn next_rand(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545F4914F6CDD1D)
}

/// A mixed query stream: hot ρ pool plus fresh ρ values over the paper
/// tables, a custom-parameter table, and a sprinkling of invalid
/// requests (whose error responses are part of the determinism pin).
fn fixed_stream(n: u64) -> String {
    const PLATFORMS: [&str; 4] = ["hera", "atlas", "coastal", "coastal-ssd"];
    const PROCESSORS: [&str; 2] = ["xscale", "crusoe"];
    let mut rng = 0xDEC0DE_u64;
    let mut out = String::new();
    for id in 0..n {
        let r = next_rand(&mut rng);
        match r % 20 {
            // Occasional invalid requests: the error lines must be as
            // deterministic as the plans.
            17 => out.push_str(&format!("{{\"id\":{id},\"lambda\":-1}}\n")),
            18 => out.push_str(&format!("{{\"id\":{id},\"platform\":\"nonesuch\"}}\n")),
            19 => out.push_str(&format!("{{\"id\":{id},\"rho\":2.5}}\n")),
            // A custom table with an explicit speed ladder.
            16 => out.push_str(&format!(
                "{{\"id\":{id},\"lambda\":1e-5,\"checkpoint\":600,\"verification\":30,\
                 \"kappa\":2000,\"pidle\":50,\"speeds\":[0.25,0.5,0.75,1.0],\"rho\":{}}}\n",
                2.0 + (r >> 16) as f64 % 4.0
            )),
            table => {
                let platform = PLATFORMS[(table % 4) as usize];
                let processor = PROCESSORS[(table / 8) as usize];
                let rho = if (r >> 8) % 10 < 9 {
                    1.5 + 0.125 * ((r >> 16) % 16) as f64
                } else {
                    4.0 + id as f64 * 1e-4
                };
                out.push_str(&format!(
                    "{{\"id\":{id},\"platform\":\"{platform}\",\
                     \"processor\":\"{processor}\",\"rho\":{rho}}}\n"
                ));
            }
        }
    }
    out
}

#[test]
fn response_stream_is_byte_identical_across_server_shapes() {
    let stream = fixed_stream(1500);

    // Reference shape: no batching at all, one worker, cold cache.
    let server = start(1, 1, 65536);
    let reference = roundtrip(&server, &stream);
    server.shutdown();
    server.join();
    assert_eq!(
        reference.iter().filter(|&&b| b == b'\n').count(),
        1500,
        "every request line gets exactly one response line"
    );

    // Wide batches, many workers; plus cache disabled; plus a tiny
    // cache under eviction pressure. All must match byte for byte.
    for (batch_max, workers, cache) in [(512, 4, 65536), (128, 2, 0), (64, 3, 8)] {
        let server = start(batch_max, workers, cache);
        let got = roundtrip(&server, &stream);
        let report = {
            server.shutdown();
            server.join()
        };
        assert_eq!(
            got, reference,
            "stream diverged at batch={batch_max} workers={workers} cache={cache}"
        );
        assert_eq!(report.requests, 1500);
        assert_eq!(report.responses, 1500);
    }

    // Warm cache: the same server answering the stream twice must give
    // the same bytes both times (hits replay the solved plan exactly).
    let server = start(128, 2, 65536);
    let cold = roundtrip(&server, &stream);
    let warm = roundtrip(&server, &stream);
    let report = {
        server.shutdown();
        server.join()
    };
    assert_eq!(cold, reference);
    assert_eq!(warm, reference, "warm-cache stream diverged from cold");
    assert!(
        report.cache.hits > 1000,
        "second pass should be answered mostly from cache (hits = {})",
        report.cache.hits
    );
}

#[test]
fn response_stream_is_byte_identical_however_the_client_splits_writes() {
    let stream = fixed_stream(600);
    let server = start(1, 1, 65536);
    let reference = roundtrip(&server, &stream);
    server.shutdown();
    server.join();

    // Line 0 arrives one byte per write; then one write carries lines
    // 1..450 and the first half of line 450, whose second half follows
    // one byte per write; one last write carries the rest.
    let bytes = stream.as_bytes();
    let ends: Vec<usize> = stream.match_indices('\n').map(|(at, _)| at + 1).collect();
    let mid_450 = (ends[449] + ends[450]) / 2;
    let mut writes: Vec<&[u8]> = bytes[..ends[0]].chunks(1).collect();
    writes.push(&bytes[ends[0]..mid_450]);
    writes.extend(bytes[mid_450..ends[450]].chunks(1));
    writes.push(&bytes[ends[450]..]);

    let server = start(128, 2, 65536);
    let got = roundtrip_writes(&server, writes);
    let report = {
        server.shutdown();
        server.join()
    };
    assert_eq!(
        got, reference,
        "response stream depends on write boundaries"
    );
    assert_eq!(report.requests, 600);
    assert_eq!(report.responses, 600);
}

#[test]
fn graceful_shutdown_answers_everything_then_refuses_connections() {
    let server = start(128, 2, 65536);
    let addr = server.local_addr();

    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).ok();
    let mut read_half = stream.try_clone().expect("clone stream");
    let mut write_half = stream;
    let request = |id: usize| {
        format!("{{\"id\":{id},\"platform\":\"hera\",\"processor\":\"xscale\",\"rho\":3}}\n")
    };

    // Prove the connection has been accepted (first answer arrives)
    // before requesting shutdown — otherwise the drain could race the
    // accept loop and legitimately never see this socket.
    write_half.write_all(request(0).as_bytes()).expect("send");
    write_half.flush().expect("flush");
    let mut reader = BufReader::new(&mut read_half);
    let mut first = String::new();
    reader.read_line(&mut first).expect("first response");
    assert!(first.starts_with("{\"id\":0,"), "unexpected: {first}");

    // Half the remaining queries land before the shutdown request, half
    // after: the drain must answer both (the connection was accepted,
    // so every line read off it gets a response until EOF).
    for id in 1..400 {
        write_half.write_all(request(id).as_bytes()).expect("send");
    }
    write_half.flush().expect("flush");
    server.shutdown();
    for id in 400..800 {
        write_half.write_all(request(id).as_bytes()).expect("send");
    }
    write_half
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");

    let mut responses = Vec::new();
    reader.read_to_end(&mut responses).expect("drain");
    assert_eq!(
        responses.iter().filter(|&&b| b == b'\n').count(),
        799,
        "every in-flight request must be answered during the drain"
    );
    // Responses arrive in request order: ids echo back 1..800.
    for (k, line) in responses.split(|&b| b == b'\n').take(799).enumerate() {
        let prefix = format!("{{\"id\":{},", k + 1);
        assert!(
            line.starts_with(prefix.as_bytes()),
            "response {} out of order: {}",
            k + 1,
            String::from_utf8_lossy(line)
        );
    }

    let report = server.join();
    assert_eq!(report.requests, 800);
    assert_eq!(report.responses, 800);
    assert_eq!(report.errors, 0);
    assert!(
        TcpStream::connect(addr).is_err(),
        "listener must be closed after join()"
    );
}

#[test]
fn typed_errors_keep_the_connection_usable() {
    let server = start(128, 2, 65536);
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut write_half = stream;
    let mut ask = |line: &str| -> String {
        write_half.write_all(line.as_bytes()).expect("send");
        write_half.write_all(b"\n").expect("send newline");
        write_half.flush().expect("flush");
        let mut response = String::new();
        reader.read_line(&mut response).expect("one response line");
        response
    };

    // Each bad request gets a typed error naming the failure...
    for (request, kind) in [
        ("{\"id\":1,\"platform\":\"hera\",", "parse"),
        ("[1,2,3]", "bad_request"),
        ("{\"id\":2,\"bogus\":1}", "unknown_field"),
        ("{\"id\":3,\"lambda\":-4}", "invalid_value"),
        ("{\"id\":4,\"platform\":\"nonesuch\"}", "unknown_name"),
        ("{\"id\":5,\"lambda\":1e-5}", "underspecified"),
    ] {
        let response = ask(request);
        assert!(
            response.contains(&format!("\"err\":{{\"kind\":\"{kind}\"")),
            "expected `{kind}` error for {request}, got: {response}"
        );
    }

    // ...and the connection still answers real queries afterwards.
    let response = ask("{\"id\":6,\"platform\":\"hera\",\"processor\":\"xscale\",\"rho\":3}");
    assert!(
        response.starts_with("{\"id\":6,\"digest\":\"fnv1a:") && response.contains("\"wopt\":"),
        "connection unusable after errors: {response}"
    );

    write_half
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    server.shutdown();
    let report = server.join();
    assert_eq!(report.responses, 7);
    assert_eq!(report.errors, 6);
}

/// Renders a full answer stream through the transport-free service.
fn answer_lines(service: &PlanService, queries: &[(usize, f64)]) -> Vec<String> {
    const PLATFORMS: [&str; 4] = ["hera", "atlas", "coastal", "coastal-ssd"];
    const PROCESSORS: [&str; 2] = ["xscale", "crusoe"];
    queries
        .iter()
        .enumerate()
        .map(|(id, &(table, rho))| {
            let spec = rexec_serve::PlanSpec {
                platform: Some(PLATFORMS[table % 4].to_string()),
                processor: Some(PROCESSORS[table / 4].to_string()),
                rho: Some(rho),
                ..rexec_serve::PlanSpec::default()
            };
            let mut line = String::new();
            match service.plan_spec(&spec) {
                Ok(answer) => {
                    rexec_serve::render_answer(&mut line, Some(id as u64), &answer);
                }
                Err(e) => rexec_serve::render_error(
                    &mut line,
                    Some(id as u64),
                    &rexec_serve::wire::wire_error_from_spec(&e),
                ),
            }
            line
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The plan cache is semantically invisible: for any valid query
    /// stream (repeated ρ values included, so hits actually occur), a
    /// cache-enabled service and a cache-disabled one render identical
    /// response lines — even with a tiny cache forcing evictions.
    #[test]
    fn cache_on_and_cache_off_render_identical_streams(
        queries in proptest::collection::vec(
            (0usize..8, 0u32..100, 11u32..80, 1.05f64..12.0).prop_map(
                // 60% from a coarse ρ grid (collides across the stream:
                // cache hits), the rest from a continuous range (mostly
                // fresh: cache misses).
                |(table, pick, grid, fresh)| {
                    let rho = if pick < 60 { f64::from(grid) / 10.0 } else { fresh };
                    (table, rho)
                },
            ),
            1..120,
        )
    ) {
        let cached = PlanService::new(ServiceConfig::default());
        let tiny = PlanService::new(ServiceConfig {
            plan_cache_capacity: 4,
            plan_cache_shards: 1,
            ..ServiceConfig::default()
        });
        let uncached = PlanService::new(ServiceConfig {
            plan_cache_capacity: 0,
            ..ServiceConfig::default()
        });
        let reference = answer_lines(&uncached, &queries);
        prop_assert_eq!(&answer_lines(&cached, &queries), &reference);
        prop_assert_eq!(&answer_lines(&tiny, &queries), &reference);
        // Replaying the same stream against the now-warm cache must
        // still give the same bytes.
        prop_assert_eq!(&answer_lines(&cached, &queries), &reference);
    }
}
