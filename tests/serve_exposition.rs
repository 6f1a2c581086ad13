//! The daemon publishes its rolling-window gauges on read, not per
//! batch: after traffic, `Server::join` must leave every one of them in
//! the global exposition with a live value. This file is its own test
//! binary because other servers in the same process would overwrite
//! these global gauges.

use rexec_serve::{ServeOptions, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

#[test]
fn join_publishes_the_window_gauges() {
    let server = Server::start(ServeOptions::default()).expect("bind ephemeral port");
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut write_half = stream;
    // Asked twice, one answer apart, so the second is a plan-cache hit.
    let query = "{\"id\":1,\"platform\":\"hera\",\"processor\":\"xscale\",\"rho\":3}\n";
    for _ in 0..2 {
        write_half.write_all(query.as_bytes()).expect("send");
        let mut response = String::new();
        reader.read_line(&mut response).expect("response");
        assert!(response.contains("\"wopt\":"), "unexpected: {response}");
    }
    write_half
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    server.shutdown();
    assert_eq!(server.join().cache.hits, 1);

    let text = rexec_obs::prometheus_text(rexec_obs::global());
    rexec_obs::check_prometheus_text(&text).expect("valid exposition");
    for name in [
        "rexec_serve_latency_p50",
        "rexec_serve_qps",
        "rexec_serve_cache_hit_rate",
    ] {
        let value: f64 = text
            .lines()
            .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("{name} missing from exposition:\n{text}"))
            .parse()
            .expect("numeric gauge");
        assert!(value > 0.0, "{name} = {value}");
    }
}
