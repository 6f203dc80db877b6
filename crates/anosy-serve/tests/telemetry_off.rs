//! With the `telemetry` cargo feature compiled out (`--no-default-features`), the server still
//! answers the `metrics` and `trace` wire requests, just with nothing recorded, and harvests
//! no report. The recording side is covered by `tests/telemetry.rs`.

#![cfg(not(feature = "telemetry"))]

use anosy_domains::IntervalDomain;
use anosy_serve::{wire, Deployment, Frontend, ServeConfig, Server, ServerConfig, SimNet};

#[test]
fn compiled_out_telemetry_answers_empty_over_the_wire() {
    let mut net = SimNet::new(0).with_max_delay(0);
    let client = net.connect(0);
    net.send(client, 10, "open min-size:100\n");
    net.send(client, 20, "metrics\n");
    net.send(client, 30, "trace\n");
    net.half_close(client, 40);

    let layout = wire::parse_layout("x:0:400 y:0:400").expect("layout parses");
    let deployment: Deployment<IntervalDomain> = Deployment::new(layout, ServeConfig::for_tests());
    let mut server = Server::new(Frontend::new(deployment), net, ServerConfig::new());
    server.run();

    let text = server.transport().received_text(client);
    let answers: Vec<&str> =
        text.lines().map(|line| line.split_once(' ').expect("id-prefixed response").1).collect();
    assert_eq!(answers, ["ok session 1", "ok metrics {}", "ok trace []"], "{text}");
    assert!(server.telemetry_report().is_none(), "nothing was recorded");
}
