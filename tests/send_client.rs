//! `audex send` against a live daemon: a piped flood of requests must move
//! at loopback speed. Before the client sent each request and its newline
//! in one segment with `TCP_NODELAY`, Nagle held the newline behind the
//! server's delayed ACK and every request cost ~44 ms (200 took ≈ 8.8 s).

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const REQUESTS: usize = 200;

#[test]
fn a_piped_flood_through_send_is_not_paced_by_delayed_acks() {
    let mut server = Command::new(env!("CARGO_BIN_EXE_audex"))
        .args(["serve", "--listen", "127.0.0.1:0"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn audex serve --listen");
    let mut banner = String::new();
    let mut stderr = BufReader::new(server.stderr.take().expect("server stderr"));
    stderr.read_line(&mut banner).expect("read banner");
    std::thread::spawn(move || for _ in stderr.lines() {});
    let addr = banner.trim().rsplit(' ').next().expect("address in banner").to_string();

    let mut send = Command::new(env!("CARGO_BIN_EXE_audex"))
        .args(["send", "--addr", &addr])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn audex send");
    let started = Instant::now();
    let mut script = "{\"cmd\":\"stats\"}\n".repeat(REQUESTS);
    script.push_str("{\"cmd\":\"shutdown\"}\n");
    send.stdin.take().expect("send stdin").write_all(script.as_bytes()).expect("pipe requests");
    let output = send.wait_with_output().expect("audex send exits");
    let elapsed = started.elapsed();
    assert!(server.wait().expect("server exits").success());

    assert!(output.status.success(), "{output:?}");
    let replies = String::from_utf8(output.stdout).expect("utf-8 replies");
    assert_eq!(replies.lines().count(), REQUESTS + 1, "one reply per request");
    assert!(replies.lines().all(|l| l.starts_with("{\"ok\":true")), "{replies}");
    assert!(
        elapsed < Duration::from_secs(2),
        "{REQUESTS} requests through `audex send` took {elapsed:?}; \
         a request is waiting on a delayed ACK again"
    );
}
