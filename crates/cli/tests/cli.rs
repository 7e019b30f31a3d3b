//! End-to-end test of the `linkcast` binary: serve a two-broker network,
//! subscribe from one shell, publish from another, see the event arrive.

use std::io::Write;
use std::net::TcpListener;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn free_port() -> u16 {
    TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .port()
}

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_linkcast"))
}

fn write_config(dir: &std::path::Path) -> std::path::PathBuf {
    let (p1, p2) = (free_port(), free_port());
    let config = format!(
        "broker west listen=127.0.0.1:{p1}\n\
         broker east listen=127.0.0.1:{p2} link=west:25\n\
         client alice west\n\
         client bob east\n\
         schema trades issue:string price:dollar volume:integer\n"
    );
    let path = dir.join("demo.lc");
    std::fs::write(&path, config).unwrap();
    path
}

fn wait_for(mut check: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !check() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

struct KillOnDrop(Child);
impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn check_validates_configs() {
    let dir = std::env::temp_dir().join(format!("linkcast-cli-check-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let config = write_config(&dir);
    let output = bin().arg("check").arg(&config).output().unwrap();
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("2 brokers"), "{stdout}");
    assert!(stdout.contains("client alice"), "{stdout}");

    // A broken config fails with a line number.
    let bad = dir.join("bad.lc");
    std::fs::write(&bad, "broker x\n").unwrap();
    let output = bin().arg("check").arg(&bad).output().unwrap();
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("line 1"), "{stderr}");
}

#[test]
fn serve_publish_subscribe_roundtrip() {
    let dir = std::env::temp_dir().join(format!("linkcast-cli-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let config = write_config(&dir);

    // Start the network; keep stdin open so it keeps serving.
    let mut serve = KillOnDrop(
        bin()
            .arg("serve")
            .arg(&config)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap(),
    );
    // Wait until both brokers accept connections.
    let text = std::fs::read_to_string(&config).unwrap();
    let ports: Vec<u16> = text
        .lines()
        .filter_map(|l| l.split("listen=127.0.0.1:").nth(1))
        .filter_map(|rest| rest.split_whitespace().next())
        .filter_map(|p| p.parse().ok())
        .collect();
    assert_eq!(ports.len(), 2);
    wait_for(
        || {
            ports
                .iter()
                .all(|p| std::net::TcpStream::connect(("127.0.0.1", *p)).is_ok())
        },
        "brokers to listen",
    );

    // Subscriber: alice (on west) watches IBM, exits after 1 event.
    let subscriber = bin()
        .arg("subscribe")
        .arg(&config)
        .args(["--client", "alice", "--space", "trades"])
        .args(["--filter", r#"issue = "IBM" & volume > 1000"#])
        .args(["--count", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // Give the subscription time to flood across the broker link.
    std::thread::sleep(Duration::from_millis(500));

    // Publisher: bob (on east) publishes a matching and a non-matching trade.
    let out = bin()
        .arg("publish")
        .arg(&config)
        .args(["--client", "bob", "--space", "trades"])
        .args(["--event", r#"issue="IBM", price=119.50, volume=3000"#])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = bin()
        .arg("publish")
        .arg(&config)
        .args(["--client", "bob", "--space", "trades"])
        .args(["--event", r#"issue="HP", price=1.00, volume=9000"#])
        .output()
        .unwrap();
    assert!(out.status.success());

    // The subscriber exits after the one matching event.
    let output = subscriber.wait_with_output().unwrap();
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("IBM"), "{stdout}");
    assert!(stdout.contains("3000"), "{stdout}");
    assert!(!stdout.contains("HP"), "only the matching event: {stdout}");

    // `stats` prints the whole counter registry: every name exactly once.
    let out = bin()
        .arg("stats")
        .arg(&config)
        .args(["--client", "bob"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let printed: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.split_whitespace().next()?.strip_suffix(':'))
        .collect();
    for name in linkcast_broker::NodeCounters::NAMES {
        let times = printed.iter().filter(|&&p| p == name).count();
        assert_eq!(times, 1, "`{name}` printed {times} times: {stdout}");
    }

    // Stop the server via stdin (clean shutdown path).
    serve.0.stdin.take().unwrap().write_all(b"\n").unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(status) = serve.0.try_wait().unwrap() {
            assert!(status.success());
            break;
        }
        assert!(Instant::now() < deadline, "serve did not stop");
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn simulate_runs_small() {
    let output = bin()
        .args([
            "simulate", "--subs", "200", "--rate", "50", "--events", "50",
        ])
        .output()
        .unwrap();
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("published:           50"), "{stdout}");
    assert!(stdout.contains("mean latency"), "{stdout}");

    let output = bin()
        .args([
            "simulate",
            "--protocol",
            "flood",
            "--subs",
            "100",
            "--rate",
            "50",
            "--events",
            "50",
        ])
        .output()
        .unwrap();
    assert!(output.status.success());
    assert!(String::from_utf8_lossy(&output.stdout).contains("flooding"));
}

#[test]
fn bad_flags_are_rejected() {
    let output = bin().args(["simulate", "--bogus", "1"]).output().unwrap();
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("unknown flag"));

    let output = bin().args(["frobnicate"]).output().unwrap();
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("unknown subcommand"));

    let output = bin().arg("help").output().unwrap();
    assert!(output.status.success());
    assert!(String::from_utf8_lossy(&output.stdout).contains("USAGE"));
}

/// A reader that stops reading is no error: `linkcast check … | head`
/// ends quietly once `head` has what it wants. Here the read end of the
/// pipe is closed before the command writes anything.
#[test]
fn a_closed_output_pipe_ends_a_command_quietly() {
    let dir = std::env::temp_dir().join(format!("linkcast-cli-pipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let config = write_config(&dir);
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let child = bin()
        .arg("check")
        .arg(&config)
        .args(["--dot", "topology"])
        .stdout(writer)
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let output = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{output:?}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
