//! `linkcast` — drive a content-based pub/sub broker network from the
//! command line.
//!
//! ```text
//! linkcast serve <config>                           run every broker in the file
//! linkcast publish <config> --client NAME --space NAME --event 'a="x", b=1'
//! linkcast subscribe <config> --client NAME --space NAME --filter 'b > 0' [--count N]
//! linkcast simulate [--subs N] [--rate R] [--events N] [--protocol link|flood]
//! linkcast check <config>                           parse + validate, print a summary
//! ```
//!
//! See `crates/cli/src/config.rs` for the configuration language.

mod config;
mod events;

use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use linkcast::RoutingFabric;
use linkcast_broker::{BrokerConfig, BrokerNode, Client};
use linkcast_sim::{topology39, FloodingSim, LinkMatchingSim, SimConfig, Simulation};
use linkcast_workload::{EventGenerator, SubscriptionGenerator, WorkloadConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("publish") => cmd_publish(&args[1..]),
        Some("subscribe") => cmd_subscribe(&args[1..]),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!(
            "unknown subcommand `{other}` (try `linkcast help`)"
        )),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!(
        "linkcast — content-based publish/subscribe with link matching\n\
         \n\
         USAGE:\n\
           linkcast serve <config>\n\
           linkcast publish <config> --client NAME --space NAME --event 'a=\"x\", b=1'\n\
           linkcast subscribe <config> --client NAME --space NAME --filter 'b > 0'\n\
                              [--count N] [--resume SEQ]\n\
           linkcast simulate [--subs N] [--rate R] [--events N] [--protocol link|flood]\n\
           linkcast check <config> [--dot topology]\n\
           linkcast stats <config> --client NAME\n\
         \n\
         The config file declares brokers, clients, and information spaces;\n\
         see the repository README for the format."
    );
}

/// Parses `--key value` flags after positional arguments.
fn parse_flags<'a>(
    args: &'a [String],
    positional: usize,
    allowed: &[&str],
) -> Result<(Vec<&'a str>, HashMap<String, String>), String> {
    let mut pos = Vec::new();
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if let Some(key) = arg.strip_prefix("--") {
            if !allowed.contains(&key) {
                return Err(format!("unknown flag `--{key}`"));
            }
            let value = it
                .next()
                .ok_or_else(|| format!("flag `--{key}` needs a value"))?;
            flags.insert(key.to_string(), value.clone());
        } else {
            pos.push(arg.as_str());
        }
    }
    if pos.len() != positional {
        return Err(format!(
            "expected {positional} positional argument(s), got {}",
            pos.len()
        ));
    }
    Ok((pos, flags))
}

fn load_config(path: &str) -> Result<config::Config, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read config `{path}`: {e}"))?;
    config::parse(&text).map_err(|e| e.to_string())
}

fn cmd_check(args: &[String]) -> Result<(), String> {
    let (pos, flags) = parse_flags(args, 1, &["dot"])?;
    let cfg = load_config(pos[0])?;
    if flags.get("dot").is_some_and(|v| v == "topology") {
        print!("{}", cfg.network.to_dot());
        return Ok(());
    }
    println!(
        "{} brokers, {} clients, {} links, {} information space(s)",
        cfg.network.broker_count(),
        cfg.network.client_count(),
        cfg.links.len(),
        cfg.registry.len()
    );
    for (name, id, addr) in &cfg.brokers {
        println!(
            "  broker {name} ({id}) on {addr}, {} links",
            cfg.network.link_count(*id)
        );
    }
    for (name, id, home) in &cfg.clients {
        println!("  client {name} ({id}) at {home}");
    }
    for schema in cfg.registry.iter() {
        println!("  space {schema}");
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let (pos, _) = parse_flags(args, 1, &[])?;
    let cfg = load_config(pos[0])?;
    let fabric = RoutingFabric::new_all_roots(cfg.network.clone()).map_err(|e| e.to_string())?;

    let mut nodes = Vec::new();
    for (name, id, addr) in &cfg.brokers {
        let mut broker_config =
            BrokerConfig::localhost(*id, fabric.clone(), Arc::clone(&cfg.registry));
        broker_config.listen = *addr;
        let node = BrokerNode::start(broker_config)
            .map_err(|e| format!("broker `{name}` failed to start: {e}"))?;
        println!("broker {name} listening on {}", node.addr());
        nodes.push(node);
    }
    // Wire the declared links: the declaring side dials.
    for (dialer, target) in &cfg.links {
        let (dialer_id, _) = cfg.broker(dialer).expect("validated by the parser");
        let (target_id, target_addr) = cfg.broker(target).expect("validated by the parser");
        let node = nodes
            .iter()
            .find(|n| n.broker() == dialer_id)
            .expect("every broker started");
        node.connect_to_persistent(target_id, target_addr);
        println!("link {dialer} -> {target} supervised");
    }
    println!("serving; press Enter (or close stdin) to stop");
    let mut line = String::new();
    let _ = std::io::stdin().read_line(&mut line);
    for node in nodes {
        node.shutdown();
    }
    println!("stopped");
    Ok(())
}

fn connect_client(
    cfg: &config::Config,
    flags: &HashMap<String, String>,
    resume: u64,
) -> Result<Client, String> {
    let client_name = flags.get("client").ok_or("missing --client NAME")?.as_str();
    let client_id = cfg
        .client(client_name)
        .ok_or_else(|| format!("`{client_name}` is not a client in the config"))?;
    let home = cfg
        .client_home(client_name)
        .expect("client names map to homes");
    let (_, addr) = cfg.broker(home).expect("homes are brokers");
    Client::connect(addr, client_id, resume, Arc::clone(&cfg.registry))
        .map_err(|e| format!("cannot connect `{client_name}` to {home} at {addr}: {e}"))
}

fn resolve_space<'a>(
    cfg: &'a config::Config,
    flags: &HashMap<String, String>,
) -> Result<&'a linkcast_types::EventSchema, String> {
    let space = flags.get("space").ok_or("missing --space NAME")?;
    cfg.schema(space)
        .ok_or_else(|| format!("`{space}` is not an information space in the config"))
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let (pos, flags) = parse_flags(args, 1, &["client"])?;
    let cfg = load_config(pos[0])?;
    let mut client = connect_client(&cfg, &flags, 0)?;
    let counters = client.stats().map_err(|e| e.to_string())?;
    let home = cfg
        .client_home(flags.get("client").expect("checked by connect_client"))
        .expect("clients have homes");
    println!("broker {home}:");
    // The table comes straight from the counter registry: every counter in
    // `broker_counters!` appears here with no per-counter CLI edits.
    let lines = counters.counter_lines();
    let width = lines
        .iter()
        .map(|(name, _)| name.len() + 1)
        .max()
        .unwrap_or(0);
    for (name, value) in lines {
        println!("  {:<width$} {value}", format!("{name}:"));
    }
    Ok(())
}

fn cmd_publish(args: &[String]) -> Result<(), String> {
    let (pos, flags) = parse_flags(args, 1, &["client", "space", "event"])?;
    let cfg = load_config(pos[0])?;
    let schema = resolve_space(&cfg, &flags)?;
    let literal = flags.get("event").ok_or("missing --event 'a=..., b=...'")?;
    let event = events::parse_event(schema, literal)?;
    let mut client = connect_client(&cfg, &flags, 0)?;
    client.publish(&event).map_err(|e| e.to_string())?;
    println!("published {event}");
    Ok(())
}

fn cmd_subscribe(args: &[String]) -> Result<(), String> {
    let (pos, flags) = parse_flags(args, 1, &["client", "space", "filter", "count", "resume"])?;
    let cfg = load_config(pos[0])?;
    let schema = resolve_space(&cfg, &flags)?;
    let filter = flags
        .get("filter")
        .map(String::as_str)
        .unwrap_or("")
        .to_string();
    let count: Option<u64> = match flags.get("count") {
        Some(n) => Some(n.parse().map_err(|_| format!("bad --count `{n}`"))?),
        None => None,
    };
    let resume: u64 = match flags.get("resume") {
        Some(n) => n.parse().map_err(|_| format!("bad --resume `{n}`"))?,
        None => 0,
    };
    let mut client = connect_client(&cfg, &flags, resume)?;
    // An empty filter means "everything": render as the first attribute
    // matching any value via an explicit wildcard.
    let expression = if filter.trim().is_empty() {
        format!(
            "{} = *",
            schema.attribute(0).expect("schemas are non-empty").name()
        )
    } else {
        filter
    };
    let id = client
        .subscribe(schema.id(), &expression)
        .map_err(|e| e.to_string())?;
    eprintln!("subscribed {id}: {expression}");
    let mut received = 0u64;
    loop {
        match client.recv(Duration::from_millis(500)) {
            Ok((seq, event)) => {
                println!("#{seq} {event}");
                received += 1;
                if count.is_some_and(|c| received >= c) {
                    return Ok(());
                }
            }
            Err(linkcast_broker::ClientError::Timeout) => continue,
            Err(e) => return Err(e.to_string()),
        }
    }
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let (_, flags) = parse_flags(args, 0, &["subs", "rate", "events", "protocol", "seed"])?;
    let subs: usize = flags
        .get("subs")
        .map(|s| s.parse().map_err(|_| format!("bad --subs `{s}`")))
        .transpose()?
        .unwrap_or(2000);
    let rate: f64 = flags
        .get("rate")
        .map(|s| s.parse().map_err(|_| format!("bad --rate `{s}`")))
        .transpose()?
        .unwrap_or(100.0);
    let events_n: usize = flags
        .get("events")
        .map(|s| s.parse().map_err(|_| format!("bad --events `{s}`")))
        .transpose()?
        .unwrap_or(500);
    let seed: u64 = flags
        .get("seed")
        .map(|s| s.parse().map_err(|_| format!("bad --seed `{s}`")))
        .transpose()?
        .unwrap_or(42);
    let protocol = flags.get("protocol").map(String::as_str).unwrap_or("link");

    let world = topology39::build().map_err(|e| e.to_string())?;
    let wconfig = WorkloadConfig::chart1();
    let schema = wconfig.schema();
    let options = linkcast_matching::PstOptions::default().with_factoring(wconfig.factoring_levels);
    let generator = SubscriptionGenerator::new(&wconfig, seed);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
    let events = EventGenerator::new(&wconfig, seed);
    let config = SimConfig::default()
        .with_rate(rate)
        .with_events(events_n)
        .with_seed(seed);

    let report = match protocol {
        "link" => {
            let mut router = linkcast::ContentRouter::new(world.fabric.clone(), schema, options)
                .map_err(|e| e.to_string())?;
            topology39::subscribe_random(&mut router, &world, &generator, subs, &mut rng)
                .map_err(|e| e.to_string())?;
            Simulation::new(
                &LinkMatchingSim(router),
                world.publishers.clone(),
                &events,
                config,
            )
            .run()
        }
        "flood" => {
            let mut router = linkcast::FloodingRouter::new(world.fabric.clone(), schema, options)
                .map_err(|e| e.to_string())?;
            topology39::subscribe_random(&mut router, &world, &generator, subs, &mut rng)
                .map_err(|e| e.to_string())?;
            Simulation::new(
                &FloodingSim::new(router, world.fabric.clone()),
                world.publishers.clone(),
                &events,
                config,
            )
            .run()
        }
        other => return Err(format!("unknown protocol `{other}` (link|flood)")),
    };

    println!("protocol:            {}", report.protocol);
    println!("published:           {}", report.published);
    println!("client deliveries:   {}", report.deliveries);
    println!("broker-link copies:  {}", report.broker_messages);
    println!("matching steps:      {}", report.total_steps);
    println!("mean latency:        {:.1} ms", report.mean_latency_ms());
    println!(
        "p99 latency:         {:.1} ms",
        report.latency_percentile_ms(0.99)
    );
    println!(
        "max utilization:     {:.1}%",
        report.max_utilization() * 100.0
    );
    println!(
        "overloaded brokers:  {}",
        if report.overloaded.is_empty() {
            "none".to_string()
        } else {
            format!("{:?}", report.overloaded)
        }
    );
    Ok(())
}
